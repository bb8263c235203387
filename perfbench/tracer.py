"""Outside-in spans around the public functions of the mckay modules.

`Tracer.install()` replaces every public function of the layer modules, and
every alias of it (`from .x import f` names, module attributes, entries of
module-level lists such as `verify.ALL_CHECKS`, and names imported by the
running `__main__`), with a wrapper that records a span.  `uninstall()` puts
the originals back.  Spans stay in memory as (name, start, end, parent, ok)
and are written once, as JSON lines, by `write()`.

Nothing in the program is edited: the spans are taken at the boundaries of
calls into each module.  `summarize()` turns a span file into per-function
self time (duration minus the time its child spans cover) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYER_MODULES = ("groups", "chartab", "mckaygraph", "molien", "preproj",
                 "bgp", "linalg", "heights", "ktheory", "verify")

# Public methods that carry a layer's work.  HomDims.__call__ is the same
# function as hom_dim under a second name, so both names are wrapped.
METHODS = (("groups", "MatrixGroup", "conjugacy_classes"),
           ("molien", "HomDims", "hom_dim"),
           ("molien", "HomDims", "__call__"))

ROOT = -1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.oks: list[bool] = []
        self.stack: list[int] = []
        self.groups_seen: dict[int, int] = {}
        self.admissible = 0
        self.paths = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_of.get(name)
        if nid is None:
            nid = self.name_of[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else ROOT)
        self.ends.append(0.0)
        self.oks.append(False)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.ends[idx] = time.perf_counter()
        self.oks[idx] = ok
        self.stack.pop()

    def open_root(self, name: str) -> int:
        return self._open(name)

    def close_root(self, idx: int) -> None:
        self._close(idx, True)

    def _wrap(self, name: str, fn):
        observe = self._observers().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self):
        def groups(args, group):
            self.groups_seen.setdefault(id(group), group.order)

        def admissible(args, rank):
            rep, vertex = args[0], args[1]
            if rank == rep.dims[vertex]:
                self.admissible += 1

        def paths(args, result):
            self.paths += paths_enumerated(args[0], result.max_degree)

        return {"groups.build_group": groups,
                "bgp.assembled_rank": admissible,
                "preproj.truncated_hilbert": paths}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"mckay.{name}")
                   for name in LAYER_MODULES}
        replace: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[attr]
            label = "hom_dim" if attr == "__call__" else attr
            setattr(cls, attr, self._wrap(f"{short}.{label}", original))
            self._undo.append((setattr, cls, attr, original))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "mckay" or n.startswith("mckay.")]
        if "__main__" in sys.modules:
            namespaces.append(sys.modules["__main__"])
        for mod in namespaces:
            space = vars(mod)
            for attr, obj in list(space.items()):
                if id(obj) in replace:
                    space[attr] = replace[id(obj)]
                    self._undo.append((space.__setitem__, attr, obj))
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if id(item) in replace:
                            obj[i] = replace[id(item)]
                            self._undo.append((obj.__setitem__, i, item))

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # -- output ------------------------------------------------------------

    def write(self, path: str, root: int | None) -> None:
        """Spans as JSON lines: a header, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "root": root,
                                 "groups_elements": sum(self.groups_seen.values()),
                                 "admissible": self.admissible,
                                 "paths_enumerated": self.paths}) + "\n")
            for i, nid in enumerate(self.name_ids):
                fh.write(json.dumps([self.names[nid], self.starts[i], self.ends[i],
                                     self.parents[i], self.oks[i]]) + "\n")


def paths_enumerated(pres, max_degree: int) -> int:
    """Paths of length 1..max_degree in the doubled quiver, which
    truncated_hilbert lists one by one: the entry sum of the powers of the
    arrow-count matrix.  Computed, not counted inside the program."""
    nv = pres.num_vertices
    adj = [[0] * nv for _ in range(nv)]
    for arrow in pres.arrows:
        adj[arrow.src][arrow.tgt] += 1
    power, total = adj, 0
    for _ in range(max_degree):
        total += sum(map(sum, power))
        power = [[sum(row[k] * adj[k][j] for k in range(nv)) for j in range(nv)]
                 for row in power]
    return total


def summarize(path: str) -> dict:
    """Per-name self time, calls and failures from one span file, plus the
    root span's duration and the part of it no child span covers."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    covered = [0.0] * len(spans)
    dixon_parents = set()
    for name, start, end, parent, ok in spans:
        if parent != ROOT:
            covered[parent] += end - start
            if name == "chartab.dixon_character_table":
                dixon_parents.add(parent)
    per_name: dict[str, dict] = {}
    for i, (name, start, end, parent, ok) in enumerate(spans):
        entry = per_name.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                           "calls": 0, "failed": 0})
        entry["self_s"] += (end - start) - covered[i]
        entry["total_s"] += end - start
        entry["calls"] += 1
        entry["failed"] += not ok
    # Character-table lookups that did not reach Dixon are cache hits.
    lookups = [i for i, s in enumerate(spans) if s[0] == "chartab.character_table"]
    hits = sum(i not in dixon_parents for i in lookups)
    root = header["root"]
    out = {"header": header, "per_name": per_name,
           "cache_lookups": len(lookups), "cache_hits": hits}
    if root is not None:
        name, start, end, parent, ok = spans[root]
        out["root_s"] = end - start
        out["unattributed_s"] = (end - start) - covered[root]
    return out
