"""Height functions on a McKay graph, the oriented quivers they induce, and
the numeric identities they satisfy.

A height function takes each vertex to an integer matching its parity mod 2
and stepping by exactly one across every edge.  Edges flow downhill, giving
an acyclic orientation; raising a sink by 2 (or lowering a source by 2)
yields another height with the adjacent arrows reversed.  Canonical
enumeration anchors the affine node at its parity value and bounds the
spread, because heights are an infinite family under global shifts and
every identity checked here is shift-covariant.  The path counts of a
quiver are one matrix, built row by row once per quiver, and the path/Hom
identity reads it against the Hom dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import PreconditionError, ResourceLimitError
from .mckaygraph import McKayGraph, breadth_first

# Partial heights `enumerate_heights` may visit.  The largest enumeration of
# the battery and the tests (cyclic:12, window 4) visits 2,269 for 816 heights.
HEIGHT_CAP = 10_000

# Most heights times n^3 (n the vertex count) a checking command runs over
# all heights; n^3 is the per-height matrix work of `lattice_failures`.
# cyclic:12 at window 4 (816 heights, 1,410,048) is admitted; cyclic:16 at
# window 2 (510 heights, 2,088,960) is refused, and with the cap lifted
# lattice-check takes 2.4-2.5 s there (Python 3.11, 2 vCPU).
HEIGHT_WORK_CAP = 2_000_000


class Arrow(NamedTuple):
    src: int
    tgt: int
    edge: int


@dataclass(frozen=True)
class OrientedQuiver:
    """An orientation of the graph: one arrow per undirected edge copy.  The
    sinks, sources and each reversal are computed once per object; reversal
    at v is an involution, so q.reverse_at(v).reverse_at(v) is q itself."""

    size: int
    arrows: tuple[Arrow, ...]
    _reversed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        has_out, has_in = {a.src for a in self.arrows}, {a.tgt for a in self.arrows}
        return tuple(sorted(has_in - has_out)), tuple(sorted(has_out - has_in))

    def sinks(self) -> tuple[int, ...]:
        return self._ends[0]

    def sources(self) -> tuple[int, ...]:
        return self._ends[1]

    def reverse_at(self, v: int) -> OrientedQuiver:
        got = self._reversed.get(v)
        if got is None:
            got = self._reversed[v] = OrientedQuiver(self.size, tuple(
                Arrow(a.tgt, a.src, a.edge) if v in (a.src, a.tgt) else a for a in self.arrows))
            got._reversed[v] = self
        return got


@dataclass(frozen=True)
class HeightFunction:
    """Integer heights on the vertices of a McKay graph with parity, valid
    by construction: each value matches its vertex's parity and every edge
    joins values one apart."""

    graph: McKayGraph
    values: tuple[int, ...]

    def __post_init__(self):
        parity = self.graph.parity
        if parity is None:
            raise PreconditionError(
                "height functions need vertex parity, so the group must contain -I")
        if len(self.values) != self.graph.size:
            raise PreconditionError("height vector has the wrong length")
        if any((h - p) % 2 for h, p in zip(self.values, parity)) or \
                any(abs(self.values[i] - self.values[j]) != 1 for i, j in self.graph.edges):
            raise PreconditionError(f"invalid height function {self.values}")

    def quiver(self) -> OrientedQuiver:
        """Edges flow downhill: each edge is directed from higher to lower end."""
        h = self.values
        return OrientedQuiver(self.graph.size, tuple(
            Arrow(i, j, idx) if h[i] > h[j] else Arrow(j, i, idx)
            for idx, (i, j) in enumerate(self.graph.edges)))

    def with_value(self, vertex: int, value: int) -> HeightFunction:
        vals = list(self.values)
        vals[vertex] = value
        return HeightFunction(self.graph, tuple(vals))


def enumerate_heights(graph: McKayGraph, window: int) -> list[HeightFunction]:
    """All height functions anchored at the affine node's parity value whose
    spread max(h) - min(h) is at most the window.  Refused with
    `ResourceLimitError` once the search visits more than HEIGHT_CAP partial
    heights."""
    if window < 1:
        raise PreconditionError("window must be at least 1")
    if graph.parity is None:
        raise PreconditionError(
            "height machinery needs vertex parity, so the group must contain -I")
    size = graph.size
    anchor = graph.affine_node
    # BFS vertex order so each new vertex touches an assigned neighbor.
    order = [v for v, _ in breadth_first(graph.n, anchor)]
    if len(order) != size:
        raise PreconditionError("graph is not connected")

    results = []
    values: dict[int, int] = {anchor: graph.parity[anchor]}
    visited = 0

    def extend(pos: int):
        nonlocal visited
        visited += 1
        if visited > HEIGHT_CAP:
            raise ResourceLimitError(
                f"height enumeration at window {window} visits more than "
                f"{HEIGHT_CAP} partial heights")
        if pos == len(order):
            results.append(tuple(values[v] for v in range(size)))
            return
        v = order[pos]
        assigned = [values[w] for w in graph.neighbors(v) if w in values]
        candidates = {assigned[0] + 1, assigned[0] - 1}
        for a in assigned[1:]:
            candidates &= {a + 1, a - 1}
        for cand in sorted(candidates):
            span = [cand] + list(values.values())
            if max(span) - min(span) > window:
                continue
            values[v] = cand
            extend(pos + 1)
            del values[v]

    extend(1)
    return [HeightFunction(graph, vals) for vals in sorted(results)]


def path_counts(quiver: OrientedQuiver) -> list[tuple[int, ...]]:
    """The path-count matrix: entry (i, j) counts the directed paths from i
    to j, parallel arrows separately and the empty path once.  Row i is e_i
    plus the rows of i's arrow targets, each row built once; finite because
    arrows strictly drop height."""
    size = quiver.size
    targets: list[list[int]] = [[] for _ in range(size)]
    for a in quiver.arrows:
        targets[a.src].append(a.tgt)
    rows: dict[int, tuple[int, ...]] = {}

    def row(i: int) -> tuple[int, ...]:
        if i not in rows:
            unit = [int(i == j) for j in range(size)]
            rows[i] = tuple(map(sum, zip(unit, *map(row, targets[i]))))
        return rows[i]

    return [row(i) for i in range(size)]


def kirillov_check(h: HeightFunction, hom_dim) -> tuple[bool, list[dict]]:
    """Path counts against equivariant Hom dimensions, every ordered pair.

    For vertices i, j the number of paths i -> j must equal
    dim Hom(W_j, Sym^{h(i)-h(j)} V* (x) W_i) (zero for negative exponent).
    """
    counts = path_counts(h.quiver())
    size = h.graph.size
    rows = []
    ok = True
    for i in range(size):
        for j in range(size):
            paths = counts[i][j]
            dim = hom_dim(j, i, h.values[i] - h.values[j])
            match = paths == dim
            ok = ok and match
            rows.append({"pair": [i, j], "hom_dim": dim,
                         "path_count": paths, "ok": match})
    return ok, rows


def ext_vanishing_check(h: HeightFunction, hom_dim,
                        d_max: int) -> tuple[bool, list[dict]]:
    """First-ext vanishing between twisted projectives, through twist d_max.

    Serre duality turns each Ext group into a Hom space one tangent twist up,
    so the check is hom_dim(l, k, h(k) - h(l) - 2d - 2) == 0 for all pairs.
    """
    size = h.graph.size
    witnesses = []
    for k in range(size):
        for l in range(size):
            for d in range(d_max + 1):
                dim = hom_dim(l, k, h.values[k] - h.values[l] - 2 * d - 2)
                if dim:
                    witnesses.append({"pair": [k, l], "twist": d, "dim": dim})
    return not witnesses, witnesses
