"""One cold run of one workload, started by run.py in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD --seed N --report PATH
        [--size full|tiny] [--cache-dir DIR] [--trace-out PATH] [--setup-only]
    python3 perfbench/child.py fill-cache --seed N --cache-dir DIR --report PATH

The workload's canonical output goes to stdout (for `battery` it is exactly
what `mckay all` prints).  Timestamps, CPU time and the per-operation
verdicts go to the JSON report, so stdout carries nothing but the program's
output.  `fill-cache` is the set-up process of `series`: it computes the
Dixon character tables and writes them to the cache directory.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import mckay  # noqa: E402,F401  (import cost belongs to set-up)
from mckay import bgp, cli  # noqa: E402
from mckay.chartab import character_table  # noqa: E402
from mckay.groups import build_group, parse_descriptor  # noqa: E402
from mckay.heights import (enumerate_heights, ext_vanishing_check,  # noqa: E402
                           kirillov_check)
from mckay.ktheory import verify_twist_vs_flip, weyl_checks  # noqa: E402
from mckay.mckaygraph import mckay_graph  # noqa: E402
from mckay.molien import HomDims, koszul_check, molien_matrices  # noqa: E402
from mckay.preproj import (preprojective_presentation,  # noqa: E402
                           truncated_hilbert, truncated_koszul_check)

# Inputs per size.  `full` is what the benchmark measures; `tiny` only feeds
# the smoke test.  Degree 12 is left out of `quiver`: truncated_hilbert
# enumerates every path and trips its 20000-path cap there (exit 3).
SIZES = {
    "full": {
        "battery": ["all"],
        "series": {"groups": ["cyclic:12", "bd:6", "2O"], "degree": 12},
        "quiver": {"groups": ["cyclic:2", "cyclic:3", "cyclic:4", "bd:2"],
                   "hilbert_degrees": [6, 8, 10], "koszul_degree": 8,
                   "windows": [2, 3, 4], "ext_twist": 5,
                   "bgp_per_orientation": 40, "searches_per_orientation": 1},
    },
    "tiny": {
        "battery": ["koszul-check", "cyclic:2"],
        "series": {"groups": ["cyclic:3"], "degree": 4},
        "quiver": {"groups": ["cyclic:2"], "hilbert_degrees": [4],
                   "koszul_degree": 4, "windows": [2], "ext_twist": 2,
                   "bgp_per_orientation": 3, "searches_per_orientation": 1},
    },
}

# Random representations tried per sample before giving up, as in the
# acceptance battery's criterion 8.
ADMISSIBLE_TRIES = 60


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Workloads.  Each returns (canonical output document, operation verdicts);
# an operation is {"name": str, "ok": bool} plus a witness when it fails.
# ---------------------------------------------------------------------------

def run_battery(spec):
    """The CLI entry point users run.  `mckay all` has no random input, so
    the seed is only recorded (by run.py)."""
    return cli.main(spec)


def run_series(spec, seed, cache_dir):
    out, ops = [], []
    degree = spec["degree"]
    for label in spec["groups"]:
        group = build_group(parse_descriptor(label))
        table = character_table(group, seed=seed, cache_dir=cache_dir)
        matrices = molien_matrices(group, table)
        koszul_ok, koszul_witness = koszul_check(matrices)
        hd = HomDims(group, table)
        k = table.count
        dims = [[[hd.hom_dim(i, j, d) for j in range(k)] for i in range(k)]
                for d in range(degree + 1)]
        molien = matrices.to_json(degree)
        # S[p][q](t) = sum_m dim Hom(W_q, Sym^m V* x W_p) t^m, so the Molien
        # expansion must equal the character averages entry by entry.
        series = [[[Fraction(c) for c in entry] for entry in row]
                  for row in molien["S_series"]]
        series_ok = all(series[p][q][d] == dims[d][q][p]
                        for d in range(degree + 1)
                        for p in range(k) for q in range(k))
        schur_ok = dims[0] == [[int(i == j) for j in range(k)] for i in range(k)]
        ok = koszul_ok and series_ok and schur_ok
        ops.append({"name": label, "ok": ok,
                    "witness": None if ok else {"koszul": koszul_witness,
                                                "series": series_ok,
                                                "schur": schur_ok}})
        out.append({"group": label, "molien": molien, "koszul": koszul_ok,
                    "hom_dims": dims})
    return out, ops


def _intertwines(a, b, phi_blocks):
    """phi_v . B_arrow == A_arrow . phi_u on every arrow u -> v: phi is a map
    of representations b -> a."""
    for idx, arrow in enumerate(a.quiver.arrows):
        s, t = arrow.src, arrow.tgt
        bm, am = b.maps[idx], a.maps[idx]
        for r in range(a.dims[t]):
            for c in range(b.dims[s]):
                left = sum((phi_blocks[t][r][m] * bm[m][c]
                            for m in range(b.dims[t])), Fraction(0))
                right = sum((am[r][m] * phi_blocks[s][m][c]
                             for m in range(a.dims[s])), Fraction(0))
                if left != right:
                    return False
    return True


def _bgp_sweep(label, graph, spec, rng, seed):
    """Seeded random representations at every sink and source of every
    canonical orientation: the reflected dimension vector is the simple
    reflection of the original, and reflecting there and back is isomorphic
    to the original through an explicit intertwiner.  At a sink the
    intertwiner comes from round_trip_isomorphism; at a source from the
    general search find_isomorphism, which costs about a hundred sink
    samples, so only the first few source samples of an orientation get it."""
    samples = spec["bgp_per_orientation"]
    n_matrix = [list(row) for row in graph.n]
    orientations, seen = [], set()
    for h in enumerate_heights(graph, 2):
        quiver = h.quiver()
        if quiver.arrows not in seen:
            seen.add(quiver.arrows)
            orientations.append(quiver)
    ops = []
    for oi, quiver in enumerate(orientations):
        sinks = quiver.sinks()
        candidates = list(sinks) + list(quiver.sources())
        searches = spec["searches_per_orientation"]
        for k in range(samples):
            vertex = candidates[k % len(candidates)]
            name = f"bgp/{label}/o{oi}/{k}"
            rep = None
            for _ in range(ADMISSIBLE_TRIES):
                cand = bgp.random_representation(quiver, rng)
                if bgp.assembled_rank(cand, vertex) == cand.dims[vertex]:
                    rep = cand
                    break
            if rep is None:
                ops.append({"name": name, "ok": False,
                            "witness": "no admissible sample"})
                continue
            expected = bgp.dim_vector_reflect(rep.dims, vertex, n_matrix)
            if vertex in sinks:
                reflected = bgp.reflect_plus(rep, vertex)
                found = bgp.round_trip_isomorphism(rep, vertex)
                if found is None:
                    iso_ok = False
                else:
                    back, phi = found
                    blocks = [phi if v == vertex else
                              [[Fraction(int(r == c)) for c in range(rep.dims[v])]
                               for r in range(rep.dims[v])]
                              for v in range(quiver.size)]
                    iso_ok = _intertwines(rep, back, blocks)
            else:
                reflected = bgp.reflect_minus(rep, vertex)
                iso_ok = True
                if searches:
                    searches -= 1
                    back = bgp.reflect_plus(reflected, vertex)
                    blocks = bgp.find_isomorphism(rep, back, seed=seed)
                    iso_ok = blocks is not None and _intertwines(rep, back, blocks)
            ok = reflected.dims == expected and iso_ok
            ops.append({"name": name, "ok": ok,
                        "witness": None if ok else
                        {"dims": list(rep.dims), "vertex": vertex,
                         "got": list(reflected.dims), "expected": list(expected),
                         "intertwiner": iso_ok}})
    summary = {"orientations": len(orientations), "samples": len(ops),
               "passed": sum(op["ok"] for op in ops)}
    return summary, ops


def run_quiver(spec, seed):
    out, ops = [], []
    rng = random.Random(seed)
    for label in spec["groups"]:
        group = build_group(parse_descriptor(label))
        table = character_table(group, seed=seed)
        graph = mckay_graph(group, table)
        hd = HomDims(group, table)
        nv = graph.size
        pres = preprojective_presentation(graph)
        doc = {"group": label, "hilbert": {}}
        for degree in spec["hilbert_degrees"]:
            dims = truncated_hilbert(pres, degree)
            bad = [[i, j, d] for d in range(degree + 1) for i in range(nv)
                   for j in range(nv) if dims.dim(i, j, d) != hd.hom_dim(i, j, d)]
            ops.append({"name": f"hilbert/{label}/{degree}", "ok": not bad,
                        "witness": bad or None})
            doc["hilbert"][str(degree)] = dims.to_json()["dims"]
        kdeg = spec["koszul_degree"]
        good, witness = truncated_koszul_check(pres, kdeg)
        ops.append({"name": f"koszul/{label}/{kdeg}", "ok": good,
                    "witness": witness})
        doc["koszul"] = good
        if graph.parity is not None:
            doc["heights"] = {}
            for window in spec["windows"]:
                heights = enumerate_heights(graph, window)
                doc["heights"][str(window)] = [list(h.values) for h in heights]
                for h in heights:
                    kir_ok, _ = kirillov_check(h, hd)
                    ext_ok, _ = ext_vanishing_check(h, hd, spec["ext_twist"])
                    quiver = h.quiver()
                    twist_ok = all(verify_twist_vs_flip(graph, hd, h, v)
                                   for v in quiver.sources() + quiver.sinks())
                    ok = kir_ok and ext_ok and twist_ok
                    tag = ",".join(map(str, h.values))
                    ops.append({"name": f"height/{label}/{window}/{tag}", "ok": ok,
                                "witness": None if ok else
                                {"kirillov": kir_ok, "ext": ext_ok,
                                 "twist": twist_ok}})
            weyl = weyl_checks(graph, seed=seed)
            ops.append({"name": f"weyl/{label}", "ok": weyl["ok"],
                        "witness": None if weyl["ok"] else weyl})
            doc["weyl"] = weyl["ok"]
            summary, bgp_ops = _bgp_sweep(label, graph, spec, rng, seed)
            ops.extend(bgp_ops)
            doc["bgp"] = summary
        out.append(doc)
    return out, ops


def fill_cache(spec, seed, cache_dir):
    for label in spec["groups"]:
        character_table(build_group(parse_descriptor(label)), seed=seed,
                        cache_dir=cache_dir)


def start_trace(path, run_id):
    """A Tracer installed over the mckay modules, or None when not tracing."""
    if not path:
        return None
    import tracer
    active = tracer.Tracer(run_id=run_id)
    active.install()
    return active


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload",
                        choices=("battery", "series", "quiver", "fill-cache"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--report", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sizes = SIZES[args.size]

    if args.workload == "fill-cache":
        tracer = start_trace(args.trace_out, f"fill-cache-{args.seed}")
        fill_cache(sizes["series"], args.seed, args.cache_dir)
        t_done = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.trace_out, root=None)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"t_start": T_START, "t_done": t_done}, fh)
        return 0

    spec = sizes[args.workload]
    t_ready = time.monotonic()
    cpu_ready = cpu_seconds()
    report = {"t_start": T_START, "t_ready": t_ready}
    if args.setup_only:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    tracer = start_trace(args.trace_out, f"{args.workload}-{args.seed}")
    if tracer is not None:
        root = tracer.open_root("workload")

    ops = None
    if args.workload == "battery":
        code = run_battery(spec)
        sys.stdout.flush()
    else:
        if args.workload == "series":
            doc, ops = run_series(spec, args.seed, args.cache_dir)
        else:
            doc, ops = run_quiver(spec, args.seed)
        sys.stdout.write(dump(doc) + "\n")
        sys.stdout.flush()
        code = 0

    t_done = time.monotonic()
    cpu_done = cpu_seconds()
    if tracer is not None:
        tracer.close_root(root)
        tracer.uninstall()
        tracer.write(args.trace_out, root=root)
    report.update({"t_done": t_done, "cpu_s": cpu_done - cpu_ready, "ops": ops})
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
