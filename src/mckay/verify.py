"""The acceptance checks, each packaged as a function returning a check
record {name, statement, pass, witness}.  The CLI `all` command runs the
whole battery; the test suite asserts each record individually.

Everything here is exact: a check passes only when the stated identity holds
on the nose, so there are no tolerances to calibrate.
"""

from __future__ import annotations

import random

from . import bgp
from .chartab import CharacterTable, dixon_character_table, dixon_prime, verify_table
from .errors import ConsistencyError
from .groups import MatrixGroup, build_group, parse_descriptor
from .heights import (HeightFunction, enumerate_heights, ext_vanishing_check,
                      kirillov_check)
from .ktheory import (basis_change_unimodular, cartan_form, simple_family,
                      verify_dual_bases, verify_twist_vs_flip, weyl_checks)
from .mckaygraph import McKayGraph, canonical_label, mckay_graph
from .molien import HomDims, graded_dim_Bh, koszul_check, molien_matrices
from .preproj import (GradedDims, ext_algebra_presentation, preprojective_presentation,
                      presentations_match, quadratic_dual, truncated_hilbert,
                      truncated_koszul_check)

ADE_EXPECTATIONS = (
    [(f"cyclic:{n}", f"A{n - 1}~") for n in range(2, 13)]
    + [(f"bd:{n}", f"D{n + 2}~") for n in range(1, 7)]
    + [("2T", "E6~"), ("2O", "E7~"), ("2I", "E8~")]
)

KOSZUL_GROUPS = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
                 "bd:2", "bd:3", "2T"]

QUIVER_GROUPS = ["cyclic:2", "cyclic:4", "bd:2"]          # A1~, A3~, D4~
HILBERT_GROUPS = ["cyclic:2", "cyclic:3", "cyclic:4", "bd:2"]  # + A2~

_context_cache: dict[str, tuple[MatrixGroup, CharacterTable, McKayGraph, HomDims]] = {}


def context(label: str):
    """(group, table, graph, hom dims) for a descriptor, cached per process."""
    got = _context_cache.get(label)
    if got is None:
        group = build_group(parse_descriptor(label))
        table = dixon_character_table(group)
        graph = mckay_graph(group, table)
        got = (group, table, graph, HomDims(group, table))
        _context_cache[label] = got
    return got


def _record(name: str, statement: str, ok: bool, witness=None) -> dict:
    rec = {"name": name, "statement": statement, "pass": bool(ok)}
    rec["witness"] = witness
    return rec


def check_ade_classification() -> dict:
    """Criterion 1: family-by-family affine ADE types and imaginary roots."""
    witness = []
    ok = True
    for label, expected in ADE_EXPECTATIONS:
        _, table, graph, _ = context(label)
        got = graph.classification.label
        good = (got == canonical_label(expected)
                and graph.delta == graph.dims)
        if not good:
            ok = False
            witness.append({"group": label, "expected": expected, "got": got,
                            "delta": graph.delta, "dims": graph.dims})
    return _record(
        "ade-classification",
        "each finite SL2 subgroup's multiplicity graph is the expected affine "
        "ADE diagram and the Cartan null vector equals the irrep dimensions",
        ok, witness or None)


def check_koszul() -> dict:
    """Criterion 2: exact rational-function identity S(t) * E(-t) = Id."""
    witness = []
    ok = True
    for label in KOSZUL_GROUPS:
        group, table, _, _ = context(label)
        good, bad = koszul_check(molien_matrices(group, table))
        if not good:
            ok = False
            witness.append({"group": label, "witness": bad})
    return _record(
        "koszul-criterion",
        "the symmetric-power and exterior-power Molien matrices satisfy "
        "S(t) * E(-t) = Id as exact rational functions",
        ok, witness or None)


def check_chartab_soundness() -> dict:
    """Criterion 3: orthogonality, dimension sums, and prime independence."""
    witness = []
    ok = True
    for label, _ in ADE_EXPECTATIONS:
        group, table, _, _ = context(label)
        try:
            verify_table(table, group)
        except ConsistencyError as exc:
            ok = False
            witness.append({"group": label, "error": str(exc)})
            continue
        second = dixon_prime(group.exponent(), group.order, after=table.prime)
        retry = dixon_character_table(group, prime=second)
        if retry.values != table.values or retry.dims != table.dims:
            ok = False
            witness.append({"group": label, "error": "tables differ between primes",
                            "primes": [table.prime, second]})
    return _record(
        "character-table-soundness",
        "both orthogonality relations and sum d_i^2 = |G| hold exactly, and a "
        "second valid prime reproduces the identical canonical table",
        ok, witness or None)


def check_kirillov(window: int = 2) -> dict:
    """Criterion 4: path counts equal Hom dimensions for every ordered pair."""
    witness = []
    ok = True
    for label in QUIVER_GROUPS:
        _, _, graph, hd = context(label)
        for h in enumerate_heights(graph, window):
            good, rows = kirillov_check(h, hd)
            if not good:
                ok = False
                witness.append({"group": label, "height": list(h.values),
                                "rows": [r for r in rows if not r["ok"]]})
    return _record(
        "path-hom-identity",
        "for every canonical height, directed path counts in the downhill "
        "quiver equal the equivariant Hom dimensions, all ordered pairs",
        ok, witness or None)


def check_ext_vanishing(d_max: int = 5, window: int = 2) -> dict:
    """Criterion 5: no first Ext between twisted projectives."""
    witness = []
    ok = True
    for label in ["cyclic:4", "bd:2"]:
        _, _, graph, hd = context(label)
        for h in enumerate_heights(graph, window):
            good, bad = ext_vanishing_check(h, hd, d_max)
            if not good:
                ok = False
                witness.append({"group": label, "height": list(h.values), "bad": bad})
    return _record(
        "ext-vanishing",
        "first Ext groups between height projectives vanish through tangent "
        "twist 5 on every canonical height",
        ok, witness or None)


def hilbert_mismatches(graph: McKayGraph, hd: HomDims, dims: GradedDims) -> list[dict]:
    """Entries where the truncated preprojective dimensions differ from the
    Molien Hom dimensions."""
    nv = graph.size
    rows = []
    for d in range(dims.max_degree + 1):
        for i in range(nv):
            for j in range(nv):
                if dims.dim(i, j, d) != hd.hom_dim(i, j, d):
                    rows.append({"entry": [i, j, d], "hilbert": dims.dim(i, j, d),
                                 "molien": hd.hom_dim(i, j, d)})
    return rows


def regraded_mismatches(hd: HomDims, h: HeightFunction, dims: GradedDims) -> list[dict]:
    """Entries where the height regrading differs from the path grading."""
    nv = len(h.values)
    rows = []
    for d in range(dims.max_degree + 1):
        for i in range(nv):
            for j in range(nv):
                expected = dims.dim(i, j, d)
                got = graded_dim_Bh(hd, h, i, j, d)
                if got != expected:
                    rows.append({"height": list(h.values), "entry": [i, j, d],
                                 "regraded": got, "path_graded": expected})
    return rows


def check_hilbert_match(max_degree: int = 6, window: int = 2) -> dict:
    """Criterion 6: preprojective graded dimensions equal the Molien table,
    and the height regrading reproduces the same numbers."""
    witness = []
    for label in HILBERT_GROUPS:
        _, _, graph, hd = context(label)
        dims = truncated_hilbert(preprojective_presentation(graph), max_degree)
        rows = hilbert_mismatches(graph, hd, dims)
        if graph.parity is not None:
            for h in enumerate_heights(graph, window):
                rows += regraded_mismatches(hd, h, dims)
        witness += [{"group": label, **row} for row in rows]
    return _record(
        "preprojective-molien-match",
        "truncated path-algebra dimensions of the preprojective quotient "
        "equal the invariant-theory dimensions through degree 6, in both the "
        "path grading and the height regrading",
        not witness, witness or None)


def check_quadratic_duality() -> dict:
    """Criterion 7: double dual is the identity; the dual of the Ext algebra
    presentation is the preprojective presentation."""
    witness = []
    ok = True
    for label in ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "bd:2"]:
        _, _, graph, _ = context(label)
        pre = preprojective_presentation(graph)
        ext = ext_algebra_presentation(graph)
        double = quadratic_dual(quadratic_dual(ext))
        if not presentations_match(double, ext):
            ok = False
            witness.append({"group": label, "error": "double dual differs"})
        if not presentations_match(quadratic_dual(ext), pre):
            ok = False
            witness.append({"group": label,
                            "error": "dual of Ext presentation != preprojective"})
        good, bad = truncated_koszul_check(pre, 6)
        if not good:
            ok = False
            witness.append({"group": label, "error": "truncated Poincare identity",
                            "witness": bad})
    return _record(
        "quadratic-duality",
        "the annihilator construction is an involution and sends the Ext "
        "presentation to the preprojective presentation",
        ok, witness or None)


def check_bgp(reps_per_orientation: int = 100, seed: int = 13) -> dict:
    """Criterion 8: reflected dimension vectors and round-trip isomorphisms
    on seeded random representations for every canonical orientation."""
    witness = []
    ok = True
    rng = random.Random(seed)
    for label in ["cyclic:4", "bd:2"]:
        _, _, graph, _ = context(label)
        n_matrix = [list(row) for row in graph.n]
        orientations = []
        seen = set()
        for h in enumerate_heights(graph, 2):
            q = h.quiver()
            if q.arrows not in seen:
                seen.add(q.arrows)
                orientations.append(q)
        for quiver in orientations:
            candidates = list(quiver.sinks()) + list(quiver.sources())
            for k in range(reps_per_orientation):
                vertex = candidates[k % len(candidates)]
                is_sink = vertex in quiver.sinks()
                rep = None
                for _ in range(60):
                    cand = bgp.random_representation(quiver, rng)
                    if bgp.assembled_rank(cand, vertex) == cand.dims[vertex]:
                        rep = cand
                        break
                if rep is None:
                    ok = False
                    witness.append({"group": label, "error": "no admissible sample"})
                    continue
                expected = bgp.dim_vector_reflect(rep.dims, vertex, n_matrix)
                if is_sink:
                    reflected = bgp.reflect_plus(rep, vertex)
                    if reflected.dims != expected:
                        ok = False
                        witness.append({"group": label, "vertex": vertex,
                                        "dims": rep.dims, "got": reflected.dims,
                                        "expected": expected})
                    if bgp.round_trip_isomorphism(rep, vertex) is None:
                        ok = False
                        witness.append({"group": label, "vertex": vertex,
                                        "dims": rep.dims,
                                        "error": "no invertible intertwiner"})
                else:
                    reflected = bgp.reflect_minus(rep, vertex)
                    if reflected.dims != expected:
                        ok = False
                        witness.append({"group": label, "vertex": vertex,
                                        "dims": rep.dims, "got": reflected.dims,
                                        "expected": expected})
    return _record(
        "bgp-reflections",
        "reflection functors act on dimension vectors by simple reflections, "
        "and reflecting twice at a sink is isomorphic to the identity",
        ok, witness or None)


def lattice_failures(graph: McKayGraph, hd: HomDims, h: HeightFunction) -> list[dict]:
    """Failures at one height of the Cartan form on simple classes, the dual
    bases, and the twist-flip agreement at every source and sink."""
    rows = []
    family = simple_family(graph, hd, h)
    for i, a in enumerate(family.classes):
        for j, b in enumerate(family.classes):
            if cartan_form(hd, a, b) != graph.cartan[i][j]:
                rows.append({"height": list(h.values), "entry": [i, j],
                             "error": "cartan form mismatch"})
    if not verify_dual_bases(graph, hd, h):
        rows.append({"height": list(h.values), "error": "dual bases fail"})
    quiver = h.quiver()
    for vertex in list(quiver.sources()) + list(quiver.sinks()):
        if not verify_twist_vs_flip(graph, hd, h, vertex):
            rows.append({"height": list(h.values), "vertex": vertex,
                         "error": "twist does not match flip"})
    return rows


def check_lattice(window: int = 2) -> dict:
    """Criterion 9: Cartan form on simple classes, dual bases, twist-flip
    agreement, and the Weyl relations."""
    witness = []
    for label in QUIVER_GROUPS:
        _, _, graph, hd = context(label)
        heights = enumerate_heights(graph, window)
        for h in heights:
            witness += [{"group": label, **row}
                        for row in lattice_failures(graph, hd, h)]
        if not basis_change_unimodular(graph, hd, heights[0], heights[-1]):
            witness.append({"group": label, "error": "basis change not unimodular"})
        report = weyl_checks(graph)
        if not report["ok"]:
            witness.append({"group": label, "weyl": report})
    return _record(
        "twist-lattice-suite",
        "the symmetrized Euler form on simple classes is the affine Cartan "
        "matrix, projectives and simples are dual bases at every height, "
        "twist reflections reproduce height flips, and the simple "
        "reflections satisfy the affine Weyl relations",
        not witness, witness or None)


ALL_CHECKS = [
    check_ade_classification,
    check_koszul,
    check_chartab_soundness,
    check_kirillov,
    check_ext_vanishing,
    check_hilbert_match,
    check_quadratic_duality,
    check_bgp,
    check_lattice,
]


def run_all() -> list[dict]:
    return [fn() for fn in ALL_CHECKS]
