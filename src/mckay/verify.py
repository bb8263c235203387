"""The acceptance checks, each packaged as a function returning a check
record {name, statement, pass, witness}.  The CLI `all` command runs the
whole battery; the test suite asserts each record individually.

Everything here is exact: a check passes only when the stated identity holds
on the nose, so there are no tolerances to calibrate.
"""

from __future__ import annotations

import random

from . import bgp
from .chartab import CharacterTable, dixon_character_table, dixon_prime
from .groups import MatrixGroup, build_group, parse_descriptor
from .heights import (HeightFunction, enumerate_heights, ext_vanishing_check,
                      kirillov_check)
from .ktheory import (basis_change_unimodular, cartan_matrix, flipped_classes,
                      gram_matrix, projective_classes, simple_family,
                      twist_matches_flip, verify_dual_bases, weyl_checks)
from .mckaygraph import McKayGraph, mckay_graph
from .molien import HomDims, graded_dim_Bh, koszul_check, molien_matrices
from .preproj import (GradedDims, ext_algebra_presentation, preprojective_presentation,
                      presentations_match, quadratic_dual, truncated_hilbert,
                      truncated_koszul_check)

ADE_EXPECTATIONS = (
    [(f"cyclic:{n}", f"A{n - 1}~") for n in range(2, 13)]
    + [("bd:1", "A3~")] + [(f"bd:{n}", f"D{n + 2}~") for n in range(2, 7)]
    + [("2T", "E6~"), ("2O", "E7~"), ("2I", "E8~")]
)

KOSZUL_GROUPS = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
                 "bd:2", "bd:3", "2T"]

QUIVER_GROUPS = ["cyclic:2", "cyclic:4", "bd:2"]          # A1~, A3~, D4~
HILBERT_GROUPS = ["cyclic:2", "cyclic:3", "cyclic:4", "bd:2"]  # + A2~

# The battery's fixed parameters; the statements below quote them.
WINDOW = 2           # height window of criteria 4, 5, 6, 8 and 9
EXT_TWIST = 5        # criterion 5: tangent twists checked
HILBERT_DEGREE = 6   # criterion 6: truncation degree
BGP_SAMPLES = 100    # criterion 8: seeded representations per orientation
BGP_SEED = 13

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
    return {"name": name, "statement": statement, "pass": bool(ok), "witness": witness}


def check_ade_classification() -> dict:
    """Criterion 1: family-by-family affine ADE types and imaginary roots."""
    witness = []
    for label, expected in ADE_EXPECTATIONS:
        _, table, graph, _ = context(label)
        got = graph.classification.label
        good = got == expected and graph.delta == graph.dims
        if not good:
            witness.append({"group": label, "expected": expected, "got": got,
                            "delta": graph.delta, "dims": graph.dims})
    return _record(
        "ade-classification",
        "each finite SL2 subgroup's multiplicity graph is the expected affine "
        "ADE diagram and the Cartan null vector equals the irrep dimensions",
        not witness, witness or None)


def check_koszul() -> dict:
    """Criterion 2: the exact rational-function identity S(t) * E(-t) = Id,
    checked as P(t) * E(-t) = delta(t) * Id over the common denominator."""
    witness = []
    for label in KOSZUL_GROUPS:
        group, table, _, _ = context(label)
        good, bad = koszul_check(molien_matrices(group, table))
        if not good:
            witness.append({"group": label, "witness": bad})
    return _record(
        "koszul-criterion",
        "the symmetric-power and exterior-power Molien matrices satisfy "
        "S(t) * E(-t) = Id as exact rational functions",
        not witness, witness or None)


def check_chartab_soundness() -> dict:
    """Criterion 3: orthogonality, Galois action, dimension sums, primes.
    `dixon_character_table` verifies every table it returns, the context's
    and the second prime's, by the row relation with one row per class,
    which gives the column relation too (`verify_table`), so what is left
    to check is their equality."""
    witness = []
    for label, _ in ADE_EXPECTATIONS:
        group, table, _, _ = context(label)
        second = dixon_prime(group.exponent(), group.order, after=table.prime)
        retry = dixon_character_table(group, prime=second)
        if retry.values != table.values or retry.dims != table.dims:
            witness.append({"group": label, "error": "tables differ between primes",
                            "primes": [table.prime, second]})
    return _record(
        "character-table-soundness",
        "both orthogonality relations and sum d_i^2 = |G| hold exactly, and a "
        "second valid prime reproduces the identical canonical table",
        not witness, witness or None)


def check_kirillov() -> dict:
    """Criterion 4: path counts equal Hom dimensions for every ordered pair."""
    witness = []
    for label in QUIVER_GROUPS:
        _, _, graph, hd = context(label)
        for h in enumerate_heights(graph, WINDOW):
            good, rows = kirillov_check(h, hd)
            if not good:
                witness.append({"group": label, "height": list(h.values),
                                "rows": [r for r in rows if not r["ok"]]})
    return _record(
        "path-hom-identity",
        "for every canonical height, directed path counts in the downhill "
        "quiver equal the equivariant Hom dimensions, all ordered pairs",
        not witness, witness or None)


def check_ext_vanishing() -> dict:
    """Criterion 5: no first Ext between twisted projectives."""
    witness = []
    for label in ["cyclic:4", "bd:2"]:
        _, _, graph, hd = context(label)
        for h in enumerate_heights(graph, WINDOW):
            good, bad = ext_vanishing_check(h, hd, EXT_TWIST)
            if not good:
                witness.append({"group": label, "height": list(h.values), "bad": bad})
    return _record(
        "ext-vanishing",
        "first Ext groups between height projectives vanish through tangent "
        f"twist {EXT_TWIST} on every canonical height",
        not witness, witness or None)


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


def check_hilbert_match() -> dict:
    """Criterion 6: preprojective graded dimensions equal the Molien table,
    and the height regrading reproduces the same numbers."""
    witness = []
    for label in HILBERT_GROUPS:
        _, _, graph, hd = context(label)
        dims = truncated_hilbert(preprojective_presentation(graph), HILBERT_DEGREE)
        rows = hilbert_mismatches(graph, hd, dims)
        if graph.parity is not None:
            for h in enumerate_heights(graph, WINDOW):
                rows += regraded_mismatches(hd, h, dims)
        witness += [{"group": label, **row} for row in rows]
    return _record(
        "preprojective-molien-match",
        "truncated path-algebra dimensions of the preprojective quotient "
        "equal the invariant-theory dimensions through degree "
        f"{HILBERT_DEGREE}, in both the path grading and the height regrading",
        not witness, witness or None)


def check_quadratic_duality() -> dict:
    """Criterion 7: double dual is the identity; the dual of the Ext algebra
    presentation is the preprojective presentation."""
    witness = []
    for label in ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "bd:2"]:
        _, _, graph, _ = context(label)
        pre = preprojective_presentation(graph)
        ext = ext_algebra_presentation(graph)
        dual = quadratic_dual(ext)
        if not presentations_match(quadratic_dual(dual), ext):
            witness.append({"group": label, "error": "double dual differs"})
        if not presentations_match(dual, pre):
            witness.append({"group": label,
                            "error": "dual of Ext presentation != preprojective"})
        good, bad = truncated_koszul_check(pre, 6)
        if not good:
            witness.append({"group": label, "error": "truncated Poincare identity",
                            "witness": bad})
    return _record(
        "quadratic-duality",
        "the annihilator construction is an involution and sends the Ext "
        "presentation to the preprojective presentation",
        not witness, witness or None)


def check_bgp() -> dict:
    """Criterion 8: reflected dimension vectors and round-trip isomorphisms
    on seeded random representations for every canonical orientation.  A
    draw is admitted when its assembled map at v has rank d_v, read off the
    reflection: the new dimension is (far dimensions summed) - rank, and a
    sum below d_v is refused without an elimination."""
    witness = []
    rng = random.Random(BGP_SEED)
    for label in ["cyclic:4", "bd:2"]:
        _, _, graph, _ = context(label)
        n_matrix = [list(row) for row in graph.n]
        for quiver in dict.fromkeys(h.quiver() for h in enumerate_heights(graph, WINDOW)):
            sinks = quiver.sinks()
            candidates = list(sinks) + list(quiver.sources())
            for k in range(BGP_SAMPLES):
                vertex = candidates[k % len(candidates)]
                is_sink = vertex in sinks
                reflect = bgp.reflect_plus if is_sink else bgp.reflect_minus
                far = [a.src + a.tgt - vertex for a in quiver.arrows
                       if vertex in (a.src, a.tgt)]
                rep = None
                for _ in range(60):
                    cand = bgp.random_representation(quiver, rng)
                    excess = sum(cand.dims[u] for u in far) - cand.dims[vertex]
                    if excess >= 0:
                        reflected = reflect(cand, vertex)
                        if reflected.dims[vertex] == excess:
                            rep = cand
                            break
                if rep is None:
                    witness.append({"group": label, "error": "no admissible sample"})
                    continue
                expected = bgp.dim_vector_reflect(rep.dims, vertex, n_matrix)
                if reflected.dims != expected:
                    witness.append({"group": label, "vertex": vertex,
                                    "dims": rep.dims, "got": reflected.dims,
                                    "expected": expected})
                if is_sink and bgp.round_trip_from(rep, reflected, vertex) is None:
                    witness.append({"group": label, "vertex": vertex,
                                    "dims": rep.dims,
                                    "error": "no invertible intertwiner"})
    return _record(
        "bgp-reflections",
        "reflection functors act on dimension vectors by simple reflections, "
        "and reflecting twice at a sink is isomorphic to the identity",
        not witness, witness or None)


def lattice_failures(graph: McKayGraph, hd: HomDims, h: HeightFunction) -> list[dict]:
    """Failures at one height of the Cartan form on simple classes, the dual
    bases, and the twist-flip agreement at every source and sink.  The
    height's family and its Cartan matrix are built once, each twist reads
    its coefficients off that matrix, and each flipped family is built once
    from the height's projectives with the one flipped row rebuilt."""
    proj = projective_classes(hd, h)
    family = simple_family(h, proj)
    gram = gram_matrix(hd, graph.size)
    cartan = cartan_matrix(gram, family)
    rows = [{"height": list(h.values), "entry": [i, j], "error": "cartan form mismatch"}
            for i, row in enumerate(cartan)
            for j, value in enumerate(row) if value != graph.cartan[i][j]]
    if not verify_dual_bases(gram, proj, family):
        rows.append({"height": list(h.values), "error": "dual bases fail"})
    quiver = h.quiver()
    steps = [(v, -2) for v in quiver.sources()] + [(v, 2) for v in quiver.sinks()]
    for vertex, step in steps:
        flipped = h.with_value(vertex, h.values[vertex] + step)
        if not twist_matches_flip(cartan, family, vertex, simple_family(
                flipped, flipped_classes(hd, proj, flipped, vertex))):
            rows.append({"height": list(h.values), "vertex": vertex,
                         "error": "twist does not match flip"})
    return rows


def check_lattice() -> dict:
    """Criterion 9: Cartan form on simple classes, dual bases, twist-flip
    agreement, and the Weyl relations."""
    witness = []
    for label in QUIVER_GROUPS:
        _, _, graph, hd = context(label)
        heights = enumerate_heights(graph, WINDOW)
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
