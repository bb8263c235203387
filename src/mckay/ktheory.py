"""Lattice shadow of the zero-section category: classes of the twisted
projectives and of the simple spherical objects, the Euler pairing on the
projective line, its symmetrization (the affine Cartan form), reflection by
spherical twists, and the check that twists realize height flips.

Classes live in the free abelian group on symbols (irreducible, twist); the
single relation family coming from the Euler sequence is never imposed.
Instead, equality is decided by pairing against a fixed probe set (the
parity-height projectives and their degree-one twists), which separates the
classes in play.  The simple classes at every height are read off that
height's own downhill quiver, from the projective resolution of a vertex
simple over its path algebra; the dual-basis check pairs them against the
height's projectives.  Everything here is integer arithmetic: the basis
change between two heights reads coordinates off the dual pairing, and the
Weyl relations are exact integer matrix identities.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .errors import PreconditionError, ResourceLimitError
from .heights import HeightFunction, parity_height
from .mckaygraph import McKayGraph
from .molien import HomDims

#: Most flips a height may lie from the parity height.
FLIP_CAP = 10000


class P1Class:
    """Finitely supported integer combination of symbols (irrep, twist)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {k: v for k, v in (terms or {}).items() if v}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("P1Class is immutable")

    @staticmethod
    def symbol(irrep: int, twist: int) -> P1Class:
        return P1Class({(irrep, twist): 1})

    def __add__(self, other: P1Class) -> P1Class:
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return P1Class(out)

    def __sub__(self, other: P1Class) -> P1Class:
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return P1Class(out)

    def __neg__(self) -> P1Class:
        return P1Class({k: -v for k, v in self.terms.items()})

    def __mul__(self, scalar: int) -> P1Class:
        return P1Class({k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, P1Class):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def twist(self, amount: int) -> P1Class:
        return P1Class({(i, d + amount): v for (i, d), v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "P1Class(0)"
        bits = [f"{v}*[W{i}({d})]" for (i, d), v in sorted(self.terms.items())]
        return "P1Class(" + " + ".join(bits) + ")"


def euler_char(hd: HomDims, x: P1Class, y: P1Class) -> int:
    """Euler pairing, extended bilinearly from
    chi([W_i(a)], [W_j(b)]) = hom(i, j, b - a) - hom(j, i, a - b - 2):
    Hom minus Ext^1, the latter rewritten by Serre duality with the twist -2.
    """
    total = 0
    for (i, a), u in x.terms.items():
        for (j, b), v in y.terms.items():
            total += u * v * (hd.hom_dim(i, j, b - a) - hd.hom_dim(j, i, a - b - 2))
    return total


def projective_class(h: HeightFunction, k: int) -> P1Class:
    return P1Class.symbol(k, h.values[k])


@lru_cache(maxsize=32)
def probe_set(graph: McKayGraph) -> tuple[P1Class, ...]:
    """Parity-height projectives and their degree-one twists; pairing against
    these separates every class this module manipulates.  Built once per
    graph."""
    base = parity_height(graph)
    probes = [projective_class(base, k) for k in range(graph.size)]
    return tuple(probes + [p.twist(1) for p in probes])


def classes_equal(hd: HomDims, graph: McKayGraph, x: P1Class, y: P1Class) -> bool:
    """Equality on the probe set: x - y pairs to 0 against every probe."""
    diff = x - y
    return all(euler_char(hd, p, diff) == 0 for p in probe_set(graph))


def simple_family(h: HeightFunction) -> tuple[P1Class, ...]:
    """Classes of the vertex simples at height h, read off the downhill
    quiver Q_h: over its path algebra each simple has the projective
    resolution 0 -> (+)_{i->j} P_j -> P_i -> S_i -> 0, so
    [S_i] = [P_i(h)] - sum over arrows i -> j of [P_j(h)].

    A height more than FLIP_CAP flips from the parity height (half the L1
    distance) is refused before any class is paired.
    """
    flips = sum(abs(a - b) for a, b in zip(h.values, h.graph.parity)) // 2
    if flips > FLIP_CAP:
        raise ResourceLimitError(
            f"the height lies {flips} flips from the parity height, above the cap {FLIP_CAP}")
    quiver = h.quiver()
    return tuple(sum((-projective_class(h, a.tgt) for a in quiver.arrows_from(i)),
                     projective_class(h, i))
                 for i in range(h.graph.size))


def cartan_form(hd: HomDims, x: P1Class, y: P1Class) -> int:
    """Symmetrized Euler pairing: the Euler form of zero-section pushforwards."""
    return euler_char(hd, x, y) + euler_char(hd, y, x)


def twist_class(hd: HomDims, family: tuple[P1Class, ...], vertex: int,
                x: P1Class) -> P1Class:
    """Reflection of any class x in the hyperplane of one simple:
    x - <[E_vertex], x> [E_vertex] under the symmetrized form."""
    e = family[vertex]
    return x - cartan_form(hd, e, x) * e


def verify_dual_bases(graph: McKayGraph, hd: HomDims, h: HeightFunction) -> bool:
    """Pairing of height-h projectives against height-h simples must be the
    identity matrix."""
    family = simple_family(h)
    return all(euler_char(hd, projective_class(h, k), cls) == int(i == k)
               for k in range(graph.size) for i, cls in enumerate(family))


def verify_twist_vs_flip(graph: McKayGraph, hd: HomDims, h: HeightFunction,
                         vertex: int) -> bool:
    """The reflection computed from the Euler form must give the simples of
    the flipped height, each read off its own quiver: twisting at a source
    realizes the simples at h - 2e_vertex, inverse-twisting at a sink those
    at h + 2e_vertex."""
    quiver = h.quiver()
    if vertex in quiver.sources():
        step = -2
    elif vertex in quiver.sinks():
        step = 2
    else:
        raise PreconditionError(f"vertex {vertex} is neither source nor sink")
    family = simple_family(h)
    flipped = simple_family(h.with_value(vertex, h.values[vertex] + step))
    return all(classes_equal(hd, graph, twist_class(hd, family, vertex, cls), want)
               for cls, want in zip(family, flipped))


def basis_change_unimodular(graph: McKayGraph, hd: HomDims,
                            h1: HeightFunction, h2: HeightFunction) -> bool:
    """The simple classes of two heights span the same lattice, so they
    differ by an invertible integer matrix.  A class x in the span of the
    simples at h has coefficient chi(P_k(h), x) on S_k(h) by the dual
    pairing, so x lies in that span exactly when it equals the sum those
    coefficients give; both containments are checked."""
    def spans(h, classes):
        family = simple_family(h)
        return all(classes_equal(hd, graph, x, sum(
            (euler_char(hd, projective_class(h, k), x) * cls for k, cls in enumerate(family)),
            P1Class())) for x in classes)

    return spans(h1, simple_family(h2)) and spans(h2, simple_family(h1))


# ---------------------------------------------------------------------------
# Weyl group checks on the abstract lattice
# ---------------------------------------------------------------------------

def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def weyl_checks(graph: McKayGraph, seed: int = 5) -> dict:
    """Reflection identities on the root lattice in the simple-class basis,
    each an exact integer matrix identity: s_i^2 = I, s_i delta = delta,
    s_i^T C s_i = C (the form is invariant on every pair of vectors), the
    braid relation (s_i s_j)^3 = I on each single edge, and no order up to
    12 for s_i s_j across the double edge.  The seed is unused; it stays
    for callers that pass it.
    """
    if not graph.classification.is_ade:
        raise PreconditionError("Weyl checks need an affine ADE graph")
    n = graph.size
    cartan = [list(row) for row in graph.cartan]
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    # s_i x = x - (C x)_i e_i: the identity with C's row i taken off row i.
    refls = [[[ident[r][c] - (cartan[i][c] if r == i else 0) for c in range(n)]
              for r in range(n)] for i in range(n)]
    delta = [[d] for d in graph.delta]
    report: dict = {
        "squares": all(_mul(s, s) == ident for s in refls),
        "braid3": [], "double_edge_infinite": None,
        "delta_fixed": all(_mul(s, delta) == delta for s in refls),
        "form_preserved": all(_mul(_mul(list(zip(*s)), cartan), s) == cartan
                              for s in refls)}
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.n[i][j]:
                continue
            prod = _mul(refls[i], refls[j])
            if graph.n[i][j] == 1:
                report["braid3"].append(
                    {"pair": [i, j], "ok": _mul(_mul(prod, prod), prod) == ident})
            else:
                report["double_edge_infinite"] = ident not in accumulate([prod] * 12, _mul)
    report["ok"] = (report["squares"] and report["delta_fixed"]
                    and report["form_preserved"]
                    and all(item["ok"] for item in report["braid3"])
                    and report["double_edge_infinite"] is not False)
    return report
