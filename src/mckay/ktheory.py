"""Lattice shadow of the zero-section category: classes of the twisted
projectives and of the simple spherical objects, the Euler pairing on the
projective line, its symmetrization (the affine Cartan form), reflection by
spherical twists, and the bookkeeping that ties twists to height flips.

Classes live in the free abelian group on symbols (irreducible, twist); the
single relation family coming from the Euler sequence is never imposed.
Instead, equality is decided by pairing against a fixed probe set (the
parity-height projectives and their degree-one twists), which separates the
classes in play.  The base family of simple classes at the parity height
comes from the projective resolution of a vertex simple over a path algebra
and is then checked against its defining duality system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ConsistencyError, PreconditionError
from .heights import HeightFunction, flip_path, parity_height
from .mckaygraph import McKayGraph
from .molien import HomDims


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

    def to_json(self):
        return [[i, d, v] for (i, d), v in sorted(self.terms.items())]

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


def probe_set(graph: McKayGraph) -> list[P1Class]:
    """Parity-height projectives and their degree-one twists; pairing against
    these separates every class this module manipulates."""
    base = parity_height(graph)
    probes = [projective_class(base, k) for k in range(graph.size)]
    probes += [p.twist(1) for p in probes]
    return probes


def probe_vector(hd: HomDims, graph: McKayGraph, x: P1Class) -> tuple[int, ...]:
    return tuple(euler_char(hd, p, x) for p in probe_set(graph))


def classes_equal(hd: HomDims, graph: McKayGraph, x: P1Class, y: P1Class) -> bool:
    return probe_vector(hd, graph, x) == probe_vector(hd, graph, y)


@dataclass(frozen=True)
class SimpleFamily:
    """Classes of the simple objects attached to one height function."""

    height: HeightFunction
    classes: tuple[P1Class, ...]
    flips_from_parity: tuple[tuple[int, str], ...]


def parity_family(graph: McKayGraph, hd: HomDims) -> SimpleFamily:
    """Base family at the parity height.

    The class of the vertex simple is projective minus the sum over outgoing
    arrows, from the standard two-step projective resolution over the path
    algebra; the defining duality system (pairing against the projectives is
    the identity) is then verified, and its failure reports a too-small twist
    window.
    """
    base = parity_height(graph)
    quiver = base.quiver()
    classes = []
    for i in range(graph.size):
        cls = projective_class(base, i)
        for arrow in quiver.arrows_from(i):
            cls = cls - projective_class(base, arrow.tgt)
        classes.append(cls)
    family = SimpleFamily(base, tuple(classes), ())
    _assert_duality(graph, hd, family)
    return family


def _assert_duality(graph: McKayGraph, hd: HomDims, family: SimpleFamily) -> None:
    for k in range(graph.size):
        fk = projective_class(family.height, k)
        for i, cls in enumerate(family.classes):
            if euler_char(hd, fk, cls) != (1 if i == k else 0):
                raise ConsistencyError(
                    "duality system unsolvable over the twist window "
                    f"(pair {k}, {i}); enlarge the window")


def flip_family(graph: McKayGraph, family: SimpleFamily, vertex: int,
                direction: str) -> SimpleFamily:
    """Class bookkeeping for one sink/source flip.

    At the flipped vertex the class is negated; neighbors gain the flipped
    class with edge multiplicity; everything else is fixed.  Lowering needs a
    source, raising needs a sink (same rules as height flips).
    """
    from .heights import flip as height_flip

    new_height = height_flip(family.height, vertex, direction)
    n = graph.n
    new_classes = []
    for j, cls in enumerate(family.classes):
        if j == vertex:
            new_classes.append(-cls)
        elif n[vertex][j]:
            new_classes.append(cls + n[vertex][j] * family.classes[vertex])
        else:
            new_classes.append(cls)
    return SimpleFamily(new_height, tuple(new_classes),
                        family.flips_from_parity + ((vertex, direction),))


def simple_family(graph: McKayGraph, hd: HomDims, h: HeightFunction) -> SimpleFamily:
    """Family at an arbitrary height, reached from the parity height by the
    recorded flip sequence."""
    h.require_valid()
    family = parity_family(graph, hd)
    for vertex, direction in flip_path(family.height, h):
        family = flip_family(graph, family, vertex, direction)
    return family


def cartan_form(hd: HomDims, x: P1Class, y: P1Class) -> int:
    """Symmetrized Euler pairing: the Euler form of zero-section pushforwards."""
    return euler_char(hd, x, y) + euler_char(hd, y, x)


def family_coordinates(hd: HomDims, graph: McKayGraph, family: SimpleFamily,
                       x: P1Class) -> list[Fraction] | None:
    """Coordinates of x in the span of the family's classes, via probes."""
    columns = [probe_vector(hd, graph, cls) for cls in family.classes]
    target = probe_vector(hd, graph, x)
    mat = [[Fraction(columns[j][r]) for j in range(len(columns))]
           for r in range(len(target))]
    return linalg.solve(mat, [Fraction(t) for t in target])


def twist_class(hd: HomDims, graph: McKayGraph, family: SimpleFamily,
                vertex: int, x: P1Class) -> P1Class:
    """Reflection of a class in the hyperplane of one simple:
    x - <[E_vertex], x> [E_vertex] under the symmetrized form."""
    if family_coordinates(hd, graph, family, x) is None:
        raise PreconditionError("class lies outside the span of the simple classes")
    e = family.classes[vertex]
    return x - cartan_form(hd, e, x) * e


def verify_dual_bases(graph: McKayGraph, hd: HomDims, h: HeightFunction) -> bool:
    """Pairing of height-h projectives against height-h simples must be the
    identity matrix."""
    family = simple_family(graph, hd, h)
    for k in range(graph.size):
        fk = projective_class(h, k)
        for i, cls in enumerate(family.classes):
            if euler_char(hd, fk, cls) != (1 if i == k else 0):
                return False
    return True


def verify_twist_vs_flip(graph: McKayGraph, hd: HomDims, h: HeightFunction,
                         vertex: int) -> bool:
    """The reflection computed from the Euler form must match the flip
    recursion computed from the graph: twisting at a source realizes the
    lowered height's simples, inverse-twisting at a sink the raised ones."""
    h.require_valid()
    quiver = h.quiver()
    family = simple_family(graph, hd, h)
    if vertex in quiver.sources():
        flipped = simple_family(graph, hd,
                                h.with_value(vertex, h.values[vertex] - 2))
    elif vertex in quiver.sinks():
        flipped = simple_family(graph, hd,
                                h.with_value(vertex, h.values[vertex] + 2))
    else:
        raise PreconditionError(f"vertex {vertex} is neither source nor sink")
    for j in range(graph.size):
        twisted = twist_class(hd, graph, family, vertex, family.classes[j])
        if not classes_equal(hd, graph, twisted, flipped.classes[j]):
            return False
    return True


def basis_change_unimodular(graph: McKayGraph, hd: HomDims,
                            h1: HeightFunction, h2: HeightFunction) -> bool:
    """The simple classes of two heights differ by an invertible integer
    matrix (they span the same lattice)."""
    fam1 = simple_family(graph, hd, h1)
    fam2 = simple_family(graph, hd, h2)
    cols1 = [probe_vector(hd, graph, c) for c in fam1.classes]
    mat = [[Fraction(cols1[j][r]) for j in range(len(cols1))]
           for r in range(2 * graph.size)]
    change = []
    for cls in fam2.classes:
        target = [Fraction(t) for t in probe_vector(hd, graph, cls)]
        sol = linalg.solve(mat, target)
        if sol is None or any(c.denominator != 1 for c in sol):
            return False
        change.append([int(c) for c in sol])
    inv = linalg.inverse(change)
    return inv is not None and all(x.denominator == 1 for row in inv for x in row)


# ---------------------------------------------------------------------------
# Weyl group checks on the abstract lattice
# ---------------------------------------------------------------------------

def _reflection_matrix(cartan, i: int):
    n = len(cartan)
    mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c in range(n):
        mat[i][c] -= cartan[i][c]
    return mat


def _mat_mul_int(a, b):
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def _is_identity(mat) -> bool:
    return all(mat[r][c] == (1 if r == c else 0)
               for r in range(len(mat)) for c in range(len(mat)))


def weyl_checks(graph: McKayGraph, seed: int = 5, samples: int = 20) -> dict:
    """Reflection identities on the root lattice in the simple-class basis:
    involutions, the single-edge braid relation, infinite order across the
    double edge, invariance of the imaginary root, invariance of the form.
    """
    if not graph.classification.is_ade:
        raise PreconditionError("Weyl checks need an affine ADE graph")
    cartan = [list(row) for row in graph.cartan]
    n = graph.size
    refls = [_reflection_matrix(cartan, i) for i in range(n)]
    report: dict = {"squares": True, "braid3": [], "double_edge_infinite": None,
                    "delta_fixed": True, "form_preserved": True}
    for i, s in enumerate(refls):
        if not _is_identity(_mat_mul_int(s, s)):
            report["squares"] = False
    delta = list(graph.delta)
    for s in refls:
        image = [sum(s[r][c] * delta[c] for c in range(n)) for r in range(n)]
        if image != delta:
            report["delta_fixed"] = False
    for i in range(n):
        for j in range(i + 1, n):
            if graph.n[i][j] == 1:
                prod = _mat_mul_int(refls[i], refls[j])
                cube = _mat_mul_int(_mat_mul_int(prod, prod), prod)
                ok = _is_identity(cube)
                report["braid3"].append({"pair": [i, j], "ok": ok})
            elif graph.n[i][j] >= 2:
                prod = _mat_mul_int(refls[i], refls[j])
                power = [row[:] for row in prod]
                no_small_order = True
                for _ in range(12):
                    if _is_identity(power):
                        no_small_order = False
                        break
                    power = _mat_mul_int(power, prod)
                report["double_edge_infinite"] = no_small_order
    rng = random.Random(seed)
    for _ in range(samples):
        x = [rng.randint(-4, 4) for _ in range(n)]
        y = [rng.randint(-4, 4) for _ in range(n)]
        bil = _cartan_bilinear(cartan, x, y)
        for s in refls:
            sx = [sum(s[r][c] * x[c] for c in range(n)) for r in range(n)]
            sy = [sum(s[r][c] * y[c] for c in range(n)) for r in range(n)]
            if _cartan_bilinear(cartan, sx, sy) != bil:
                report["form_preserved"] = False
    report["ok"] = (report["squares"] and report["delta_fixed"]
                    and report["form_preserved"]
                    and all(item["ok"] for item in report["braid3"])
                    and report["double_edge_infinite"] is not False)
    return report


def _cartan_bilinear(cartan, x, y) -> int:
    n = len(cartan)
    return sum(x[r] * cartan[r][c] * y[c] for r in range(n) for c in range(n))
