"""Lattice shadow of the zero-section category: classes of the twisted
projectives and of the simple spherical objects, the Euler pairing on the
projective line, its symmetrization (the affine Cartan form), reflection by
spherical twists, and the check that twists realize height flips.

K_0 of the equivariant projective line is free on the classes of W_i(0) and
W_i(1) (Beilinson's tilting bundle): the Euler sequence gives
[W_i(d)] = sum_j N_ij [W_j(d-1)] - [W_i(d-2)].  So a class is a tuple of 2n
integers on that basis, classes are equal when their tuples are, and the
Euler pairing is one Gram matrix G read off the Hom dimensions.  Each
height's simple classes S come from its own downhill quiver, and their
Cartan matrix S (G + G^T) S^T holds every symmetrized pairing the checks
read.  Every check is an exact integer matrix identity through
`linalg.matmul`: dual bases, the Cartan form, the twist as a rank-one
update whose coefficients are one row of the Cartan matrix, the basis
change between two heights, and the Weyl relations.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import PreconditionError, ResourceLimitError
from .heights import HeightFunction
from .linalg import matmul
from .mckaygraph import McKayGraph
from .molien import HomDims

#: Most flips a height may lie from the parity height.
FLIP_CAP = 10000

Class = tuple[int, ...]


def _identity(size: int) -> list[Class]:
    return [tuple(int(r == c) for c in range(size)) for r in range(size)]


def symbol_class(hd: HomDims, size: int, i: int, d: int) -> Class:
    """[W_i(d)] on the basis W_0(0), ..., W_{n-1}(0), W_0(1), ..., W_{n-1}(1):
    row i of [-H_{d-2} | H_{d-1}], with H_m the Hom-dimension matrix in
    degree m extended below 0 by H_{-m} = -H_{m-2} (so H_{-1} = 0).  This is
    the Euler-sequence recursion H_m = N H_{m-1} - H_{m-2} solved in both
    directions from [W_i(0)] and [W_i(1)]."""
    def hom(j, m):
        return hd.hom_dim(i, j, m) if m >= 0 else -hd.hom_dim(i, j, -m - 2)
    return tuple([-hom(j, d - 2) for j in range(size)] + [hom(j, d - 1) for j in range(size)])


def gram_matrix(hd: HomDims, size: int) -> list[Class]:
    """Euler pairing on the basis:
    chi([W_i(a)], [W_j(b)]) = hom(i, j, b - a) - hom(j, i, a - b - 2),
    Hom minus Ext^1, the latter rewritten by Serre duality with the twist -2.
    It comes out as [[I, N], [0, I]]."""
    basis = [(i, a) for a in (0, 1) for i in range(size)]
    return [tuple(hd.hom_dim(i, j, b - a) - hd.hom_dim(j, i, a - b - 2) for j, b in basis)
            for i, a in basis]


def _refuse_far(h: HeightFunction) -> None:
    flips = sum(abs(a - b) for a, b in zip(h.values, h.graph.parity)) // 2
    if flips > FLIP_CAP:
        raise ResourceLimitError(
            f"the height lies {flips} flips from the parity height, above the cap {FLIP_CAP}")


def projective_classes(hd: HomDims, h: HeightFunction) -> list[Class]:
    """The classes [P_k(h)] = [W_k(h_k)], one row per vertex.

    A height more than FLIP_CAP flips from the parity height (half the L1
    distance) is refused before any Hom dimension is read.
    """
    _refuse_far(h)
    return [symbol_class(hd, h.graph.size, k, d) for k, d in enumerate(h.values)]


def flipped_classes(hd: HomDims, proj: list[Class], flipped: HeightFunction,
                    vertex: int) -> list[Class]:
    """The projective classes at `flipped`, a height that differs from the
    one of `proj` only at `vertex`: row `vertex` is rebuilt and the others
    are kept.  The FLIP_CAP refusal applies to `flipped` as in
    projective_classes."""
    _refuse_far(flipped)
    out = list(proj)
    out[vertex] = symbol_class(hd, flipped.graph.size, vertex, flipped.values[vertex])
    return out


def simple_family(h: HeightFunction, proj: list[Class]) -> list[Class]:
    """Classes of the vertex simples at height h, read off the downhill
    quiver Q_h: over its path algebra each simple has the projective
    resolution 0 -> (+)_{i->j} P_j -> P_i -> S_i -> 0, so S = (I - A) P with
    A the arrow-count matrix of Q_h and P the height's projective classes."""
    down = [list(row) for row in _identity(h.graph.size)]
    for arrow in h.quiver().arrows:
        down[arrow.src][arrow.tgt] -= 1
    return matmul(down, proj)


def cartan_matrix(gram: list[Class], family: list[Class]) -> list[Class]:
    """The symmetrized Euler form (the Euler form of zero-section
    pushforwards) on the family, S (G + G^T) S^T."""
    half = matmul(matmul(family, gram), list(zip(*family)))
    return [tuple(a + b for a, b in zip(row, col)) for row, col in zip(half, zip(*half))]


def verify_dual_bases(gram: list[Class], proj: list[Class], family: list[Class]) -> bool:
    """Pairing of a height's projectives against its simples must be the
    identity matrix: P G S^T = I."""
    return matmul(matmul(proj, gram), list(zip(*family))) == _identity(len(family))


def twist_matches_flip(cartan: list[Class], family: list[Class], vertex: int,
                       flipped: list[Class]) -> bool:
    """Twisting the family at one simple gives `flipped`.  The twist reflects
    each class x_k in the hyperplane of e = x_vertex under the symmetrized
    form, x_k - C[vertex][k] e with C = `cartan_matrix(gram, family)`: one
    rank-one update of the family."""
    e = family[vertex]
    return [tuple(a - c * b for a, b in zip(x, e))
            for x, c in zip(family, cartan[vertex])] == flipped


def verify_twist_vs_flip(graph: McKayGraph, hd: HomDims, h: HeightFunction,
                         vertex: int) -> bool:
    """The reflection computed from the Euler form must give the simples of
    the flipped height, each read off its own quiver: twisting at a source
    realizes the simples at h - 2e_vertex, inverse-twisting at a sink those
    at h + 2e_vertex."""
    quiver = h.quiver()
    if vertex not in quiver.sources() + quiver.sinks():
        raise PreconditionError(f"vertex {vertex} is neither source nor sink")
    other = h.with_value(vertex, h.values[vertex] + (-2 if vertex in quiver.sources() else 2))
    proj = projective_classes(hd, h)
    family = simple_family(h, proj)
    flipped = simple_family(other, flipped_classes(hd, proj, other, vertex))
    return twist_matches_flip(cartan_matrix(gram_matrix(hd, graph.size), family),
                              family, vertex, flipped)


def basis_change_unimodular(graph: McKayGraph, hd: HomDims,
                            h1: HeightFunction, h2: HeightFunction) -> bool:
    """The simple classes of two heights span the same lattice, so they
    differ by an invertible integer matrix.  A class x in the span of the
    simples at h has coefficient chi(P_k(h), x) on S_k(h) by the dual
    pairing, so the rows X lie in that span exactly when X (P G)^T S = X;
    both containments are checked."""
    proj1, proj2 = projective_classes(hd, h1), projective_classes(hd, h2)
    family1, family2 = simple_family(h1, proj1), simple_family(h2, proj2)
    gram = gram_matrix(hd, graph.size)

    def spans(proj, family, classes):
        return matmul(matmul(classes, list(zip(*matmul(proj, gram)))), family) == classes

    return spans(proj1, family1, family2) and spans(proj2, family2, family1)


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
    cartan = list(graph.cartan)
    ident = _identity(n)
    # s_i x = x - (C x)_i e_i: the identity with C's row i taken off row i.
    refls = [[tuple(a - b for a, b in zip(row, cartan[i])) if r == i else row
              for r, row in enumerate(ident)] for i in range(n)]
    delta = [(d,) for d in graph.delta]
    report: dict = {
        "squares": all(matmul(s, s) == ident for s in refls),
        "braid3": [], "double_edge_infinite": None,
        "delta_fixed": all(matmul(s, delta) == delta for s in refls),
        "form_preserved": all(matmul(matmul(list(zip(*s)), cartan), s) == cartan
                              for s in refls)}
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.n[i][j]:
                continue
            prod = matmul(refls[i], refls[j])
            if graph.n[i][j] == 1:
                report["braid3"].append(
                    {"pair": [i, j], "ok": matmul(matmul(prod, prod), prod) == ident})
            else:
                report["double_edge_infinite"] = ident not in accumulate([prod] * 12, matmul)
    report["ok"] = (report["squares"] and report["delta_fixed"] and report["form_preserved"]
                    and all(item["ok"] for item in report["braid3"])
                    and report["double_edge_infinite"] is not False)
    return report
