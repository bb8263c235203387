"""Quadratic path-algebra presentations on the doubled McKay quiver:
preprojective relations, the Ext-algebra of the vertex simples, quadratic
duals, and truncated graded dimensions by exact rank computation.

Conventions.  Every undirected edge of the graph gets a fixed positive
direction (low vertex to high vertex, as stored on the graph); the doubled
quiver has one positive arrow and one reversed "star" arrow per edge copy.
A length-2 path is written in traversal order: (a, b) walks a first, then b.
The preprojective relation at a vertex is the signed sum of round trips,
plus sign for trips leaving along a star arrow (positive edge pointing in),
minus sign for trips leaving along a positive arrow.  Any global resigning
per edge gives an isomorphic algebra; this one is fixed so tests can freeze
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import PreconditionError, ResourceLimitError
from .mckaygraph import McKayGraph

# Columns of one block's elimination; the preprojective quotients of the
# affine ADE graphs stay far below this through degree 12.
DEFAULT_COLUMN_CAP = 500


class DoubleArrow(NamedTuple):
    src: int
    tgt: int
    edge: int
    is_star: bool

    @property
    def name(self) -> str:
        return f"a{self.edge}*" if self.is_star else f"a{self.edge}"


def double_quiver(graph: McKayGraph) -> tuple[DoubleArrow, ...]:
    """Edge k gives arrow 2k and its star 2k + 1, so the star of arrow a is
    arrow a ^ 1."""
    arrows = []
    for idx, (i, j) in enumerate(graph.edges):
        arrows.append(DoubleArrow(i, j, idx, False))
        arrows.append(DoubleArrow(j, i, idx, True))
    return tuple(arrows)


Relation = dict[tuple[int, int], Fraction]


@dataclass(frozen=True)
class QuadraticPresentation:
    """Vertices, degree-1 arrows, and an independent list of homogeneous
    degree-2 relations (rational combinations of composable arrow pairs)."""

    num_vertices: int
    arrows: tuple[DoubleArrow, ...]
    relations: tuple[tuple[tuple[tuple[int, int], Fraction], ...], ...]

    def __post_init__(self):
        for rel in self.relations:
            if not rel:
                raise PreconditionError("empty relation")
            blocks = set()
            for (a1, a2), coeff in rel:
                first, second = self.arrows[a1], self.arrows[a2]
                if first.tgt != second.src:
                    raise PreconditionError("relation contains a non-composable pair")
                blocks.add((first.src, second.tgt))
                if not coeff:
                    raise PreconditionError("zero coefficient stored in relation")
            if len(blocks) != 1:
                raise PreconditionError("relation is not homogeneous for one block")

    def block_of(self, rel) -> tuple[int, int]:
        (a1, a2), _ = rel[0]
        return (self.arrows[a1].src, self.arrows[a2].tgt)

    def paths2(self, block: tuple[int, int]) -> list[tuple[int, int]]:
        """Composable arrow pairs from block[0] to block[1], in arrow order."""
        s, t = block
        out = []
        for a1, first in enumerate(self.arrows):
            if first.src != s:
                continue
            for a2, second in enumerate(self.arrows):
                if second.src == first.tgt and second.tgt == t:
                    out.append((a1, a2))
        return out

    def relation_rows(self) -> dict[tuple[int, int], list[list[Fraction]]]:
        """The relations grouped by block, each as a row over paths2(block)."""
        rows: dict[tuple[int, int], list[list[Fraction]]] = {}
        index: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        for rel in self.relations:
            block = self.block_of(rel)
            if block not in index:
                index[block] = {p: i for i, p in enumerate(self.paths2(block))}
                rows[block] = []
            row = [Fraction(0)] * len(index[block])
            for pair, coeff in rel:
                row[index[block][pair]] = coeff
            rows[block].append(row)
        return rows

    def relation_span(self) -> dict[tuple[int, int], list[list[Fraction]]]:
        """Canonical (reduced row echelon) basis of the relation space per
        block; the comparison key for presentation equality."""
        spans = {}
        for block, rows in self.relation_rows().items():
            red, pivots = linalg.rref(rows)
            spans[block] = red[:len(pivots)]
        return spans

    def to_json(self) -> dict:
        return {
            "vertices": self.num_vertices,
            "arrows": [{"from": a.src, "to": a.tgt, "name": a.name}
                       for a in self.arrows],
            "relations": [
                [[f"{c.numerator}/{c.denominator}", [a1, a2]]
                 for (a1, a2), c in rel]
                for rel in self.relations
            ],
        }


def _freeze_relation(rel: Relation):
    return tuple(sorted(((pair, coeff) for pair, coeff in rel.items() if coeff),
                        key=lambda item: item[0]))


def _make(num_vertices, arrows, relations) -> QuadraticPresentation:
    return QuadraticPresentation(
        num_vertices=num_vertices,
        arrows=tuple(arrows),
        relations=tuple(_freeze_relation(r) for r in relations),
    )


def preprojective_presentation(graph: McKayGraph) -> QuadraticPresentation:
    """One signed round-trip relation per vertex on the doubled quiver."""
    if not graph.classification.is_ade:
        raise PreconditionError("preprojective presentation needs an affine ADE graph")
    arrows = double_quiver(graph)
    relations = []
    for v in range(graph.size):
        rel: Relation = {}
        for aid, arrow in enumerate(arrows):
            if arrow.src != v:
                continue
            sign = Fraction(1) if arrow.is_star else Fraction(-1)
            rel[(aid, aid ^ 1)] = sign
        if rel:
            relations.append(rel)
    return _make(graph.size, arrows, relations)


def ext_algebra_presentation(graph: McKayGraph) -> QuadraticPresentation:
    """Relations of the Ext algebra of the vertex simples: the kernel of the
    composition into degree 2.

    Composition kills every length-2 path between distinct endpoints, and on
    round trips it is the symplectic Darboux pairing of matched arrow pairs
    (+1 leaving along a positive arrow, -1 leaving along a star arrow).  The
    relation count is therefore (#length-2 paths) - (#vertices).
    """
    if not graph.classification.is_ade:
        raise PreconditionError("Ext presentation needs an affine ADE graph")
    arrows = double_quiver(graph)
    relations: list[Relation] = []
    # Paths between distinct endpoints vanish outright.
    for a1, first in enumerate(arrows):
        for a2, second in enumerate(arrows):
            if first.tgt == second.src and second.tgt != first.src:
                relations.append({(a1, a2): Fraction(1)})
    # Per vertex: kernel of the pairing functional on round trips.
    for v in range(graph.size):
        loops = []
        for a1, first in enumerate(arrows):
            if first.src != v:
                continue
            for a2, second in enumerate(arrows):
                if second.src == first.tgt and second.tgt == v:
                    pairing = Fraction(0)
                    if a2 == a1 ^ 1:
                        pairing = Fraction(-1) if first.is_star else Fraction(1)
                    loops.append(((a1, a2), pairing))
        unmatched = [pair for pair, s in loops if not s]
        matched = [(pair, s) for pair, s in loops if s]
        for pair in unmatched:
            relations.append({pair: Fraction(1)})
        base_pair, base_sign = matched[0]
        for pair, sign in matched[1:]:
            relations.append({pair: sign, base_pair: -base_sign})
    return _make(graph.size, arrows, relations)


def quadratic_dual(pres: QuadraticPresentation) -> QuadraticPresentation:
    """Same arrows (dual basis, directions preserved); relations are a basis
    of the annihilator of the old relation space, block by block."""
    relations: list[Relation] = []
    grouped = pres.relation_rows()
    blocks = {(first.src, second.tgt) for first in pres.arrows
              for second in pres.arrows if first.tgt == second.src}
    for block in sorted(blocks):
        pairs = pres.paths2(block)
        # A block without relations is one zero row, whose nullspace is all of it.
        for vec in linalg.nullspace(grouped.get(block) or [[0] * len(pairs)]):
            rel = {pairs[i]: c for i, c in enumerate(vec) if c}
            if rel:
                relations.append(rel)
    return _make(pres.num_vertices, pres.arrows, relations)


def presentations_match(a: QuadraticPresentation, b: QuadraticPresentation) -> bool:
    """Equality of relation subspaces blockwise (canonical echelon bases)."""
    return a.arrows == b.arrows and a.relation_span() == b.relation_span()


# ---------------------------------------------------------------------------
# Truncated graded dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedDims:
    """Per-degree matrices of graded dimensions, degrees 0..max_degree."""

    num_vertices: int
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def max_degree(self) -> int:
        return len(self.matrices) - 1

    def dim(self, i: int, j: int, degree: int) -> int:
        return self.matrices[degree][i][j]

    def to_json(self) -> dict:
        return {"max_degree": self.max_degree,
                "dims": [[list(row) for row in mat] for mat in self.matrices]}


def truncated_hilbert(pres: QuadraticPresentation, max_degree: int,
                      column_cap: int = DEFAULT_COLUMN_CAP) -> GradedDims:
    """Graded dimensions of the quadratic quotient A through max_degree.

    Degree d is the cokernel of A_{d-2} (x) R -> A_{d-1} (x) V, taken per
    (start, end) block by exact elimination.  The columns are pairs (basis
    element b of A_{d-1}, arrow a); each row is sum c [n.a1] (x) a2 for a
    basis element n of A_{d-2} and a relation sum c (a1, a2).  The free
    columns are the basis of A_d, and the reduced rows express every pivot
    column [b.a] in that basis, which is what degree d+1 reads.
    """
    if max_degree < 0:
        raise PreconditionError("max degree must be nonnegative")
    nv = pres.num_vertices
    arrows = pres.arrows
    blocks = [(s, t) for s in range(nv) for t in range(nv)]
    rels_into: dict[int, list] = {t: [] for t in range(nv)}
    for rel in pres.relations:
        u, t = pres.block_of(rel)
        rels_into[t].append((u, rel))
    # older, prev: block dims of A_{d-2}, A_{d-1}; reduce[block][(b, a)] is
    # [b.a] in A_{d-1}, as {basis index: coefficient}.
    older = dict.fromkeys(blocks, 0)
    prev = {(s, t): int(s == t) for s, t in blocks}
    reduce: dict = {}
    mats = [tuple(tuple(prev[s, t] for t in range(nv)) for s in range(nv))]
    for degree in range(1, max_degree + 1):
        dims, new_reduce = {}, {}
        for s, t in blocks:
            cols = [(b, a) for a, arrow in enumerate(arrows) if arrow.tgt == t
                    for b in range(prev[s, arrow.src])]
            if len(cols) > column_cap:
                raise ResourceLimitError(
                    f"degree {degree} block ({s}, {t}) has {len(cols)} columns, "
                    f"above the cap {column_cap}")
            index = {col: i for i, col in enumerate(cols)}
            rows = []
            for u, rel in rels_into[t]:
                for n in range(older[s, u]):
                    row = [0] * len(cols)
                    for (a1, a2), c in rel:
                        for b, x in reduce[s, arrows[a1].tgt][n, a1].items():
                            row[index[b, a2]] += c * x
                    rows.append(row)
            red, pivots = linalg.rref(rows)
            pivot_set = set(pivots)
            free = [i for i in range(len(cols)) if i not in pivot_set]
            slot = {f: k for k, f in enumerate(free)}
            images = {cols[f]: {k: 1} for f, k in slot.items()}
            for r, c in enumerate(pivots):
                images[cols[c]] = {k: -red[r][f] for f, k in slot.items() if red[r][f]}
            dims[s, t], new_reduce[s, t] = len(free), images
        older, prev, reduce = prev, dims, new_reduce
        mats.append(tuple(tuple(prev[s, t] for t in range(nv)) for s in range(nv)))
    return GradedDims(nv, tuple(mats))


def truncated_koszul_check(pres: QuadraticPresentation, max_degree: int):
    """Truncated Poincare identity: H(P, t) * H(P^!, -t) = Id through the
    given degree, in degree d the matrix identity
    sum_a (-1)^(d-a) H_a H!_(d-a) = [d == 0] Id.  Returns (ok, witness), the
    witness naming the first entry off in (degree, row, column) order."""
    h = truncated_hilbert(pres, max_degree).matrices
    dual = truncated_hilbert(quadratic_dual(pres), max_degree).matrices
    # H!(-t): the odd degrees negated.
    signed = [[tuple(-x for x in row) for row in mat] if b % 2 else mat
              for b, mat in enumerate(dual)]
    for d in range(max_degree + 1):
        terms = [linalg.matmul(h[a], signed[d - a]) for a in range(d + 1)]
        for i in range(pres.num_vertices):
            for j in range(pres.num_vertices):
                acc = sum(t[i][j] for t in terms)
                if acc != int(d == 0 and i == j):
                    return False, {"degree": d, "entry": [i, j], "value": acc}
    return True, None
