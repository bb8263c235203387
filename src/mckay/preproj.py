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

from .errors import PreconditionError, ResourceLimitError
from .mckaygraph import McKayGraph

DEFAULT_PATH_CAP = 20000


class DoubleArrow(NamedTuple):
    src: int
    tgt: int
    edge: int
    is_star: bool

    @property
    def name(self) -> str:
        return f"a{self.edge}*" if self.is_star else f"a{self.edge}"


def double_quiver(graph: McKayGraph) -> tuple[DoubleArrow, ...]:
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

    def relation_span(self) -> dict[tuple[int, int], list[list[Fraction]]]:
        """Canonical (reduced row echelon) basis of the relation space per
        block; the comparison key for presentation equality."""
        from . import linalg

        spans: dict[tuple[int, int], list[list[Fraction]]] = {}
        grouped: dict[tuple[int, int], list] = {}
        for rel in self.relations:
            grouped.setdefault(self.block_of(rel), []).append(dict(rel))
        for block, rels in grouped.items():
            paths = self.paths2(block)
            index = {p: i for i, p in enumerate(paths)}
            rows = []
            for rel in rels:
                row = [Fraction(0)] * len(paths)
                for pair, coeff in rel.items():
                    row[index[pair]] = coeff
                rows.append(row)
            red, pivots = linalg.rref(rows)
            spans[block] = [red[i] for i in range(len(pivots))]
        return spans

    def num_length2_paths(self) -> int:
        total = 0
        for a1, first in enumerate(self.arrows):
            for a2, second in enumerate(self.arrows):
                if first.tgt == second.src:
                    total += 1
        return total

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
    star_of = {}
    for idx in range(0, len(arrows), 2):
        star_of[idx] = idx + 1
        star_of[idx + 1] = idx
    relations = []
    for v in range(graph.size):
        rel: Relation = {}
        for aid, arrow in enumerate(arrows):
            if arrow.src != v:
                continue
            sign = Fraction(1) if arrow.is_star else Fraction(-1)
            rel[(aid, star_of[aid])] = sign
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
    star_of = {}
    for idx in range(0, len(arrows), 2):
        star_of[idx] = idx + 1
        star_of[idx + 1] = idx
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
                    if a2 == star_of[a1]:
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
    from . import linalg

    relations: list[Relation] = []
    grouped: dict[tuple[int, int], list[Relation]] = {}
    for rel in pres.relations:
        grouped.setdefault(pres.block_of(rel), []).append(dict(rel))
    seen_blocks = set()
    for a1, first in enumerate(pres.arrows):
        for a2, second in enumerate(pres.arrows):
            if first.tgt == second.src:
                seen_blocks.add((first.src, second.tgt))
    for block in sorted(seen_blocks):
        paths = pres.paths2(block)
        index = {p: i for i, p in enumerate(paths)}
        rows = []
        for rel in grouped.get(block, []):
            row = [Fraction(0)] * len(paths)
            for pair, coeff in rel.items():
                row[index[pair]] = coeff
            rows.append(row)
        if rows:
            kernel = linalg.nullspace(rows)
        else:
            kernel = [[Fraction(1 if i == j else 0) for i in range(len(paths))]
                      for j in range(len(paths))]
        for vec in kernel:
            rel = {paths[i]: c for i, c in enumerate(vec) if c}
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
                      path_cap: int = DEFAULT_PATH_CAP) -> GradedDims:
    """Graded dimensions of the quadratic quotient through max_degree.

    Degree d is spanned by length-d paths modulo the degree-d slice of the
    two-sided ideal; the slice is built as (arrows . slice at d-1) plus
    (relations . paths of length d-2) and its rank is taken per (start, end)
    block by exact elimination.
    """
    if max_degree < 0:
        raise PreconditionError("max degree must be nonnegative")
    nv = pres.num_vertices
    arrows = pres.arrows
    identity = tuple(tuple(1 if i == j else 0 for j in range(nv)) for i in range(nv))
    mats = [identity]
    if max_degree == 0:
        return GradedDims(nv, tuple(mats))

    paths: list[list[tuple[int, ...]]] = [[], [(a,) for a in range(len(arrows))]]
    deg1 = [[0] * nv for _ in range(nv)]
    for a in arrows:
        deg1[a.src][a.tgt] += 1
    mats.append(tuple(tuple(row) for row in deg1))

    # Echelon state per degree: block -> {pivot index: sparse vector}.
    prev_basis: dict[tuple[int, int], dict[int, dict[tuple, Fraction]]] = {}

    def block_of_path(path: tuple[int, ...]) -> tuple[int, int]:
        return (arrows[path[0]].src, arrows[path[-1]].tgt)

    for degree in range(2, max_degree + 1):
        new_paths = [p + (a,) for p in paths[-1]
                     for a in range(len(arrows))
                     if arrows[p[-1]].tgt == arrows[a].src]
        if len(new_paths) > path_cap:
            raise ResourceLimitError(
                f"degree {degree} has {len(new_paths)} paths, above the cap {path_cap}")
        paths.append(new_paths)
        index = {p: i for i, p in enumerate(new_paths)}

        generators: list[dict[tuple, Fraction]] = []
        if degree == 2:
            for rel in pres.relations:
                generators.append({pair: coeff for pair, coeff in rel})
        else:
            for block_state in prev_basis.values():
                for vec in block_state.values():
                    head = next(iter(vec))
                    start = arrows[head[0]].src
                    for a in range(len(arrows)):
                        if arrows[a].tgt == start:
                            generators.append({(a,) + p: c for p, c in vec.items()})
            for rel in pres.relations:
                (first_pair, _c0) = rel[0]
                end = arrows[first_pair[1]].tgt
                for q in paths[degree - 2]:
                    if arrows[q[0]].src == end:
                        generators.append({pair + q: coeff for pair, coeff in rel})

        basis: dict[tuple[int, int], dict[int, dict[tuple, Fraction]]] = {}
        for vec in generators:
            sample = next(iter(vec))
            block = block_of_path(sample)
            state = basis.setdefault(block, {})
            work = dict(vec)
            while work:
                pivot = min(index[p] for p in work)
                existing = state.get(pivot)
                if existing is None:
                    pivot_path = new_paths[pivot]
                    scale = 1 / work[pivot_path]
                    state[pivot] = {p: c * scale for p, c in work.items()}
                    break
                factor = work[new_paths[pivot]]
                for p, c in existing.items():
                    acc = work.get(p, Fraction(0)) - factor * c
                    if acc:
                        work[p] = acc
                    else:
                        work.pop(p, None)
        prev_basis = basis

        counts = [[0] * nv for _ in range(nv)]
        for p in new_paths:
            s, t = block_of_path(p)
            counts[s][t] += 1
        for block, state in basis.items():
            counts[block[0]][block[1]] -= len(state)
        mats.append(tuple(tuple(row) for row in counts))
    return GradedDims(nv, tuple(mats))


def truncated_koszul_check(pres: QuadraticPresentation, max_degree: int,
                           path_cap: int = DEFAULT_PATH_CAP):
    """Truncated Poincare identity: H(P, t) * H(P^!, -t) = Id through the
    given degree.  Returns (ok, witness)."""
    h = truncated_hilbert(pres, max_degree, path_cap)
    hdual = truncated_hilbert(quadratic_dual(pres), max_degree, path_cap)
    nv = pres.num_vertices
    for d in range(max_degree + 1):
        for i in range(nv):
            for j in range(nv):
                acc = 0
                for a in range(d + 1):
                    b = d - a
                    sign = -1 if b % 2 else 1
                    acc += sign * sum(h.dim(i, k, a) * hdual.dim(k, j, b)
                                      for k in range(nv))
                expected = 1 if (d == 0 and i == j) else 0
                if acc != expected:
                    return False, {"degree": d, "entry": [i, j], "value": acc}
    return True, None
