"""Quiver representations over the rationals and the reflection functors at
sinks and sources.

Representations live over Q rather than a cyclotomic field: the functors are
defined over any field and rational linear algebra is cheap.  Kernel and
cokernel bases come from reduced row echelon pivoting, so reflecting the
same representation twice gives byte-identical matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import PreconditionError
from .heights import Arrow, OrientedQuiver


@dataclass(frozen=True)
class QuiverRep:
    """Finite-dimensional representation: a space per vertex, a matrix per
    arrow of shape (target dim) x (source dim)."""

    quiver: OrientedQuiver
    dims: tuple[int, ...]
    maps: tuple[tuple[tuple[Fraction, ...], ...], ...]  # indexed like quiver.arrows

    def __post_init__(self):
        if len(self.maps) != len(self.quiver.arrows):
            raise PreconditionError("one matrix per arrow is required")
        for arrow, mat in zip(self.quiver.arrows, self.maps):
            rows, cols = _shape(mat)
            if rows != self.dims[arrow.tgt] or (rows and cols != self.dims[arrow.src]):
                raise PreconditionError(
                    f"matrix for arrow {arrow} has shape {(rows, cols)}, "
                    f"expected {(self.dims[arrow.tgt], self.dims[arrow.src])}")

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "arrows": [
                {"from": a.src, "to": a.tgt, "index": i,
                 "matrix": [[f"{x.numerator}/{x.denominator}" for x in row]
                            for row in mat]}
                for i, (a, mat) in enumerate(zip(self.quiver.arrows, self.maps))
            ],
        }

    @staticmethod
    def from_json(data: dict) -> QuiverRep:
        """Parse the `to_json` shape; malformed data raises PreconditionError."""
        try:
            dims = tuple(data["dims"])
            if not all(isinstance(d, int) and d >= 0 for d in dims):
                raise ValueError(f"dims must be nonnegative integers, got {list(dims)}")
            entries = sorted(data["arrows"], key=lambda item: item["index"])
            for item in entries:
                if not all(isinstance(item[end], int) and 0 <= item[end] < len(dims)
                           for end in ("from", "to")):
                    raise ValueError(
                        f"arrow {item['index']} has an endpoint outside the "
                        f"{len(dims)} vertices")
            arrows = tuple(Arrow(item["from"], item["to"], item["index"])
                           for item in entries)
            maps = tuple(_freeze([[Fraction(x) for x in row] for row in item["matrix"]],
                                 dims[item["to"]], dims[item["from"]])
                         for item in entries)
        except KeyError as exc:
            raise PreconditionError(f"representation is missing the key {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"malformed representation: {exc}") from None
        quiver = OrientedQuiver(len(dims), arrows)
        return QuiverRep(quiver, dims, maps)


def _shape(mat) -> tuple[int, int]:
    return len(mat), len(mat[0]) if mat else 0


def _freeze(rows, nrows, ncols):
    if not rows:
        return tuple(() for _ in range(nrows))
    return tuple(tuple(row) for row in rows)


def make_rep(quiver: OrientedQuiver, dims, matrices) -> QuiverRep:
    maps = []
    for arrow, mat in zip(quiver.arrows, matrices):
        maps.append(_freeze([[Fraction(x) for x in row] for row in mat],
                            dims[arrow.tgt], dims[arrow.src]))
    return QuiverRep(quiver, tuple(dims), tuple(maps))


def dim_vector_reflect(dims, vertex: int, n_matrix) -> tuple[int, ...]:
    """Simple reflection on dimension vectors:
    s_i(d)_i = -d_i + sum_j n_ij d_j, other coordinates fixed."""
    out = list(dims)
    out[vertex] = -dims[vertex] + sum(n_matrix[vertex][j] * dims[j]
                                      for j in range(len(dims)))
    return tuple(out)


def _assemble_into(rep: QuiverRep, vertex: int):
    """Stacked matrix of the combined map (sum of sources) -> V_vertex,
    together with the slot offsets of each incoming arrow."""
    arrows = [(i, a) for i, a in enumerate(rep.quiver.arrows) if a.tgt == vertex]
    offs = []
    total = 0
    for _, a in arrows:
        offs.append(total)
        total += rep.dims[a.src]
    rows = []
    for r in range(rep.dims[vertex]):
        row = []
        for idx, a in arrows:
            row.extend(rep.maps[idx][r])
        rows.append(row)
    return arrows, offs, total, rows


def reflect_plus(rep: QuiverRep, vertex: int) -> QuiverRep:
    """Reflection at a sink: the new space is the kernel of the assembled map
    into the sink, and the reversed arrows are the block components of the
    kernel inclusion."""
    quiver = rep.quiver
    if vertex not in quiver.sinks():
        raise PreconditionError(f"vertex {vertex} is not a sink")
    arrows, offs, total, assembled = _assemble_into(rep, vertex)
    kernel = linalg.nullspace(assembled) if assembled else \
        [[Fraction(1 if i == j else 0) for i in range(total)] for j in range(total)]
    new_dim = len(kernel)
    new_quiver = quiver.reverse_at(vertex)
    new_dims = list(rep.dims)
    new_dims[vertex] = new_dim
    new_maps = list(rep.maps)
    for (idx, a), off in zip(arrows, offs):
        d = rep.dims[a.src]
        block = tuple(tuple(kernel[c][off + r] for c in range(new_dim))
                      for r in range(d))
        new_maps[idx] = block
    return QuiverRep(new_quiver, tuple(new_dims), tuple(new_maps))


def reflect_minus(rep: QuiverRep, vertex: int) -> QuiverRep:
    """Reflection at a source: the new space is the cokernel of the assembled
    map out of the source, and the reversed arrows are slot inclusion followed
    by the quotient projection."""
    quiver = rep.quiver
    if vertex not in quiver.sources():
        raise PreconditionError(f"vertex {vertex} is not a source")
    arrows = [(i, a) for i, a in enumerate(quiver.arrows) if a.src == vertex]
    offs = []
    total = 0
    for _, a in arrows:
        offs.append(total)
        total += rep.dims[a.tgt]
    # Assembled map V_vertex -> (sum of targets), rows stacked per arrow.
    stacked = []
    for (idx, a) in arrows:
        stacked.extend([list(row) for row in rep.maps[idx]])
    # Row space of the transpose = image.  Reducing the unit vector e_t
    # against the reduced echelon rows leaves e_t when column t is free and
    # e_t - (row with pivot t) otherwise, so proj[t], the cokernel
    # coordinates of e_t on the free columns, needs no further elimination.
    transposed = linalg.transpose(stacked)
    image_rows, pivots = linalg.rref(transposed) if transposed else ([], [])
    row_of = dict(zip(pivots, image_rows))
    free = [c for c in range(total) if c not in row_of]
    proj = [[-row_of[t][c] for c in free] if t in row_of
            else [Fraction(1 if c == t else 0) for c in free]
            for t in range(total)]
    new_dim = len(free)
    new_quiver = quiver.reverse_at(vertex)
    new_dims = list(rep.dims)
    new_dims[vertex] = new_dim
    new_maps = list(rep.maps)
    for (idx, a), off in zip(arrows, offs):
        d = rep.dims[a.tgt]
        block = tuple(tuple(proj[off + c][r] for c in range(d))
                      for r in range(new_dim))
        new_maps[idx] = block
    return QuiverRep(new_quiver, tuple(new_dims), tuple(new_maps))


def assembled_rank(rep: QuiverRep, vertex: int) -> int:
    """Rank of the combined map at the vertex (into a sink / out of a source)."""
    quiver = rep.quiver
    if vertex in quiver.sinks():
        _, _, total, assembled = _assemble_into(rep, vertex)
        return linalg.rank(assembled) if assembled and assembled[0] else 0
    if vertex in quiver.sources():
        stacked = []
        for idx, a in enumerate(quiver.arrows):
            if a.src == vertex:
                stacked.extend([list(row) for row in rep.maps[idx]])
        return linalg.rank(stacked) if stacked and stacked[0] else 0
    raise PreconditionError(f"vertex {vertex} is neither sink nor source")


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.quiver != b.quiver:
        raise PreconditionError("direct sum needs matching quivers")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    maps = []
    for arrow, ma, mb in zip(a.quiver.arrows, a.maps, b.maps):
        rows = []
        for r in range(a.dims[arrow.tgt]):
            rows.append(list(ma[r]) + [Fraction(0)] * b.dims[arrow.src])
        for r in range(b.dims[arrow.tgt]):
            rows.append([Fraction(0)] * a.dims[arrow.src] + list(mb[r]))
        maps.append(tuple(tuple(row) for row in rows))
    return QuiverRep(a.quiver, dims, tuple(maps))


def find_isomorphism(a: QuiverRep, b: QuiverRep, seed: int = 7,
                     attempts: int = 80):
    """An invertible intertwiner b -> a, or None.

    Solves the intertwining equations exactly, then searches small random
    combinations of the solution space for one that is invertible at every
    vertex (a generic combination works whenever the representations are
    isomorphic).
    """
    if a.quiver != b.quiver or a.dims != b.dims:
        return None
    size = a.quiver.size
    offsets = []
    total = 0
    for v in range(size):
        offsets.append(total)
        total += a.dims[v] * b.dims[v]
    if total == 0:
        return [[] for _ in range(size)]
    equations = []
    for idx, arrow in enumerate(a.quiver.arrows):
        s, t = arrow.src, arrow.tgt
        for r in range(a.dims[t]):
            for c in range(b.dims[s]):
                row = [Fraction(0)] * total
                # (phi_t . B_arrow  -  A_arrow . phi_s)[r][c] = 0
                for m in range(b.dims[t]):
                    row[offsets[t] + r * b.dims[t] + m] += b.maps[idx][m][c]
                for m in range(a.dims[s]):
                    row[offsets[s] + m * b.dims[s] + c] -= a.maps[idx][r][m]
                equations.append(row)
    basis = linalg.nullspace(equations) if equations else \
        [[Fraction(1 if i == j else 0) for i in range(total)] for j in range(total)]
    if not basis:
        return None
    rng = random.Random(seed)

    def unpack(vec):
        blocks = []
        for v in range(size):
            block = [[vec[offsets[v] + r * b.dims[v] + c] for c in range(b.dims[v])]
                     for r in range(a.dims[v])]
            blocks.append(block)
        return blocks

    for trial in range(attempts):
        if trial == 0:
            coeffs = [Fraction(1)] * len(basis)
        else:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        vec = [sum((c * bvec[i] for c, bvec in zip(coeffs, basis)), Fraction(0))
               for i in range(total)]
        blocks = unpack(vec)
        if all(a.dims[v] == 0 or linalg.inverse(blocks[v]) is not None
               for v in range(size)):
            return blocks
    return None


def round_trip_isomorphism(rep: QuiverRep, vertex: int):
    """Reflect at a sink and back, then exhibit an explicit invertible
    intertwiner to the original representation, or return None.

    Away from the reflected vertex the double reflection leaves spaces and
    matrices untouched, so the intertwiner ansatz is the identity there and
    only the vertex block is solved for.  When the assembled map at the sink
    is surjective that block is forced and invertible.
    """
    back = reflect_minus(reflect_plus(rep, vertex), vertex)
    if back.dims != rep.dims:
        return None
    d = rep.dims[vertex]
    if d == 0:
        return back, []
    arrows = [(i, a) for i, a in enumerate(rep.quiver.arrows) if a.tgt == vertex]
    # phi . back_map = rep_map on every arrow into the vertex; each row of phi
    # solves the same coefficient matrix (the assembled back map, transposed).
    coeff = []
    targets = [[] for _ in range(d)]
    for idx, a in arrows:
        for c in range(rep.dims[a.src]):
            coeff.append([back.maps[idx][m][c] for m in range(d)])
            for r in range(d):
                targets[r].append(rep.maps[idx][r][c])
    phi = []
    for r in range(d):
        sol = linalg.solve(coeff, targets[r])
        if sol is None:
            return None
        phi.append(sol)
    if linalg.inverse(phi) is None:
        return None
    return back, phi


def random_representation(quiver: OrientedQuiver, rng: random.Random,
                          max_dim: int = 4, low: int = -2, high: int = 2) -> QuiverRep:
    dims = tuple(rng.randint(1, max_dim) for _ in range(quiver.size))
    maps = []
    for arrow in quiver.arrows:
        maps.append(tuple(tuple(Fraction(rng.randint(low, high))
                                for _ in range(dims[arrow.src]))
                          for _ in range(dims[arrow.tgt])))
    return QuiverRep(quiver, dims, tuple(maps))
