"""Quiver representations over the rationals and the reflection functors at
sinks and sources.

Representations live over Q rather than a cyclotomic field: the functors are
defined over any field and rational linear algebra is cheap.  Kernel bases
come from reduced row echelon pivoting, so reflecting the same representation
twice gives byte-identical matrices.  The reflection at a source is the dual
of the reflection at a sink of the dual representation (D S+ D = S-, as in
Bernstein-Gelfand-Ponomarev), so one kernel elimination serves both.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import linalg
from .errors import PreconditionError
from .heights import Arrow, OrientedQuiver

#: Random combinations of the intertwiner space find_isomorphism tries.
ISO_ATTEMPTS = 80


@dataclass(frozen=True)
class QuiverRep:
    """Finite-dimensional representation: a space per vertex, a matrix per
    arrow of shape (target dim) x (source dim), with int or Fraction
    entries."""

    quiver: OrientedQuiver
    dims: tuple[int, ...]
    maps: tuple[tuple[tuple[Fraction | int, ...], ...], ...]  # indexed like quiver.arrows

    def __post_init__(self):
        if len(self.maps) != len(self.quiver.arrows):
            raise PreconditionError("one matrix per arrow is required")
        for arrow, mat in zip(self.quiver.arrows, self.maps):
            rows, cols = self.dims[arrow.tgt], self.dims[arrow.src]
            lengths = list(map(len, mat))
            if lengths != [cols] * rows:
                raise PreconditionError(
                    f"matrix for arrow {arrow} has row lengths {lengths}, "
                    f"expected {rows} rows of length {cols}")

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
        """Parse the `to_json` shape; malformed data raises PreconditionError.
        Dimensions and endpoints are JSON integers, a matrix is a list of row
        lists, and an entry is an integer or a "p/q" string."""
        try:
            dims = tuple(data["dims"])
            if not all(type(d) is int and d >= 0 for d in dims):
                raise ValueError(f"dims must be nonnegative integers, got {list(dims)}")
            entries = sorted(data["arrows"], key=lambda item: item["index"])
            for item in entries:
                if not all(type(item[end]) is int and 0 <= item[end] < len(dims)
                           for end in ("from", "to")):
                    raise ValueError(
                        f"arrow {item['index']} has an endpoint outside the "
                        f"{len(dims)} vertices")
            arrows = tuple(Arrow(item["from"], item["to"], item["index"])
                           for item in entries)
            maps = tuple(_freeze(_matrix(item["matrix"]), dims[item["to"]])
                         for item in entries)
        except KeyError as exc:
            raise PreconditionError(f"representation is missing the key {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"malformed representation: {exc}") from None
        quiver = OrientedQuiver(len(dims), arrows)
        return QuiverRep(quiver, dims, maps)


_ENTRY = r"[+-]?[0-9]+(/[0-9]+)?"


def _matrix(rows) -> list[list[Fraction]]:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"a matrix must be a list of row lists, got {rows!r}")
    for x in (x for row in rows for x in row):
        if not (type(x) is int or isinstance(x, str) and re.fullmatch(_ENTRY, x)):
            raise ValueError(f'matrix entry {x!r} is not an integer or a "p/q" string')
    return [[Fraction(x) for x in row] for row in rows]


def _freeze(rows, nrows):
    return tuple(map(tuple, rows)) if rows else ((),) * nrows


def _dual(rep: QuiverRep) -> QuiverRep:
    """The dual representation: every arrow reversed, keeping its edge index,
    and every matrix transposed."""
    arrows = rep.quiver.arrows
    quiver = OrientedQuiver(rep.quiver.size,
                            tuple(Arrow(a.tgt, a.src, a.edge) for a in arrows))
    maps = tuple(_freeze(list(zip(*mat)), rep.dims[a.src])
                 for a, mat in zip(arrows, rep.maps))
    return QuiverRep(quiver, rep.dims, maps)


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
    offs = list(accumulate((rep.dims[a.src] for _, a in arrows), initial=0))
    total = offs.pop()
    rows = [[x for idx, _ in arrows for x in rep.maps[idx][r]]
            for r in range(rep.dims[vertex])]
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
    new_dims = list(rep.dims)
    new_dims[vertex] = len(kernel)
    new_maps = list(rep.maps)
    coords = list(zip(*kernel))  # coords[t]: coordinate t of every kernel vector
    for (idx, a), off in zip(arrows, offs):
        d = rep.dims[a.src]
        new_maps[idx] = _freeze(coords[off:off + d], d)
    return QuiverRep(quiver.reverse_at(vertex), tuple(new_dims), tuple(new_maps))


def reflect_minus(rep: QuiverRep, vertex: int) -> QuiverRep:
    """Reflection at a source: the new space is the cokernel of the assembled
    map out of the source, computed as the dual of the reflection at the
    same vertex, a sink there, of the dual representation."""
    if vertex not in rep.quiver.sources():
        raise PreconditionError(f"vertex {vertex} is not a source")
    return _dual(reflect_plus(_dual(rep), vertex))


def assembled_rank(rep: QuiverRep, vertex: int) -> int:
    """Rank of the combined map at the vertex: into a sink, the matrices of
    the incoming arrows side by side; out of a source, the matrices of the
    outgoing arrows stacked."""
    if vertex in rep.quiver.sources():
        return linalg.rank([row for a, mat in zip(rep.quiver.arrows, rep.maps)
                            if a.src == vertex for row in mat])
    if vertex not in rep.quiver.sinks():
        raise PreconditionError(f"vertex {vertex} is neither sink nor source")
    return linalg.rank(_assemble_into(rep, vertex)[3])


def find_isomorphism(a: QuiverRep, b: QuiverRep, seed: int = 7):
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

    for trial in range(ISO_ATTEMPTS):
        if trial == 0:
            coeffs = [Fraction(1)] * len(basis)
        else:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        vec = [sum((c * bvec[i] for c, bvec in zip(coeffs, basis)), Fraction(0))
               for i in range(total)]
        blocks = unpack(vec)
        if all(linalg.rank(blocks[v]) == a.dims[v] for v in range(size)):
            return blocks
    return None


def round_trip_isomorphism(rep: QuiverRep, vertex: int):
    """Reflect at a sink and back, then exhibit an explicit invertible
    intertwiner to the original representation, or return None."""
    return round_trip_from(rep, reflect_plus(rep, vertex), vertex)


def round_trip_from(rep: QuiverRep, reflected: QuiverRep, vertex: int):
    """`round_trip_isomorphism` for a sink reflection already made:
    reflect back and solve for the intertwiner.

    Away from the reflected vertex the double reflection leaves spaces and
    matrices untouched, so the intertwiner ansatz is the identity there and
    only the vertex block is solved for.  When the assembled map at the sink
    is surjective that block is forced and invertible.
    """
    back = reflect_minus(reflected, vertex)
    if back.dims != rep.dims:
        return None
    d = rep.dims[vertex]
    if d == 0:
        return back, []
    arrows = [(i, a) for i, a in enumerate(rep.quiver.arrows) if a.tgt == vertex]
    # phi . back_map = rep_map on every arrow into the vertex: the d rows of
    # phi solve one coefficient matrix (the assembled back map, transposed),
    # so one elimination of it with the d right-hand sides appended solves
    # them all.  A pivot among those d columns is an inconsistent row.
    aug = [[back.maps[idx][m][c] for m in range(d)]
           + [rep.maps[idx][r][c] for r in range(d)]
           for idx, a in arrows for c in range(rep.dims[a.src])]
    red, pivots = linalg.rref(aug)
    if pivots and pivots[-1] >= d:
        return None
    phi = [[Fraction(0)] * d for _ in range(d)]
    for row, piv in zip(red, pivots):
        for r in range(d):
            phi[r][piv] = row[d + r]
    if linalg.rank(phi) < d:
        return None
    return back, phi


def random_representation(quiver: OrientedQuiver, rng: random.Random,
                          max_dim: int = 4, low: int = -2, high: int = 2) -> QuiverRep:
    dims = tuple(rng.randint(1, max_dim) for _ in range(quiver.size))
    maps = []
    for arrow in quiver.arrows:
        maps.append(tuple(tuple(rng.randint(low, high)
                                for _ in range(dims[arrow.src]))
                          for _ in range(dims[arrow.tgt])))
    return QuiverRep(quiver, dims, tuple(maps))
