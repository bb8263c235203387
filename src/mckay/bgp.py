"""Quiver representations over the rationals and the reflection functors at
sinks and sources.

Representations live over Q rather than a cyclotomic field: the functors are
defined over any field and rational linear algebra is cheap.  Kernel bases
come from reduced row echelon pivoting, so reflecting the same representation
twice gives byte-identical matrices.  Each reflection at v is one kernel
elimination of a matrix with d_v rows: at a sink the incoming maps side by
side, at a source the transpose of the stacked outgoing maps, which reads
D S+ D = S- (Bernstein-Gelfand-Ponomarev) off without building either dual.
Random representations draw their values straight from the generator's
bits, value for value what `randint` draws.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

from . import linalg
from .errors import PreconditionError, ResourceLimitError
from .heights import Arrow, OrientedQuiver

#: Random combinations of the intertwiner space find_isomorphism tries.
ISO_ATTEMPTS = 80

#: Largest total dimension, sum of the dimensions across the arrows at one
#: vertex, and arrow count that `QuiverRep.from_json` admits.  A reflection is
#: one elimination of d_v rows by that sum of columns; dims (40, 40) with two
#: arrows reflect in 0.3 s, (80, 80) took 1.5 s and (160, 160) 14.6 s.
REP_DIM_CAP = 128


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
        Dimensions, endpoints and indices are JSON integers, the indices
        0..m-1 in some order; a matrix is a list of row lists, and an entry is
        an integer or a "p/q" string.  A representation past REP_DIM_CAP
        raises ResourceLimitError before any matrix is read."""
        try:
            dims = tuple(data["dims"])
            if not all(type(d) is int and d >= 0 for d in dims):
                raise ValueError(f"dims must be nonnegative integers, got {list(dims)}")
            entries = data["arrows"]
            if not (isinstance(entries, list) and all(isinstance(item, dict) for item in entries)):
                raise ValueError("arrows must be a list of objects")
            indices = [item["index"] for item in entries]
            if any(type(i) is not int for i in indices) or \
                    sorted(indices) != list(range(len(indices))):
                raise ValueError(f"arrow index values must be 0..{len(indices) - 1}, "
                                 f"each once, got {json.dumps(indices)}")
            entries = sorted(entries, key=lambda item: item["index"])
            for item in entries:
                if not all(type(item[end]) is int and 0 <= item[end] < len(dims)
                           for end in ("from", "to")):
                    raise ValueError(
                        f"arrow {item['index']} has an endpoint outside the "
                        f"{len(dims)} vertices")
            _check_size(dims, entries)
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


def _check_size(dims, entries) -> None:
    """Refuse a representation whose reflections would eliminate more than
    REP_DIM_CAP rows or columns, or that has more than REP_DIM_CAP arrows:
    an arrow with a zero-dimensional end adds nothing to a vertex's width."""
    if sum(dims) > REP_DIM_CAP:
        raise ResourceLimitError(
            f"representation has total dimension {sum(dims)}, more than {REP_DIM_CAP}")
    width = [0] * len(dims)
    for item in entries:
        width[item["to"]] += dims[item["from"]]
        width[item["from"]] += dims[item["to"]]
    for vertex, w in enumerate(width):
        if w > REP_DIM_CAP:
            raise ResourceLimitError(
                f"the arrows at vertex {vertex} have total dimension {w}, "
                f"more than {REP_DIM_CAP}")
    if len(entries) > REP_DIM_CAP:
        raise ResourceLimitError(
            f"representation has {len(entries)} arrows, more than {REP_DIM_CAP}")


def _make(quiver: OrientedQuiver, dims, maps) -> QuiverRep:
    """Trusted constructor for the draws and reflections, whose shapes hold
    by construction: it fills every field of QuiverRep and skips the shape
    check that every other build pays."""
    rep = object.__new__(QuiverRep)
    vars(rep).update(quiver=quiver, dims=dims, maps=maps)
    return rep


def _matrix(rows) -> list[list[Fraction]]:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"a matrix must be a list of row lists, got {rows!r}")
    for x in (x for row in rows for x in row):
        if not (type(x) is int or isinstance(x, str) and re.fullmatch(_ENTRY, x)):
            raise ValueError(f'matrix entry {x!r} is not an integer or a "p/q" string')
    return [[Fraction(x) for x in row] for row in rows]


def _freeze(rows, nrows):
    return tuple(map(tuple, rows)) if rows else ((),) * nrows


def dim_vector_reflect(dims, vertex: int, n_matrix) -> tuple[int, ...]:
    """Simple reflection on dimension vectors:
    s_i(d)_i = -d_i + sum_j n_ij d_j, other coordinates fixed."""
    out = list(dims)
    out[vertex] = -dims[vertex] + sum(n_matrix[vertex][j] * dims[j]
                                      for j in range(len(dims)))
    return tuple(out)


def _assemble(rep: QuiverRep, vertex: int, at_sink: bool):
    """The arrows at the vertex as (index, far end) pairs, the slot offset of
    each, the total far dimension, and the matrix the reflection eliminates:
    row r holds row r of every incoming matrix (into a sink) or column r of
    every outgoing one (out of a source), side by side."""
    arrows = [(i, a.src if at_sink else a.tgt) for i, a in enumerate(rep.quiver.arrows)
              if (a.tgt if at_sink else a.src) == vertex]
    offs = list(accumulate((rep.dims[u] for _, u in arrows), initial=0))
    total = offs.pop()
    if at_sink:
        rows = [[x for i, _ in arrows for x in rep.maps[i][r]]
                for r in range(rep.dims[vertex])]
    else:
        rows = [[row[r] for i, _ in arrows for row in rep.maps[i]]
                for r in range(rep.dims[vertex])]
    return arrows, offs, total, rows


def _reflect(rep: QuiverRep, vertex: int, at_sink: bool) -> QuiverRep:
    arrows, offs, total, rows = _assemble(rep, vertex, at_sink)
    kernel = linalg.nullspace(rows) if rows else \
        [[int(i == j) for i in range(total)] for j in range(total)]
    new_dims = list(rep.dims)
    new_dims[vertex] = len(kernel)
    new_maps = list(rep.maps)
    for (idx, u), off in zip(arrows, offs):
        d = rep.dims[u]
        block = [vec[off:off + d] for vec in kernel]  # one row per kernel vector
        new_maps[idx] = _freeze(list(zip(*block)), d) if at_sink else tuple(map(tuple, block))
    return _make(rep.quiver.reverse_at(vertex), tuple(new_dims), tuple(new_maps))


def reflect_plus(rep: QuiverRep, vertex: int) -> QuiverRep:
    """Reflection at a sink: the new space is the kernel of the assembled map
    into the sink, and the reversed arrows are the block components of the
    kernel inclusion."""
    if vertex not in rep.quiver.sinks():
        raise PreconditionError(f"vertex {vertex} is not a sink")
    return _reflect(rep, vertex, True)


def reflect_minus(rep: QuiverRep, vertex: int) -> QuiverRep:
    """Reflection at a source: the new space is the cokernel of the assembled
    map out of the source, as the kernel of its transpose, and the reversed
    arrows are the block components of the cokernel projection."""
    if vertex not in rep.quiver.sources():
        raise PreconditionError(f"vertex {vertex} is not a source")
    return _reflect(rep, vertex, False)


def assembled_rank(rep: QuiverRep, vertex: int) -> int:
    """Rank of the combined map at the vertex: into a sink, the matrices of
    the incoming arrows side by side; out of a source, the matrices of the
    outgoing arrows stacked."""
    sinks = rep.quiver.sinks()
    if vertex not in sinks + rep.quiver.sources():
        raise PreconditionError(f"vertex {vertex} is neither sink nor source")
    return linalg.rank(_assemble(rep, vertex, vertex in sinks)[3])


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
    offsets = list(accumulate((a.dims[v] * b.dims[v] for v in range(size)), initial=0))
    total = offsets.pop()
    if total == 0:
        return [[] for _ in range(size)]
    equations = []
    for idx, arrow in enumerate(a.quiver.arrows):
        s, t = arrow.src, arrow.tgt
        for r in range(a.dims[t]):
            for c in range(b.dims[s]):
                row = [0] * total
                # (phi_t . B_arrow  -  A_arrow . phi_s)[r][c] = 0
                for m in range(b.dims[t]):
                    row[offsets[t] + r * b.dims[t] + m] += b.maps[idx][m][c]
                for m in range(a.dims[s]):
                    row[offsets[s] + m * b.dims[s] + c] -= a.maps[idx][r][m]
                equations.append(row)
    basis = linalg.nullspace(equations) if equations else \
        [[int(i == j) for i in range(total)] for j in range(total)]
    if not basis:
        return None
    # The basis is ints / big with ints integral, so a trial sum_i c_i basis_i is
    # w / big with w = sum_i c_i ints_i: the ranks are taken on the integer
    # blocks of w, and only the blocks returned are divided.
    big, ints = linalg.integer_rows(basis)
    ones = [1] * len(ints)
    rng = random.Random(seed)
    for trial in range(ISO_ATTEMPTS):
        coeffs = ones if trial == 0 else [rng.randint(-3, 3) for _ in ints]
        vec = [sum(c * u[i] for c, u in zip(coeffs, ints)) for i in range(total)]
        blocks = [[vec[offsets[v] + r * b.dims[v]:offsets[v] + (r + 1) * b.dims[v]]
                   for r in range(a.dims[v])] for v in range(size)]
        if all(linalg.rank(blocks[v]) == a.dims[v] for v in range(size)):
            return [[[Fraction(x, big) for x in row] for row in block]
                    for block in blocks]
    return None


def round_trip_isomorphism(rep: QuiverRep, vertex: int):
    """Reflect at a sink and back, then exhibit an explicit invertible
    intertwiner to the original representation, or return None."""
    return round_trip_from(rep, reflect_plus(rep, vertex), vertex)


def round_trip_from(rep: QuiverRep, reflected: QuiverRep, vertex: int):
    """`round_trip_isomorphism` for a sink reflection already made:
    reflect back and solve for the intertwiner.

    The intertwiner ansatz is the identity away from the reflected vertex,
    so the double reflection must leave every matrix there untouched, and
    only the vertex block is solved for.  When the assembled map at the sink
    is surjective that block is forced and invertible.
    """
    back = reflect_minus(reflected, vertex)
    if back.dims != rep.dims or any(
            back.maps[i] != rep.maps[i] for i, a in enumerate(rep.quiver.arrows)
            if vertex not in (a.src, a.tgt)):
        return None
    d = rep.dims[vertex]
    if d == 0:
        return back, []
    arrows, _, _, assembled = _assemble(rep, vertex, True)
    # phi . back_map = rep_map on every arrow into the vertex: row r of phi
    # solves one coefficient matrix (the assembled back map, transposed) for
    # row r of the assembled map, so one elimination solves them all.
    coeff = [[back.maps[i][m][c] for m in range(d)]
             for i, u in arrows for c in range(rep.dims[u])]
    phi = linalg.solve_many(coeff, assembled)
    if phi is None or linalg.rank(phi) < d:
        return None
    return back, phi


def _randints(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """count integers uniform in low..high, each what rng.randint(low, high)
    returns: CPython's rejection rule draws k = n.bit_length() bits for the n
    values and draws again while the result is at least n."""
    n = high - low + 1
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(low + r)
    return out


def random_representation(quiver: OrientedQuiver, rng: random.Random,
                          max_dim: int = 4, low: int = -2, high: int = 2) -> QuiverRep:
    """Dimensions uniform in 1..max_dim, then each arrow's matrix row by row
    with integer entries uniform in low..high: the same values, and the same
    generator state after, as drawing each one with rng.randint."""
    if max_dim < 1 or low > high:
        raise PreconditionError(
            f"random representations need max_dim >= 1 and low <= high, got "
            f"max_dim={max_dim}, low={low}, high={high}")
    dims = tuple(_randints(rng, 1, max_dim, quiver.size))
    shapes = [(dims[a.tgt], dims[a.src]) for a in quiver.arrows]
    values = iter(_randints(rng, low, high, sum(r * c for r, c in shapes)))
    return _make(quiver, dims, tuple(tuple(islice(zip(*[values] * cols), rows))
                                     for rows, cols in shapes))
