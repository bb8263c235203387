"""Height functions on a McKay graph, the oriented quivers they induce, and
the numeric identities they satisfy.

A height function takes each vertex to an integer matching its parity mod 2
and stepping by exactly one across every edge.  Edges flow downhill, giving
an acyclic orientation; raising a sink by 2 (or lowering a source by 2)
yields another height with the adjacent arrows reversed.  Canonical
enumeration anchors the affine node at its parity value and bounds the
spread, because heights are an infinite family under global shifts and
every identity checked here is shift-covariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import PreconditionError, ResourceLimitError
from .mckaygraph import McKayGraph

#: Most flips one flip path may take.
FLIP_CAP = 10000


class Arrow(NamedTuple):
    src: int
    tgt: int
    edge: int


@dataclass(frozen=True)
class OrientedQuiver:
    """An orientation of the graph: one arrow per undirected edge copy."""

    size: int
    arrows: tuple[Arrow, ...]

    def sinks(self) -> tuple[int, ...]:
        has_out = {a.src for a in self.arrows}
        touched = {a.src for a in self.arrows} | {a.tgt for a in self.arrows}
        return tuple(v for v in range(self.size) if v in touched and v not in has_out)

    def sources(self) -> tuple[int, ...]:
        has_in = {a.tgt for a in self.arrows}
        touched = {a.src for a in self.arrows} | {a.tgt for a in self.arrows}
        return tuple(v for v in range(self.size) if v in touched and v not in has_in)

    def arrows_from(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.src == v]

    def reverse_at(self, v: int) -> OrientedQuiver:
        flipped = tuple(Arrow(a.tgt, a.src, a.edge) if v in (a.src, a.tgt) else a
                        for a in self.arrows)
        return OrientedQuiver(self.size, flipped)


@dataclass(frozen=True)
class HeightFunction:
    """Integer heights on the vertices of a McKay graph with parity."""

    graph: McKayGraph
    values: tuple[int, ...]

    def __post_init__(self):
        if self.graph.parity is None:
            raise PreconditionError(
                "height functions need vertex parity, so the group must contain -I")
        if len(self.values) != self.graph.size:
            raise PreconditionError("height vector has the wrong length")

    def is_valid(self) -> bool:
        parity = self.graph.parity
        if any((h - p) % 2 for h, p in zip(self.values, parity)):
            return False
        return all(abs(self.values[i] - self.values[j]) == 1
                   for i, j in self.graph.edges)

    def require_valid(self) -> None:
        if not self.is_valid():
            raise PreconditionError(f"invalid height function {self.values}")

    def quiver(self) -> OrientedQuiver:
        """Edges flow downhill: each edge is directed from higher to lower end."""
        arrows = []
        for idx, (i, j) in enumerate(self.graph.edges):
            if self.values[i] > self.values[j]:
                arrows.append(Arrow(i, j, idx))
            else:
                arrows.append(Arrow(j, i, idx))
        return OrientedQuiver(self.graph.size, tuple(arrows))

    def sinks(self) -> tuple[int, ...]:
        return self.quiver().sinks()

    def sources(self) -> tuple[int, ...]:
        return self.quiver().sources()

    def with_value(self, vertex: int, value: int) -> HeightFunction:
        vals = list(self.values)
        vals[vertex] = value
        return HeightFunction(self.graph, tuple(vals))


def parity_height(graph: McKayGraph) -> HeightFunction:
    """The base height h = parity."""
    if graph.parity is None:
        raise PreconditionError("graph has no parity data")
    return HeightFunction(graph, tuple(graph.parity))


def flip(h: HeightFunction, vertex: int, direction: str) -> HeightFunction:
    """Raise a sink (direction "plus") or lower a source ("minus") by 2,
    swapping its sink/source status."""
    h.require_valid()
    quiver = h.quiver()
    if direction == "plus":
        if vertex not in quiver.sinks():
            raise PreconditionError(f"vertex {vertex} is not a sink; cannot raise")
        return h.with_value(vertex, h.values[vertex] + 2)
    if direction == "minus":
        if vertex not in quiver.sources():
            raise PreconditionError(f"vertex {vertex} is not a source; cannot lower")
        return h.with_value(vertex, h.values[vertex] - 2)
    raise PreconditionError(f"unknown flip direction {direction!r}")


def enumerate_heights(graph: McKayGraph, window: int) -> list[HeightFunction]:
    """All height functions anchored at the affine node's parity value whose
    spread max(h) - min(h) is at most the window."""
    if window < 1:
        raise PreconditionError("window must be at least 1")
    if graph.parity is None:
        raise PreconditionError(
            "height machinery needs vertex parity, so the group must contain -I")
    size = graph.size
    anchor = graph.affine_node
    # BFS vertex order so each new vertex touches an assigned neighbor.
    order = [anchor]
    seen = {anchor}
    queue = [anchor]
    while queue:
        v = queue.pop(0)
        for w in graph.neighbors(v):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    if len(order) != size:
        raise PreconditionError("graph is not connected")

    results = []
    values: dict[int, int] = {anchor: graph.parity[anchor]}

    def extend(pos: int):
        if pos == len(order):
            results.append(tuple(values[v] for v in range(size)))
            return
        v = order[pos]
        assigned = [values[w] for w in graph.neighbors(v) if w in values]
        candidates = {assigned[0] + 1, assigned[0] - 1}
        for a in assigned[1:]:
            candidates &= {a + 1, a - 1}
        for cand in sorted(candidates):
            span = [cand] + list(values.values())
            if max(span) - min(span) > window:
                continue
            values[v] = cand
            extend(pos + 1)
            del values[v]

    extend(1)
    return [HeightFunction(graph, vals) for vals in sorted(results)]


def path_count(quiver: OrientedQuiver, start: int, end: int) -> int:
    """Directed paths from start to end, counting parallel arrows separately;
    the empty path counts once.  Finite because arrows strictly drop height."""
    memo: dict[int, int] = {}

    def count(v: int) -> int:
        got = memo.get(v)
        if got is not None:
            return got
        total = 1 if v == end else 0
        for a in quiver.arrows_from(v):
            total += count(a.tgt)
        memo[v] = total
        return total

    # memoization is safe: the quiver is acyclic
    return count(start)


def kirillov_check(h: HeightFunction, hom_dim) -> tuple[bool, list[dict]]:
    """Path counts against equivariant Hom dimensions, every ordered pair.

    For vertices i, j the number of paths i -> j must equal
    dim Hom(W_j, Sym^{h(i)-h(j)} V* (x) W_i) (zero for negative exponent).
    """
    h.require_valid()
    quiver = h.quiver()
    size = h.graph.size
    rows = []
    ok = True
    for i in range(size):
        for j in range(size):
            paths = path_count(quiver, i, j)
            dim = hom_dim(j, i, h.values[i] - h.values[j])
            match = paths == dim
            ok = ok and match
            rows.append({"pair": [i, j], "hom_dim": dim,
                         "path_count": paths, "ok": match})
    return ok, rows


def ext_vanishing_check(h: HeightFunction, hom_dim,
                        d_max: int) -> tuple[bool, list[dict]]:
    """First-ext vanishing between twisted projectives, through twist d_max.

    Serre duality turns each Ext group into a Hom space one tangent twist up,
    so the check is hom_dim(l, k, h(k) - h(l) - 2d - 2) == 0 for all pairs.
    """
    h.require_valid()
    size = h.graph.size
    witnesses = []
    for k in range(size):
        for l in range(size):
            for d in range(d_max + 1):
                dim = hom_dim(l, k, h.values[k] - h.values[l] - 2 * d - 2)
                if dim:
                    witnesses.append({"pair": [k, l], "twist": d, "dim": dim})
    return not witnesses, witnesses


def euler_sequence_check(h: HeightFunction, hom_dim, m_max: int) -> bool:
    """Exactness of the three-term sequence at a source, in graded dimensions.

    For a source i the sequence 0 -> F_i(lowered) -> sum of neighbors -> F_i -> 0
    is paired against every twisted projective F_k (x) T^m; pairing on the
    contravariant side keeps every correction term zero, so the alternating
    sum of dimensions must vanish for all k and m >= 0.
    """
    h.require_valid()
    quiver = h.quiver()
    values = h.values
    for i in quiver.sources():
        lowered = values[i] - 2
        for k in range(h.graph.size):
            for m in range(m_max + 1):
                target = values[k] + 2 * m
                total = hom_dim(i, k, target - lowered)
                total -= sum(hom_dim(a.tgt, k, target - values[a.tgt])
                             for a in quiver.arrows_from(i))
                total += hom_dim(i, k, target - values[i])
                if total != 0:
                    return False
    return True


def flip_path(h_from: HeightFunction, h_to: HeightFunction) -> list[tuple[int, str]]:
    """A flip sequence transforming one height into another.

    Greedy and deterministic: among vertices still below the target pick the
    lowest-index sink and raise it; otherwise lower the lowest-index source
    above the target.  Each step shrinks the L1 distance by 2, so the path
    has exactly half that distance in flips, at most FLIP_CAP.
    """
    h_from.require_valid()
    h_to.require_valid()
    flips = sum(abs(a - b) for a, b in zip(h_from.values, h_to.values)) // 2
    if flips > FLIP_CAP:
        raise ResourceLimitError(
            f"the flip path has {flips} flips, above the cap {FLIP_CAP}")
    current = h_from
    steps: list[tuple[int, str]] = []
    while current.values != h_to.values:
        quiver = current.quiver()
        below = [v for v in range(current.graph.size)
                 if current.values[v] < h_to.values[v]]
        if below:
            sinks = set(quiver.sinks())
            vertex = min(v for v in below if v in sinks)
            current = current.with_value(vertex, current.values[vertex] + 2)
            steps.append((vertex, "plus"))
            continue
        above = [v for v in range(current.graph.size)
                 if current.values[v] > h_to.values[v]]
        sources = set(quiver.sources())
        vertex = min(v for v in above if v in sources)
        current = current.with_value(vertex, current.values[vertex] - 2)
        steps.append((vertex, "minus"))
    return steps
