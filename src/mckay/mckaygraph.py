"""McKay graphs, their affine ADE classification, and vertex parity.

The multiplicity matrix n[i][j] counts copies of the irreducible i inside the
tensor product of the defining 2-dim representation with the irreducible j;
for a subgroup of SL(2, C) it is symmetric with zero diagonal and its graph
is an extended Dynkin diagram of type A, D or E.  Recognition reads the type
off the imaginary root delta, the positive null vector of the Cartan matrix
(Happel-Preiser-Ringel: a graph with one is affine ADE), then walks the graph
breadth-first onto the one reference diagram of that type, so the output is a
certified vertex bijection, not just a label.  Multiplicity matrices (not
simple graphs) are the carrier throughout: the double edge of A1~ is a
first-class case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .chartab import CharacterTable
from .errors import ConsistencyError, PreconditionError
from .groups import MatrixGroup


# ---------------------------------------------------------------------------
# Reference diagrams
# ---------------------------------------------------------------------------

def _cycle(m: int) -> list[list[int]]:
    # The 2-cycle's two edges join one pair of vertices: A1~'s double edge.
    size = m + 1
    n = [[0] * size for _ in range(size)]
    for i in range(size):
        j = (i + 1) % size
        n[i][j] += 1
        n[j][i] += 1
    return n


def _affine_d(m: int) -> list[list[int]]:
    # Vertices: leaves 0,1 on vertex 2; path 2..m-2; leaves m-1,m on vertex m-2.
    size = m + 1
    n = [[0] * size for _ in range(size)]

    def edge(a, b):
        n[a][b] = n[b][a] = 1

    edge(0, 2)
    edge(1, 2)
    for v in range(2, m - 2):
        edge(v, v + 1)
    edge(m - 2, m - 1)
    edge(m - 2, m)
    return n


def _affine_e(k: int) -> list[list[int]]:
    # Vertices numbered ring by ring from the arm tips inward, center last,
    # so the E6~ reference null vector reads (1,1,1,2,2,2,3).
    arms = {6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}[k]
    size = k + 1
    center = size - 1
    ids = {}
    next_id = 0
    for dist in range(max(arms), 0, -1):
        for a, length in enumerate(arms):
            if dist <= length:
                ids[(a, dist)] = next_id
                next_id += 1
    n = [[0] * size for _ in range(size)]
    for a, length in enumerate(arms):
        prev = center
        for dist in range(1, length + 1):
            v = ids[(a, dist)]
            n[prev][v] = n[v][prev] = 1
            prev = v
    return n


def reference_diagram(label: str) -> list[list[int]]:
    """Adjacency (multiplicity) matrix of a reference affine diagram.

    Labels: ``A<n>~`` for n >= 1, ``D<n>~`` for n >= 4, ``E6~``, ``E7~``,
    ``E8~``.
    """
    kind, num = label[:1], label[1:-1]
    if label.endswith("~") and num.isascii() and num.isdigit():
        num = int(num)
        if kind == "A" and num >= 1:
            return _cycle(num)
        if kind == "D" and num >= 4:
            return _affine_d(num)
        if kind == "E" and num in (6, 7, 8):
            return _affine_e(num)
    raise PreconditionError(f"unknown diagram label {label!r}")


def breadth_first(n, root: int) -> list[tuple[int, int | None]]:
    """(vertex, parent) pairs in breadth-first order from root, over the
    vertices reachable in the multiplicity matrix n; neighbours in index
    order, and the root's parent is None."""
    order = [(root, None)]
    seen = {root}
    for v, _ in order:  # the list grows while it is walked
        for x, m in enumerate(n[v]):
            if m and x not in seen:
                seen.add(x)
                order.append((x, v))
    return order


def _find_isomorphism(n, delta, ref, ref_delta) -> list[int] | None:
    """Vertex bijection f with n[i][j] == ref[f(i)][f(j)], or None.

    Vertices are placed in breadth-first order from a vertex of maximal
    (degree, delta), each among the unused neighbours of its parent's image
    with the same (degree, delta), and each placement is checked against every
    vertex placed so far.  On an affine ADE diagram any candidate that passes
    extends to an isomorphism, so the first one is taken and nothing is undone.
    """
    size = len(n)
    key = [(sum(row), d) for row, d in zip(n, delta)]
    ref_key = [(sum(row), d) for row, d in zip(ref, ref_delta)]
    f: dict[int, int] = {}
    for v, parent in breadth_first(n, max(range(size), key=key.__getitem__)):
        pool = range(size) if parent is None else [
            w for w in range(size) if ref[f[parent]][w]]
        for w in pool:
            if ref_key[w] != key[v] or w in f.values():
                continue
            f[v] = w
            if all(n[v][u] == ref[w][f[u]] and n[u][v] == ref[f[u]][w] for u in f):
                break
            del f[v]
        else:
            return None
    return [f[v] for v in range(size)] if len(f) == size else None


@dataclass(frozen=True)
class ADEClassification:
    """Result of affine ADE recognition.

    ``label`` is None for a not-ADE verdict.  ``iso`` maps input vertices to
    reference-diagram vertices.  ``delta`` is the primitive positive integer
    null vector of the Cartan matrix (the imaginary root), in input order.
    """

    label: str | None
    iso: tuple[int, ...] | None
    delta: tuple[int, ...] | None

    @property
    def is_ade(self) -> bool:
        return self.label is not None


def _null_delta(cartan) -> tuple[int, ...] | None:
    basis = linalg.nullspace([[Fraction(x) for x in row] for row in cartan])
    if len(basis) != 1:
        return None
    delta = linalg.primitive_integer_vector(basis[0])
    if any(d <= 0 for d in delta):
        return None
    return tuple(delta)


def _cartan(n) -> list[list[int]]:
    return [[(2 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(n)]


def classify_affine_ade(n) -> ADEClassification:
    """Recognize an affine ADE multiplicity matrix by its imaginary root.

    No positive null vector delta of the Cartan matrix means not ADE.  Else
    max(delta) = 1, 2 or more (3, 4, 6) gives type A, D or E of rank size - 1,
    and one bijection search onto that reference certifies it; a positive
    delta with no bijection is a `ConsistencyError`.
    """
    delta = _null_delta(_cartan(n))
    if delta is None:
        return ADEClassification(label=None, iso=None, delta=None)
    top = max(delta)
    label = f"{'A' if top == 1 else 'D' if top == 2 else 'E'}{len(n) - 1}~"
    try:
        ref = reference_diagram(label)
    except PreconditionError:
        iso = None
    else:
        iso = _find_isomorphism(n, delta, ref, _null_delta(_cartan(ref)))
    if iso is None:
        raise ConsistencyError(
            f"the Cartan matrix has the positive null vector {delta}, "
            f"but the graph is not {label}")
    return ADEClassification(label=label, iso=tuple(iso), delta=delta)


def parity_function(table: CharacterTable, group: MatrixGroup,
                    n=None) -> tuple[int, ...]:
    """Vertex parities: 0 when -I acts trivially on the irreducible, 1 when it
    acts by -1.  Requires -I in the group; adjacent vertices must disagree.
    """
    if not group.contains_minus_identity():
        raise PreconditionError(
            f"{group.descriptor.label} does not contain -I; parity is undefined")
    cls = group.conjugacy_classes().class_of[group.minus_identity]
    parity = []
    for i in range(table.count):
        value = table.values[i][cls]
        if value == table.dims[i]:
            parity.append(0)
        elif value == -table.dims[i]:
            parity.append(1)
        else:
            raise ConsistencyError(f"-I acts on irreducible {i} by a non-scalar")
    if n is not None:
        for i in range(len(n)):
            for j in range(len(n)):
                if n[i][j] and parity[i] == parity[j]:
                    raise ConsistencyError(
                        f"adjacent vertices {i}, {j} share parity {parity[i]}")
    return tuple(parity)


@dataclass(frozen=True)
class McKayGraph:
    """The McKay graph of a built group, with classification and parity.

    ``edges`` lists the undirected edges with multiplicity expanded, each
    carrying its fixed positive direction (low index -> high index); this is
    the orientation convention the preprojective relations are written in.
    ``parity`` is None when the group lacks -I.
    """

    descriptor: str
    n: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    classification: ADEClassification
    affine_node: int
    parity: tuple[int, ...] | None
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.n)

    @property
    def delta(self) -> tuple[int, ...] | None:
        return self.classification.delta

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.size) if self.n[i][j]]

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "n": [list(row) for row in self.n],
            "cartan": [list(row) for row in self.cartan],
            "type": self.classification.label,
            "delta": list(self.delta) if self.delta else None,
            "affine_node": self.affine_node,
            "parity": list(self.parity) if self.parity is not None else None,
            "dims": list(self.dims),
        }


def mckay_graph(group: MatrixGroup, table: CharacterTable) -> McKayGraph:
    """Assemble the McKay graph; the trivial character sits at the affine node."""
    n = table.mckay_matrix
    size = len(n)
    for i in range(size):
        if n[i][i]:
            raise PreconditionError(
                f"vertex {i} carries a loop (n_ii = {n[i][i]}); "
                "the McKay graph machinery needs a loop-free diagram")
    cartan = tuple(tuple(row) for row in _cartan(n))
    classification = classify_affine_ade(n)
    parity = None
    if group.contains_minus_identity():
        parity = parity_function(table, group, n)
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            edges.extend([(i, j)] * n[i][j])
    return McKayGraph(
        descriptor=group.descriptor.label,
        n=n,
        cartan=cartan,
        dims=table.dims,
        classification=classification,
        affine_node=table.trivial_index,
        parity=parity,
        edges=tuple(edges),
    )
