"""The finite subgroups of SL(2, C) as explicit matrix groups over cyclotomic
fields: cyclic, binary dihedral, and the binary tetrahedral, octahedral and
icosahedral groups.

Each family is enumerated by breadth-first closure of a documented generator
set; the groups are tiny (at most 120 elements), so clarity wins over
cleverness.  Elements are 2x2 matrices of CycloNum at a fixed ambient
conductor per family; the closure keys them on their exact integer
representation and fills the integer multiplication (Cayley) table, so
every later product is a table lookup.  A 2x2 product skips each term with a
zero factor: most generators are monomial, so about half the terms vanish.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ConsistencyError, PreconditionError
from .exactnum import CycloNum

FAMILIES = ("cyclic", "binary_dihedral", "binary_tetrahedral",
            "binary_octahedral", "binary_icosahedral")

_SHORT = {"binary_tetrahedral": "2T", "binary_octahedral": "2O",
          "binary_icosahedral": "2I"}


@dataclass(frozen=True)
class GroupDescriptor:
    """Which group to build; `n` is used by the cyclic and dihedral families."""

    family: str
    n: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PreconditionError(f"unknown family {self.family!r}")
        if self.family in ("cyclic", "binary_dihedral") and self.n < 1:
            raise PreconditionError(f"{self.family} requires n >= 1")

    @property
    def order(self) -> int:
        return {"cyclic": self.n, "binary_dihedral": 4 * self.n,
                "binary_tetrahedral": 24, "binary_octahedral": 48,
                "binary_icosahedral": 120}[self.family]

    @property
    def conductor(self) -> int:
        if self.family == "cyclic":
            return 2 * self.n if self.n % 2 == 0 else self.n
        if self.family == "binary_dihedral":
            return 4 * self.n
        if self.family == "binary_icosahedral":
            return 20
        return 8

    @property
    def label(self) -> str:
        if self.family == "cyclic":
            return f"cyclic:{self.n}"
        if self.family == "binary_dihedral":
            return f"bd:{self.n}"
        return _SHORT[self.family]


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse the CLI grammar: cyclic:n, bd:n, 2T, 2O, 2I."""
    t = text.strip()
    upper = t.upper()
    for family, short in _SHORT.items():
        if upper == short:
            return GroupDescriptor(family)
    head, _, tail = t.partition(":")
    # ASCII digits only: int() also reads "１２", "+12" and " 12".
    if head in ("cyclic", "bd") and tail.isascii() and tail.isdigit():
        try:
            n = int(tail)
        except ValueError:  # more digits than int() converts
            raise PreconditionError(f"bad group descriptor {text!r}") from None
        return GroupDescriptor("cyclic" if head == "cyclic" else "binary_dihedral", n)
    raise PreconditionError(f"bad group descriptor {text!r}")


class Mat2:
    """Immutable 2x2 matrix of CycloNum, compared entrywise; not hashable."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(_dot(self.a, other.a, self.b, other.c),
                    _dot(self.a, other.b, self.b, other.d),
                    _dot(self.c, other.a, self.d, other.c),
                    _dot(self.c, other.b, self.d, other.d))

    def det(self) -> CycloNum:
        return _dot(self.a, self.d, -self.b, self.c)

    def trace(self) -> CycloNum:
        return self.a + self.d

    def __neg__(self) -> Mat2:
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}; {self.c!r}, {self.d!r})"


def _dot(x: CycloNum, y: CycloNum, z: CycloNum, w: CycloNum) -> CycloNum:
    """x y + z w, skipping a term with a zero factor; with both skipped the
    sum is the second term's zero factor (all at one conductor)."""
    if x and y:
        return x * y + z * w if z and w else x * y
    return z * w if z and w else (w if z else z)


def _generators(desc: GroupDescriptor) -> list[Mat2]:
    n = desc.conductor

    def num(value) -> CycloNum:
        return CycloNum(n, [Fraction(value)])

    def zeta(order: int, power: int = 1) -> CycloNum:
        return CycloNum.root_of_unity(n, (n // order) * power)

    j_mat = Mat2(num(0), num(1), num(-1), num(0))

    if desc.family == "cyclic":
        return [Mat2(zeta(desc.n), num(0), num(0), zeta(desc.n, desc.n - 1))]

    if desc.family == "binary_dihedral":
        a = Mat2(zeta(2 * desc.n), num(0), num(0), zeta(2 * desc.n, 2 * desc.n - 1))
        return [a, j_mat]

    if desc.family in ("binary_tetrahedral", "binary_octahedral"):
        i = zeta(4)
        half = Fraction(1, 2)
        i_mat = Mat2(i, num(0), num(0), -i)
        # The quaternion (-1 + i + j + k)/2 as a matrix: an order-3 element.
        w_mat = Mat2((i - 1) * half, (i + 1) * half, (i - 1) * half, (-i - 1) * half)
        gens = [i_mat, j_mat, w_mat]
        if desc.family == "binary_octahedral":
            gens.append(Mat2(zeta(8), num(0), num(0), zeta(8, 7)))
        return gens

    # Binary icosahedral: the quaternions (1+i+j+k)/2 and (phi + i/phi + j)/2,
    # with phi the golden ratio, written over Q(z_20).
    i = zeta(4)
    sqrt5 = zeta(5) - zeta(5, 2) - zeta(5, 3) + zeta(5, 4)
    half = Fraction(1, 2)
    phi = (sqrt5 + 1) * half
    phi_inv = (sqrt5 - 1) * half
    sigma = Mat2((1 + i) * half, (1 + i) * half, (i - 1) * half, (1 - i) * half)
    tau = Mat2((phi + i * phi_inv) * half, num(half),
               num(-half), (phi - i * phi_inv) * half)
    return [sigma, tau]


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of element indices into conjugacy classes.

    Classes are ordered by their smallest element index, so the identity class
    is always class 0.  Representatives are those smallest elements.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    reps: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


class MatrixGroup:
    """An enumerated finite subgroup of SL(2, C).

    Immutable after construction; `mul` reads the table `build_group` fills.
    """

    def __init__(self, descriptor: GroupDescriptor, elements: list[Mat2],
                 generators: list[int], table: list[list[int]],
                 minus_identity: int | None):
        self.descriptor = descriptor
        self.elements = elements
        self.generator_indices = generators
        self._table = table
        self.inverse = tuple(row.index(0) for row in table)
        self.minus_identity = minus_identity
        self._classes: ConjugacyClasses | None = None
        self._powers: tuple[tuple[int, ...], ...] | None = None
        self._traces: tuple[CycloNum, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self._table[i][j]

    def power_classes(self) -> tuple[tuple[int, ...], ...]:
        """Per class, the classes of r^0, ..., r^(o-1) for its representative r
        of order o, so r^a is in class entry a % o; computed once."""
        if self._powers is None:
            data, powers = self.conjugacy_classes(), []
            for r in data.reps:
                row, x = [0], r  # the identity is class 0
                while x:
                    row.append(data.class_of[x])
                    x = self.mul(x, r)
                powers.append(tuple(row))
            self._powers = tuple(powers)
        return self._powers

    def element_order(self, i: int) -> int:
        return len(self.power_classes()[self.conjugacy_classes().class_of[i]])

    def exponent(self) -> int:
        return lcm(*map(len, self.power_classes()))

    def contains_minus_identity(self) -> bool:
        return self.minus_identity is not None

    def conjugacy_classes(self) -> ConjugacyClasses:
        if self._classes is None:
            gens = self.generator_indices
            gen_invs = [self.inverse[g] for g in gens]
            seen = [False] * self.order
            classes = []
            for start in range(self.order):
                if seen[start]:
                    continue
                orbit = {start}
                queue = [start]
                seen[start] = True
                while queue:
                    x = queue.pop()
                    for g, gi in zip(gens, gen_invs):
                        y = self.mul(gi, self.mul(x, g))
                        if y not in orbit:
                            orbit.add(y)
                            seen[y] = True
                            queue.append(y)
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda cls: cls[0])
            class_of = [0] * self.order
            for ci, cls in enumerate(classes):
                for x in cls:
                    class_of[x] = ci
            self._classes = ConjugacyClasses(
                classes=tuple(classes),
                class_of=tuple(class_of),
                reps=tuple(cls[0] for cls in classes),
            )
        return self._classes

    def centralizer_orders(self) -> tuple[int, ...]:
        return tuple(self.order // s for s in self.conjugacy_classes().sizes)

    def traces(self) -> tuple[CycloNum, ...]:
        """Trace of each class representative: the defining 2-dim character,
        computed on the first call."""
        if self._traces is None:
            self._traces = tuple(self.elements[r].trace().reduced()
                                 for r in self.conjugacy_classes().reps)
        return self._traces


@functools.lru_cache(maxsize=None)
def build_group(desc: GroupDescriptor) -> MatrixGroup:
    """Enumerate the group by breadth-first closure of its generators and
    fill its multiplication table.

    Elements are keyed on the integer numerators and denominators of their
    entries, which is exact because every element sits at the family's
    conductor.  Element y is first reached as elements[parent[y]] *
    gens[via[y]], and right[x][k] is the index of elements[x] * gens[k].
    By associativity table[x][y] = right[table[x][parent[y]]][via[y]], and
    parent[y] < y, so each row fills from its own earlier entries with no
    cyclotomic products.

    A closure passing twice the expected order aborts: that can only mean the
    generator matrices are wrong.
    """
    conductor = desc.conductor

    def key(m: Mat2) -> tuple:
        if any(e.conductor != conductor for e in m.entries()):
            raise ConsistencyError(
                f"element of {desc.label} has an entry off conductor {conductor}")
        return tuple((e.den, e.num) for e in m.entries())

    gens = _generators(desc)
    gen_keys = [key(g) for g in gens]
    one, zero = CycloNum(conductor, [1]), CycloNum(conductor, [0])
    identity = Mat2(one, zero, zero, one)
    elements = [identity]
    index = {key(identity): 0}
    parent, via, right = [0], [0], []
    cap = 2 * desc.order
    for xi, x in enumerate(elements):  # the loop also visits appended elements
        row = []
        for k, g in enumerate(gens):
            y = x * g
            ky = key(y)
            got = index.get(ky)
            if got is None:
                got = index[ky] = len(elements)
                elements.append(y)
                parent.append(xi)
                via.append(k)
                if len(elements) > cap:
                    raise ConsistencyError(
                        f"closure of {desc.label} exceeded {cap} elements; "
                        "generator set is wrong")
            row.append(got)
        right.append(row)
    if len(elements) != desc.order:
        raise ConsistencyError(
            f"closure of {desc.label} has {len(elements)} elements, "
            f"expected {desc.order}")
    for m in elements:
        if m.det() != one:
            raise ConsistencyError(f"element of {desc.label} has determinant != 1")
    table = [[x] for x in range(len(elements))]
    for row in table:
        for y in range(1, len(elements)):
            row.append(right[row[parent[y]]][via[y]])
    group = MatrixGroup(desc, elements, [index[k] for k in gen_keys], table,
                        index.get(key(-identity)))
    _check_center(group)
    return group


def _expected_minus_identity(desc: GroupDescriptor) -> bool:
    if desc.family == "cyclic":
        return desc.n % 2 == 0
    return True


def _check_center(group: MatrixGroup) -> None:
    expected = _expected_minus_identity(group.descriptor)
    if group.contains_minus_identity() != expected:
        raise ConsistencyError(
            f"-I presence in {group.descriptor.label} does not match the family")


def group_summary(group: MatrixGroup) -> dict:
    classes = group.conjugacy_classes()
    return {
        "descriptor": group.descriptor.label,
        "order": group.order,
        "conductor": group.descriptor.conductor,
        "num_classes": classes.count,
        "class_sizes": list(classes.sizes),
        "class_orders": [group.element_order(r) for r in classes.reps],
        "centralizer_orders": list(group.centralizer_orders()),
        "exponent": group.exponent(),
        "contains_minus_identity": group.contains_minus_identity(),
    }
