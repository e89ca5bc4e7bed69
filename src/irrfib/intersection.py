"""Intersection numbers on labeled divisor lattices, plus kernel-curve degrees.

Two small calculi live here. The first is a symmetric pairing on a finite
list of named curve classes, used for the quotient surface whose canonical
class sits in a pencil configuration. The second is the numerical
intersection of kernel curves on a product of two elliptic curves, with a
brute-force counting oracle kept deliberately separate from the closed form.
"""

from itertools import product
from math import gcd
from operator import index

from .errors import (IncompatibleLattice, InvalidModulus, IrrfibError,
                     NonPrimitive)
from .record import Record


class IntersectionLattice(Record):
    basis_labels: tuple
    gram: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        object.__setattr__(self, "gram", tuple(map(tuple, self.gram)))
        n = len(self.basis_labels)
        if (not all(isinstance(x, str) for x in self.basis_labels)
                or len(set(self.basis_labels)) != n):
            raise ValueError("basis labels must be pairwise distinct strings")
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise ValueError("gram must be square of size len(basis_labels)")
        if not all(type(x) is int for row in self.gram for x in row):
            raise ValueError("gram entries must be integers")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")

    @property
    def rank(self):
        return len(self.basis_labels)

    def basis_class(self, label):
        i = self.basis_labels.index(label)
        return DivisorClass(self, tuple(1 if j == i else 0 for j in range(self.rank)))


class DivisorClass(Record):
    lattice: IntersectionLattice
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        if len(self.coeffs) != self.lattice.rank:
            raise ValueError("coefficient vector must match the basis")

    def __add__(self, other):
        if self.lattice != other.lattice:
            raise IncompatibleLattice("classes live on different lattices")
        return DivisorClass(self.lattice,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return DivisorClass(self.lattice, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def to_json(self):
        return list(self.coeffs)


def dot(a, b):
    if a.lattice != b.lattice:
        raise IncompatibleLattice("classes live on different lattices")
    g = a.lattice.gram
    return sum(a.coeffs[i] * g[i][j] * b.coeffs[j]
               for i in range(len(g)) for j in range(len(g)))


# The (-1)/(-2)/(-3) configuration: two sections Y1, Y2, two (-2)-curves
# Z1, Z2 and a (-3)-curve W. The fibre classes below are supported on
# complementary halves of the configuration.

PEN6_LABELS = ("Y1", "Y2", "Z1", "Z2", "W")
PEN6_F1 = (3, 0, 2, 1, 1)
PEN6_F2 = (0, 3, 1, 2, 1)
PEN6_CANONICAL = (2, 2, 2, 2, 1)

# The pairing. Stated: the self-intersections, Y1.Y2 = 0, Z1.Z2 = 1 and
# W.Z_i = 0. The six products of a section with Z1, Z2 or W are solved from
# fibre-component orthogonality: derive_pen6_pairings recomputes them from
# the stated entries alone.
PEN6_GRAM = ((-1, 0, 1, 0, 1),
             (0, -1, 0, 1, 1),
             (1, 0, -2, 1, 0),
             (0, 1, 1, -2, 0),
             (1, 1, 0, 0, -3))


def derive_pen6_pairings():
    """Re-derive the six section products from fibre orthogonality.

    A fibre class has zero intersection with each of its own components.
    Each section Y has coefficient 3 in its fibre F and 0 in the other, so
    F.C = 0 for C = Z1, Z2, W has one unknown, Y.C, found by one exact
    division; F.Y = 0 then checks all three. A remainder or a nonzero F.Y
    means the stated entries are inconsistent.
    """
    shared = [PEN6_LABELS.index(c) for c in ("Z1", "Z2", "W")]
    derived = {}
    for name, fibre, y in (("F1", PEN6_F1, 0), ("F2", PEN6_F2, 1)):
        section = PEN6_LABELS[y]
        f_dot_y = fibre[y] * PEN6_GRAM[y][y]
        for c in shared:
            value, rest = divmod(
                -sum(fibre[i] * PEN6_GRAM[i][c] for i in shared), fibre[y])
            if rest:
                raise IrrfibError("%s.%s = 0 has no integer %s.%s" % (
                    name, PEN6_LABELS[c], section, PEN6_LABELS[c]))
            derived[section, PEN6_LABELS[c]] = value
            f_dot_y += fibre[c] * value
        if f_dot_y:
            raise IrrfibError("%s.%s is %d, not 0" % (name, section, f_dot_y))
    return derived


def pen6_lattice():
    return IntersectionLattice(PEN6_LABELS, PEN6_GRAM)


def pen6_fibres(l):
    return DivisorClass(l, PEN6_F1), DivisorClass(l, PEN6_F2)


def serrano_canonical_pen6(l):
    if l.basis_labels != PEN6_LABELS:
        raise IncompatibleLattice("expected the pen6 basis")
    k = DivisorClass(l, PEN6_CANONICAL)
    f1, _ = pen6_fibres(l)
    # coefficient identity K - F1 = 2Y2 - Y1 + Z2, used as the nef test class
    if (k - f1).coeffs != (-1, 2, 0, 1, 0):
        raise IrrfibError("K - F1 is not 2Y2 - Y1 + Z2")
    return k


def nef_violation_certificate(d, nef):
    """Pairing of d against a caller-asserted nef class, if negative.

    A negative value certifies that d is not effective; None means the test
    is silent.
    """
    v = dot(d, nef)
    return v if v < 0 else None


class KernelCurve(Record):
    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", index(self.p))
        object.__setattr__(self, "q", index(self.q))
        if gcd(self.p, self.q) != 1:
            raise NonPrimitive("(p, q) must be coprime")

    def to_json(self):
        return [self.p, self.q]


def kernel_dot(c1, c2):
    """Intersection number of two kernel curves: det((p1,q1),(p2,q2))^2."""
    return (c1.p * c2.q - c1.q * c2.p) ** 2


def degree_vs_product_polarization(c):
    """Degree against the product polarization, as a sum over the factors."""
    return kernel_dot(c, KernelCurve(1, 0)) + kernel_dot(c, KernelCurve(0, 1))


def kernel_dot_oracle(c1, c2, m):
    """Count the common m-torsion of the two kernels by raw enumeration.

    A point of E x E has one (Z/m)^2 coordinate pair per factor, and each
    kernel imposes the same relation on both pairs, so the four
    congruences split into two identical systems over (Z/m)^2. Every cell
    of (Z/m)^2 is tested and the one-factor count is squared. When m is a
    multiple of |p1 q2 - q1 p2| != 0 this equals kernel_dot(c1, c2).
    """
    if not isinstance(m, int) or m < 2:
        raise InvalidModulus("modulus must be an integer >= 2")
    count = 0
    for x, y in product(range(m), repeat=2):
        if (c1.p * x + c1.q * y) % m == 0 and (c2.p * x + c2.q * y) % m == 0:
            count += 1
    return count ** 2
