"""Integer lattices, finite-index sublattices, and torsion points.

Lattices carry no complex structure at all: every computation downstream
depends only on the integral data, so a lattice is just a rank and a tuple
of basis labels. Torsion points are rational coordinate vectors reduced
mod 1, with exact coordinate-wise equality.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from .errors import DegenerateEmbedding, IncompatibleLattice, InvalidOrder
from .linalg import determinant, diagonal, smith_normal_form, transpose
from .record import Record


def reduce_mod1(x):
    """x mod 1 as a Fraction in [0, 1); a Fraction already there is returned."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if 0 <= x.numerator < x.denominator:
        return x
    return x - (x.numerator // x.denominator)


def parse_rational(text):
    """Fraction(text), refusing exponent notation: "1e99999999" takes minutes."""
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted: %r" % text)
    return Fraction(text)


class Lattice(Record):
    rank: int
    basis_labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if self.rank < 1 or self.rank != len(self.basis_labels):
            raise ValueError("rank must match the number of basis labels")
        if len(set(self.basis_labels)) != self.rank:
            raise ValueError("basis labels must be pairwise distinct")

    def to_json(self):
        return {"rank": self.rank, "basis_labels": list(self.basis_labels)}


class TorsionPoint(Record):
    lattice: Lattice
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           tuple(reduce_mod1(c) for c in self.coords))
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate count must equal the lattice rank")

    def __add__(self, other):
        if self.lattice != other.lattice:
            raise IncompatibleLattice("points on different lattices")
        return TorsionPoint(self.lattice,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return TorsionPoint(self.lattice, tuple(-c for c in self.coords))

    def scale(self, n):
        return TorsionPoint(self.lattice, tuple(n * c for c in self.coords))

    @property
    def is_origin(self):
        return all(c == 0 for c in self.coords)

    def order(self):
        return lcm(*(c.denominator for c in self.coords))

    def to_json(self):
        return [str(c) for c in self.coords]


def origin(lattice):
    return TorsionPoint(lattice, (Fraction(0),) * lattice.rank)


class SublatticeEmbedding(Record):
    ambient: Lattice
    sub: Lattice
    matrix: tuple  # columns express sub basis vectors in ambient coordinates

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(int(x) for x in row) for row in self.matrix))
        if len(self.matrix) != self.ambient.rank or any(
                len(row) != self.sub.rank for row in self.matrix):
            raise ValueError("matrix must be ambient.rank x sub.rank")
        _, d, _ = smith_normal_form([list(r) for r in self.matrix])
        if sum(1 for x in diagonal(d) if x != 0) != self.sub.rank:
            raise ValueError("matrix must have full column rank")

    def rows(self):
        return [list(r) for r in self.matrix]


def _require_square_full_rank(e):
    if e.ambient.rank != e.sub.rank:
        raise DegenerateEmbedding("embedding is not square")
    det = determinant(e.rows())
    if det == 0:
        raise DegenerateEmbedding("embedding matrix is singular")
    return det


def sublattice_index(e):
    """|ambient / sub| = |det| of the embedding matrix."""
    return abs(_require_square_full_rank(e))


class FiniteAbelianGroup(Record):
    invariant_factors: tuple
    generators: tuple  # TorsionPoints, aligned with the factors

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors",
                           tuple(int(d) for d in self.invariant_factors))
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(self.invariant_factors) != len(self.generators):
            raise ValueError("one generator per invariant factor")
        for d, g in zip(self.invariant_factors, self.generators):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if g.order() != d:
                raise ValueError("generator order must equal its factor")

    def order(self):
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def elements(self):
        """All elements of the span, sorted by coordinates."""
        if not self.generators:
            return []
        lat = self.generators[0].lattice
        pts = set()
        for ks in product(*(range(d) for d in self.invariant_factors)):
            p = origin(lat)
            for k, g in zip(ks, self.generators):
                p = p + g.scale(k)
            pts.add(p)
        return sorted(pts, key=lambda p: p.coords)

    def to_json(self):
        return {"invariant_factors": list(self.invariant_factors),
                "generators": [g.to_json() for g in self.generators]}


def quotient_group(e):
    """ambient/sub as a group of torsion points of the torus of the sublattice.

    With U*E*V = D, the coset of ambient basis vector U^-1 e_i has order d_i
    and sub-coordinates (column i of V)/d_i; the non-unit d_i are the
    invariant factors.
    """
    _require_square_full_rank(e)
    _, d, v = smith_normal_form(e.rows())
    cols = transpose(v)
    pairs = []
    for i, di in enumerate(diagonal(d)):
        if di > 1:
            coords = tuple(Fraction(x, di) for x in cols[i])
            pairs.append((di, TorsionPoint(e.sub, coords)))
    pairs.sort(key=lambda fg: (fg[0], fg[1].coords))
    return FiniteAbelianGroup(tuple(f for f, _ in pairs),
                              tuple(g for _, g in pairs))


def torsion_subgroup(lattice, n):
    """All n-torsion points (1/n)L / L, in lexicographic coordinate order."""
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    steps = [Fraction(k, n) for k in range(n)]
    return [TorsionPoint(lattice, c) for c in product(steps, repeat=lattice.rank)]
