"""Integer lattices, finite-index sublattices, and torsion points.

Lattices carry no complex structure at all: every computation downstream
depends only on the integral data, so a lattice is just a rank and a tuple
of basis labels. Torsion points, like characters, are (lattice, n, nums):
int numerators mod their order n (OnGrid), and their printed coordinates are
read straight off those numerators. `fractions` is imported only where a
rational is parsed or computed (parse_rational, reduce_mod1, from_fractions
and the Fraction views): through `decimal` it costs ~3 ms and ~0.6 MB per
process, and a command that only prints grid elements never loads it.
"""

from itertools import product
from math import gcd, lcm, prod
from operator import index

from .errors import DegenerateEmbedding, IncompatibleLattice, InvalidOrder
from .linalg import determinant, diagonal, smith_normal_form, transpose
from .record import Record


def reduce_mod1(x):
    """x mod 1 as a Fraction in [0, 1); a Fraction already there is returned."""
    from fractions import Fraction
    if type(x) is not Fraction:
        x = Fraction(x)
    if 0 <= x.numerator < x.denominator:
        return x
    return x - (x.numerator // x.denominator)


def parse_rational(text):
    """Fraction(text), refusing exponent notation: "1e99999999" takes minutes."""
    if "e" in text.lower():
        raise ValueError("exponent notation is not accepted: %r" % text)
    from fractions import Fraction
    return Fraction(text)


class OnGrid:
    """A torsion element held as int numerators `nums` mod its order `n`.

    The constructor reduces the numerators mod n and then to lowest terms,
    so n is the element's order and nums are in [0, n). from_fractions is
    the one way in from rational coordinates, and the Fraction views
    (.values, .coords, .e1, .e2) are rebuilt from the grid on each access.
    Elements of a lattice's torus also add and scale here.
    """

    @classmethod
    def from_fractions(cls, values, **fields):
        """The element whose coordinates are the rationals values, mod 1."""
        from fractions import Fraction
        values = [Fraction(v) for v in values]
        n = lcm(*(v.denominator for v in values))
        return cls(n=n, nums=tuple(int(v * n) for v in values), **fields)

    @property
    def _size(self):
        return self.lattice.rank

    def __post_init__(self):
        n = self.n
        if n < 1 or len(self.nums) != self._size:
            raise ValueError("%s needs an order n >= 1 and %d numerators" % (
                type(self).__name__, self._size))
        nums = tuple(k % n for k in self.nums)
        g = gcd(n, *nums)
        if g > 1:
            n, nums = n // g, tuple(k // g for k in nums)
        self.__dict__.update(n=n, nums=nums)

    def _fractions(self, part=slice(None)):
        from fractions import Fraction
        return tuple(Fraction(k, self.n) for k in self.nums[part])

    def texts(self):
        """Each coordinate as str(Fraction(k, n)) prints it, read off the
        numerators (each in [0, n)) with no Fraction built."""
        n = self.n
        return ["%d/%d" % (k // (g := gcd(k, n)), n // g) if k else "0"
                for k in self.nums]

    def nums_over(self, big):
        """The numerators over the denominator big, a multiple of n."""
        return tuple(k * (big // self.n) for k in self.nums)

    def order(self):
        return self.n

    def _plus(self, other, what):
        if self.lattice != other.lattice:
            raise IncompatibleLattice("%s on different lattices" % what)
        n = lcm(self.n, other.n)
        nums = zip(self.nums_over(n), other.nums_over(n))
        return type(self)(self.lattice, n, tuple(x + y for x, y in nums))

    def scale(self, k):
        return type(self)(self.lattice, self.n, tuple(k * c for c in self.nums))


class Lattice(Record):
    rank: int
    basis_labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if self.rank < 1 or self.rank != len(self.basis_labels):
            raise ValueError("rank must match the number of basis labels")
        if len(set(self.basis_labels)) != self.rank:
            raise ValueError("basis labels must be pairwise distinct")


class TorsionPoint(OnGrid, Record):
    lattice: Lattice
    n: int
    nums: tuple
    coords = property(OnGrid._fractions)

    def __add__(self, other):
        return self._plus(other, "points")

    def __neg__(self):
        return self.scale(-1)

    @property
    def is_origin(self):
        return self.n == 1

    def to_json(self):
        return self.texts()


def origin(lattice):
    return TorsionPoint(lattice, 1, (0,) * lattice.rank)


class SublatticeEmbedding(Record):
    ambient: Lattice
    sub: Lattice
    matrix: tuple  # columns express sub basis vectors in ambient coordinates

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(map(index, row)) for row in self.matrix))
        if len(self.matrix) != self.ambient.rank or any(
                len(row) != self.sub.rank for row in self.matrix):
            raise ValueError("matrix must be ambient.rank x sub.rank")
        _, d, _ = smith_normal_form([list(r) for r in self.matrix])
        if sum(1 for x in diagonal(d) if x != 0) != self.sub.rank:
            raise ValueError("matrix must have full column rank")

def _require_square_full_rank(e):
    if e.ambient.rank != e.sub.rank:
        raise DegenerateEmbedding("embedding is not square")
    # nonzero: a SublatticeEmbedding has full column rank
    return determinant(e.matrix)


def sublattice_index(e):
    """|ambient / sub| = |det| of the embedding matrix."""
    return abs(_require_square_full_rank(e))


class FiniteAbelianGroup(Record):
    lattice: Lattice  # the elements are torsion points of its torus
    invariant_factors: tuple
    generators: tuple  # TorsionPoints, aligned with the factors

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors",
                           tuple(map(index, self.invariant_factors)))
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(self.invariant_factors) != len(self.generators):
            raise ValueError("one generator per invariant factor")
        for d, g in zip(self.invariant_factors, self.generators):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if g.order() != d:
                raise ValueError("generator order must equal its factor")
            if g.lattice != self.lattice:
                raise IncompatibleLattice("generator on another lattice")

    def order(self):
        return prod(self.invariant_factors)

    def elements(self):
        """All elements of the span, sorted by coordinates: by numerators
        over one denominator, the group's exponent. The trivial group's one
        element is the origin."""
        lat = self.lattice
        big = lcm(*self.invariant_factors)
        gens = [g.nums_over(big) for g in self.generators]
        pts = {tuple(sum(k * g[j] for k, g in zip(ks, gens)) % big
                     for j in range(lat.rank))
               for ks in product(*(range(d) for d in self.invariant_factors))}
        return [TorsionPoint(lat, big, p) for p in sorted(pts)]


def quotient_group(e):
    """ambient/sub as a group of torsion points of the torus of the sublattice.

    With U*E*V = D, the coset of ambient basis vector U^-1 e_i has order d_i
    and sub-coordinates (column i of V)/d_i; the non-unit d_i are the
    invariant factors.
    """
    _require_square_full_rank(e)
    _, d, v = smith_normal_form(e.matrix)
    pairs = sorted((di, tuple(x % di for x in col))
                   for di, col in zip(diagonal(d), transpose(v)) if di > 1)
    return FiniteAbelianGroup(
        e.sub, tuple(di for di, _ in pairs),
        tuple(TorsionPoint(e.sub, di, k) for di, k in pairs))


def torsion_subgroup(lattice, n):
    """All n-torsion points (1/n)L / L, in lexicographic coordinate order."""
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    return [TorsionPoint(lattice, n, k)
            for k in product(range(n), repeat=lattice.rank)]
