"""Integer lattices, finite-index sublattices, and torsion points.

Lattices carry no complex structure at all: every computation downstream
depends only on the integral data, so a lattice is just a rank and a tuple
of basis labels. Torsion points, like characters, are (lattice, n, nums):
int numerators mod their order n (OnGrid), and that is their only form:
every computation runs on the numerators, and the printed coordinates are
read straight off them. A parsed rational is a Rational, a numerator and a
denominator, so the library never loads the standard library's rational
module (through `decimal` it costs ~3 ms and ~0.5 MB per process).
"""

from itertools import product
from math import gcd, lcm, prod
from operator import index

from .errors import DegenerateEmbedding, IncompatibleLattice
from .linalg import determinant, diagonal, smith_normal_form, transpose
from .record import Record


class Rational(Record):
    """An exact rational in lowest terms, its denominator > 0; the one
    constructor reduces it. It prints as "p/q", or "p" when q is 1."""
    numerator: int
    denominator: int = 1

    def __post_init__(self):
        p, q = index(self.numerator), index(self.denominator)
        if q == 0:
            raise ZeroDivisionError("a rational with denominator 0")
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        self.__dict__.update(numerator=p // g, denominator=q // g)

    def to_json(self):
        p, q = self.numerator, self.denominator
        return str(p) if q == 1 else "%d/%d" % (p, q)


def _is_digits(text):
    r"""Whether text is \d+(_\d+)*: decimal digits, any Unicode ones, in
    groups joined by single underscores, as int() reads them."""
    return all(group.isdecimal() for group in text.split("_"))


def parse_rational(text):
    """The Rational written as "p", "p/q" or a decimal "p.d" (".5" and "1."
    too), signed or not, with whitespace around it.

    This is the grammar the standard library's rational type reads on
    Python 3.11, without exponents (the exact expansion of "1e99999999"
    takes minutes), the same on every Python: 3.10's refuses underscores,
    and 3.12's allows spaces around "/". As there, a malformed text raises
    ValueError, a zero denominator ZeroDivisionError, and a digit run past
    int()'s limit ValueError.
    """
    body = text.strip()
    sign = -1 if body.startswith("-") else 1
    if body.startswith(("+", "-")):
        body = body[1:]
    p, slash, q = body.partition("/")
    if slash:
        if _is_digits(p) and _is_digits(q):
            return Rational(sign * int(p), int(q))
    else:
        whole, _, decimals = body.partition(".")
        if (whole or decimals) and all(
                _is_digits(part) for part in (whole, decimals) if part):
            digits = decimals.replace("_", "")
            tail = int(digits or "0")  # past the limit, before 10 ** len
            scale = 10 ** len(digits)
            return Rational(sign * (int(whole or "0") * scale + tail), scale)
    raise ValueError("not a rational: %r" % text)


class OnGrid:
    """A torsion element held as int numerators `nums` mod its order `n`.

    The constructor reduces the numerators mod n and then to lowest terms,
    so n is the element's order and nums are in [0, n). from_fractions is
    the one way in from rational coordinates, and texts() prints them.
    Elements of a lattice's torus also add and scale here; the result
    keeps the element's other fields, unless they are given.
    """

    @classmethod
    def from_fractions(cls, values, **fields):
        """The element whose coordinates are the rationals values, mod 1:
        ints, Rationals, anything with an int numerator and denominator."""
        values = tuple(values)
        n = lcm(*(v.denominator for v in values))
        return cls(n=n, nums=tuple(v.numerator * (n // v.denominator)
                                   for v in values), **fields)

    def __post_init__(self):
        n, rank = self.n, self.lattice.rank
        if n < 1 or len(self.nums) != rank:
            raise ValueError("%s needs an order n >= 1 and %d numerators" % (
                type(self).__name__, rank))
        nums = tuple(k % n for k in self.nums)
        g = gcd(n, *nums)
        if g > 1:
            n, nums = n // g, tuple(k // g for k in nums)
        self.__dict__.update(n=n, nums=nums)

    def texts(self):
        """Each coordinate k/n in lowest terms, as "p/q", or "0"; read off
        the numerators, each in [0, n)."""
        n = self.n
        return ["%d/%d" % (k // (g := gcd(k, n)), n // g) if k else "0"
                for k in self.nums]

    def nums_over(self, big):
        """The numerators over the denominator big, a multiple of n."""
        return tuple(k * (big // self.n) for k in self.nums)

    def order(self):
        return self.n

    def _plus(self, other, what, **fields):
        if self.lattice != other.lattice:
            raise IncompatibleLattice("%s on different lattices" % what)
        n = lcm(self.n, other.n)
        nums = zip(self.nums_over(n), other.nums_over(n))
        return self._on_grid(n, tuple(x + y for x, y in nums), fields)

    def scale(self, k, **fields):
        return self._on_grid(self.n, tuple(k * c for c in self.nums), fields)

    def _on_grid(self, n, nums, fields):
        kept = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**kept, **fields, "n": n, "nums": nums})


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
    """A finite-index sublattice: the matrix is square and nonsingular."""
    ambient: Lattice
    sub: Lattice
    matrix: tuple  # columns express sub basis vectors in ambient coordinates

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(map(index, row)) for row in self.matrix))
        if len(self.matrix) != self.ambient.rank or any(
                len(row) != self.sub.rank for row in self.matrix):
            raise ValueError("matrix must be ambient.rank x sub.rank")
        if self.ambient.rank != self.sub.rank:
            raise DegenerateEmbedding("embedding is not square")
        if determinant(self.matrix) == 0:
            raise ValueError("matrix must have full rank")


def sublattice_index(e):
    """|ambient / sub| = |det| of the embedding matrix."""
    return abs(determinant(e.matrix))


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
    _, d, v = smith_normal_form(e.matrix)
    pairs = sorted((di, tuple(x % di for x in col))
                   for di, col in zip(diagonal(d), transpose(v)) if di > 1)
    return FiniteAbelianGroup(
        e.sub, tuple(di for di, _ in pairs),
        tuple(TorsionPoint(e.sub, di, k) for di, k in pairs))

