"""The tests' reference: torsion values in Fractions, one point at a time.

The library holds torsion values as int numerators, and evaluates phi_L,
the lemma's cases and restriction on a grid of them. Here each map is
computed at one point from its definition, in Fractions, so a test can hold
the library's grid to it. Nothing here checks its input.
"""

from fractions import Fraction
from itertools import product
from operator import mul

from irrfib.characters import Character
from irrfib.lattice import TorsionPoint


def fractions_of(x):
    """The coordinates of x (a character's values) as Fractions in [0, 1)."""
    return tuple(Fraction(k, x.n) for k in x.nums)


def _times(matrix, x):
    return [sum(map(mul, row, fractions_of(x))) for row in matrix]


def torsion_points(lattice, n):
    """The n-torsion points (1/n)L/L, in lexicographic coordinate order."""
    return [TorsionPoint(lattice, n, k)
            for k in product(range(n), repeat=lattice.rank)]


def phi_L(f, x):
    """The character exp(2*pi*i*f(., x)): its values are M*x, M the form."""
    return Character.from_fractions(_times(f.matrix, x), lattice=f.lattice)


def restrict_character(chi, e):
    """The pull-back of the ambient character chi along the embedding e:
    its value on sub basis vector j is column j of the embedding matrix
    applied to chi's values."""
    return Character.from_fractions(_times(zip(*e.matrix), chi),
                                    lattice=e.sub)


def psi(s, x):
    """The isogeny's image of a sub-torus point: the ambient point E*x, E
    the embedding matrix."""
    return TorsionPoint.from_fractions(_times(s.embedding.matrix, x),
                                       lattice=s.embedding.ambient)


def half_periods(s):
    """Each factor's half-period (lambda_i, mu_i), in Fractions, or None.

    The sublattice is {x : a.x even}, a the one nonzero vector mod 2 with
    a.e an integer multiple of 2 for every column e of the embedding. The
    point dual to a on factor i is (a_mu_i / 2, a_lambda_i / 2).
    """
    columns = list(zip(*s.embedding.matrix))
    a = next(a for a in product((0, 1), repeat=4) if any(a) and all(
        Fraction(sum(map(mul, a, e)), 2).denominator == 1 for e in columns))
    return tuple((Fraction(a[i + 2], 2), Fraction(a[i], 2))
                 if a[i] or a[i + 2] else None for i in (0, 1))


def cases(s, y):
    """Which translated reducible members pass through the origin, at the
    ambient point y = psi(x) of the surface s. Factor i has the coordinate
    (lambda_i, mu_i) of the basis (lambda1, lambda2, mu1, mu2). Case 1 (2)
    is the second factor's being 0 (its half-period), case 3 (4) the
    first's; a factor with no half-period has no case 2 (4)."""
    c = fractions_of(y)
    first, second = (c[0], c[2]), (c[1], c[3])
    half_first, half_second = half_periods(s)
    return frozenset(case for case, on in ((1, second == (0, 0)),
                                           (2, second == half_second),
                                           (3, first == (0, 0)),
                                           (4, first == half_first)) if on)


def fibre(f, chi, n):
    """The n-torsion points x with phi_L(x) = chi, tried one by one."""
    return [x for x in torsion_points(f.lattice, n) if phi_L(f, x) == chi]
