"""The tests' Fraction view of a torsion value.

The library holds a torsion point, a character or a curve point only as
int numerators over its order n. A test whose expectation is written in
Fractions reads the value through fractions_of, so that expectation stays
Fraction arithmetic, computed apart from the library's integers.
"""

from fractions import Fraction


def fractions_of(x):
    """The coordinates of x (a character's values) as Fractions in [0, 1)."""
    return tuple(Fraction(k, x.n) for k in x.nums)
