"""Property tests: the Smith form, K(L), the polarization type, the phi_L
fibres (against the pointwise reference too), reduction mod 1, the printed
grid coordinates, the rational parser and the canonical JSON encoder, on
generated inputs.

Examples are derandomized and not stored, so every run tests the same ones;
the JSON encoder's test alone draws new ones on each run. The module is
skipped when hypothesis is not installed.
"""

import json
import re
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irrfib.characters import Character
from irrfib.lattice import Lattice, Rational, TorsionPoint, parse_rational
from irrfib.linalg import determinant, diagonal, mat_mul, smith_normal_form
from irrfib.polarization import (AlternatingForm, kernel_K_L, phi_L_grid,
                                 polarization_type)
from irrfib.report import canonical_json
from pointwise import fractions_of
from test_lattice import UNCHAINED
from test_polarization import assert_grid_matches_pointwise

LATTICE = Lattice(4, ("e1", "e2", "e3", "e4"))

bounded = settings(max_examples=20, deadline=500, derandomize=True,
                   database=None)

entries = st.integers(-9, 9)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _skew(a):
    """The 4x4 skew matrix with upper triangle a = (a12, a13, a14, a23, a24, a34)."""
    m = [[0] * 4 for _ in range(4)]
    for (i, j), v in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), a):
        m[i][j], m[j][i] = v, -v
    return m


skew_forms = st.lists(st.integers(-6, 6), min_size=6, max_size=6).map(_skew)
nondegenerate_forms = skew_forms.filter(lambda m: determinant(m) != 0)


@st.composite
def unimodular(draw):
    """A product of elementary row additions r_i += k * r_j, and row swaps."""
    g = [[int(i == j) for j in range(4)] for i in range(4)]
    moves = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    st.integers(-3, 3), st.booleans()),
                          max_size=10))
    for i, j, k, swap in moves:
        if i == j:
            continue
        g[i] = [a + k * b for a, b in zip(g[i], g[j])]
        if swap:
            g[i], g[j] = g[j], g[i]
    return g


@bounded
@given(matrices())
@example(UNCHAINED[0])
@example(UNCHAINED[1])
def test_smith_normal_form_properties(m):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
    assert all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0]))
               if i != j)
    diag = diagonal(d)
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


@bounded
@given(nondegenerate_forms)
def test_smith_form_of_a_skew_form_pairs_its_divisors(m):
    """polarization_type reads d1 and d2 off the diagonal unchecked: the
    Smith form of an alternating matrix repeats each divisor once."""
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    diag = diagonal(d)
    assert diag[0] == diag[1] and diag[2] == diag[3]
    assert diag[0] * diag[2] > 0


@bounded
@given(nondegenerate_forms)
def test_kernel_order_is_the_determinant(m):
    f = AlternatingForm(LATTICE, m)
    t = polarization_type(f)
    assert kernel_K_L(f).order() == determinant(m) == (t.d1 * t.d2) ** 2


@bounded
@given(nondegenerate_forms, unimodular())
def test_polarization_type_is_basis_independent(m, g):
    moved = mat_mul(mat_mul([list(r) for r in zip(*g)], m), g)
    assert (polarization_type(AlternatingForm(LATTICE, moved))
            == polarization_type(AlternatingForm(LATTICE, m)))


@settings(bounded, max_examples=10)
@given(skew_forms, st.integers(1, 4))
def test_phi_L_grid_fibres_have_equal_size(m, n):
    """phi_L is a homomorphism, so every fibre is a coset of its kernel; and
    the grid is the pointwise reference's, degenerate forms included."""
    f = AlternatingForm(LATTICE, m)
    fibres = phi_L_grid(f, n)
    assert {len(xs) for xs in fibres.values()} == {n ** 4 // len(fibres)}
    assert n ** 4 % len(fibres) == 0
    assert_grid_matches_pointwise(f, n)


@bounded
@given(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)))
def test_reduce_mod1(x):
    # from_fractions reads a coordinate mod 1, alike from a Fraction and
    # from the Rational of the same value
    line = Lattice(1, ("x",))
    point = TorsionPoint.from_fractions((x,), lattice=line)
    assert point == TorsionPoint.from_fractions(
        (Rational(x.numerator, x.denominator),), lattice=line)
    (r,) = fractions_of(point)
    assert 0 <= r < 1
    assert (x - r).denominator == 1
    if 0 <= x < 1:
        assert r == x
    assert TorsionPoint.from_fractions((r,), lattice=line) == point


# Texts built of what a rational is written with: ASCII and Arabic-Indic
# digits, signs, "/", ".", exponent letters and whitespace. Underscores, and
# spaces next to "/", are left out: Fraction reads them differently on
# 3.10, 3.11 and 3.12 (test_lattice.test_parse_rational pins them).
RATIONAL_PIECES = st.sampled_from(
    ("0", "1", "7", "12", "09", "\u0661", "\u0662", "+", "-", "/", ".",
     "e", "E", " ", "\t"))
rational_texts = st.one_of(
    st.lists(RATIONAL_PIECES, max_size=8).map("".join),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str))


@settings(bounded, max_examples=400)
@given(rational_texts)
@example("1/0")
@example("-.5")
@example("1.e3")
@example("\u0661.\u0662")
def test_parse_rational_reads_as_fraction(text):
    """parse_rational(text) is Fraction(text), or raises the same error
    class, on texts that Python 3.10 to 3.13 read alike; but an exponent,
    which Fraction reads (and "1e1212121" for a long time), is a
    ValueError."""
    assume(not re.search(r"\s/|/\s", text))
    try:
        if "e" in text.lower():
            raise ValueError
        expected = Fraction(text)
        expected = expected.numerator, expected.denominator
    except (ValueError, ZeroDivisionError) as exc:
        expected = type(exc)
    try:
        value = parse_rational(text)
        got = value.numerator, value.denominator
    except (ValueError, ZeroDivisionError) as exc:
        got = type(exc)
    assert got == expected


@st.composite
def grid_elements(draw):
    """An order n and four numerators, negative ones and ones of n or more
    included, with a common factor with n as often as not."""
    n = draw(st.integers(1, 60))
    g = draw(st.sampled_from((1, 2, 3, 6)))
    return n * g, tuple(g * k for k in draw(st.lists(
        st.integers(-3 * n, 3 * n), min_size=4, max_size=4)))


@settings(bounded, max_examples=100)
@given(grid_elements(), st.sampled_from((TorsionPoint, Character)))
def test_texts_print_the_fraction_views(grid, cls):
    n, nums = grid
    x = cls(LATTICE, n, nums)
    fractions = [Fraction(k, n) for k in nums]
    assert x == cls.from_fractions(fractions, lattice=LATTICE)
    # each coordinate mod 1, in Fractions computed here
    view = [c % 1 for c in fractions]
    assert x.texts() == [str(c) for c in view]
    assert x.texts() == [str(Fraction(k, x.n)) for k in x.nums]
    # n is the order: the least multiplier taking every coordinate to 0
    assert x.n == x.order() == lcm(*(c.denominator for c in view))
    assert all(0 <= k < x.n for k in x.nums)


# the characters json escapes: quote, backslash, the control characters and
# DEL, and with ensure_ascii all beyond ASCII, such as U+2028 and an astral
# character (written as a surrogate pair); lone surrogates are text too
SPECIAL_TEXT = ('"', "\\", *map(chr, range(32)), "\x7f", "\u2028",
                "\U0001f600", "\ud83d", "\ude00", "\xe9", "/")
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL_TEXT), st.characters()))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 4000, 10 ** 4000), TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4)), max_leaves=20)


@given(VALUES)
@settings(max_examples=150, deadline=None)
@example({"": [], "a": {}, "b": ((), [[]]), "\U0001f600": None})
@example("".join(SPECIAL_TEXT))
def test_canonical_json_is_json_dumps(value):
    """Byte for byte json.dumps(value, sort_keys=True), on one line and with
    indent=2, on everything encode can return."""
    assert canonical_json(value) == json.dumps(value, sort_keys=True)
    assert canonical_json(value, indent=2) == json.dumps(
        value, sort_keys=True, indent=2)
