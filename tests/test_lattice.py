import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from irrfib.characters import Character
from irrfib.errors import DegenerateEmbedding, IncompatibleLattice
from irrfib.lattice import (FiniteAbelianGroup, Lattice, Rational,
                            SublatticeEmbedding, TorsionPoint, origin,
                            parse_rational, quotient_group, sublattice_index)
from irrfib.linalg import (determinant, identity_matrix, integer_kernel_basis,
                           mat_mul, smith_normal_form, solve_integer)
from irrfib.torus import (reference_embedding, reference_lattice_a,
                          reference_lattice_b)
from pointwise import fractions_of


def _det_cofactor(m):
    # independent route for cross-checking the Bareiss determinant
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_cofactor(minor)
    return total


def _random_matrix(rng, nr, nc, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]


def test_determinant_against_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        assert determinant(m) == _det_cofactor(m)


def _full_column_rank(m):
    # independent of the Smith form: some maximal square minor is nonzero
    nc = len(m[0])
    return any(determinant([m[i] for i in rows])
               for rows in combinations(range(len(m)), nc))


def test_solve_integer_round_trip():
    """b = M*x for random integer M, square and overdetermined: a full
    column rank M gives exactly x back, any other M is refused."""
    rng = random.Random(12)
    solved = {0: 0, 1: 0}
    for _ in range(120):
        nc = rng.randint(1, 4)
        extra = rng.choice((0, rng.randint(1, 3)))
        m = _random_matrix(rng, nc + extra, nc, 5)
        x = [rng.randint(-30, 30) for _ in range(nc)]
        b = [sum(a * c for a, c in zip(row, x)) for row in m]
        if not _full_column_rank(m):
            with pytest.raises(ValueError):
                solve_integer(m, b)
            continue
        assert solve_integer(m, b) == x
        solved[extra > 0] += 1
    assert min(solved.values()) > 30


def test_solve_integer_refusals():
    with pytest.raises(ValueError, match="rank-deficient"):
        solve_integer([[1, 2], [2, 4]], [3, 6])
    with pytest.raises(ValueError, match="rank-deficient"):
        solve_integer([[1, 1]], [1])  # underdetermined
    a = [[1, 0], [0, 1], [1, 1]]
    assert solve_integer(a, [2, 3, 5]) == [2, 3]
    with pytest.raises(ValueError, match="no integer solution"):
        solve_integer(a, [2, 3, 6])  # inconsistent
    with pytest.raises(ValueError, match="no integer solution"):
        solve_integer([[2]], [1])  # solvable over Q only


# a divisibility repair pass after the elimination once left D[2][3] = 2 and
# D[1][2] = 3 off the diagonal of these two
UNCHAINED = ([[2, 3, -4, -3], [-2, -4, 4, 3], [0, 0, 4, 0], [2, -1, 4, -4]],
             [[-12, -6, -12, 0], [-7, 0, 6, -7], [11, 0, -9, 8]])


def test_smith_normal_form_random_properties():
    rng = random.Random(20260814)
    randoms = [_random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
               for _ in range(80)]
    for m in [*UNCHAINED, *randoms]:
        nr, nc = len(m), len(m[0])
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1


def test_smith_normal_form_and_determinant_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(1403)
    for k in range(50):
        nr = rng.randint(1, 5)
        nc = nr if k % 2 else rng.randint(1, 5)
        if k % 5 == 0:
            m = [[0] * nc for _ in range(nr)]
        elif k % 5 == 1:  # rank-deficient: a product through rank < min
            r = rng.randint(1, max(1, min(nr, nc) - 1))
            m = mat_mul(_random_matrix(rng, nr, r, 4),
                        _random_matrix(rng, r, nc, 4))
        else:
            m = _random_matrix(rng, nr, nc)
        _, d, _ = smith_normal_form(m)
        expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        assert ([d[i][i] for i in range(min(nr, nc))]
                == [abs(expected[i, i]) for i in range(min(nr, nc))]), m
        if nr == nc:
            assert determinant(m) == sympy.Matrix(m).det(), m


def test_ragged_matrices_rejected():
    ragged = [[1, 2], [3]]
    with pytest.raises(ValueError):
        mat_mul(ragged, [[1], [1]])
    with pytest.raises(ValueError):
        determinant(ragged)
    with pytest.raises(ValueError):
        smith_normal_form(ragged)
    with pytest.raises(TypeError):  # an entry that is not an integer
        smith_normal_form([[1.5]])


def test_one_row_and_empty_matrices():
    assert smith_normal_form([[2, 4]]) == ([[1]], [[2, 0]], [[1, -2], [0, 1]])
    assert integer_kernel_basis([[1, 2]]) == [[-2, 1]]
    assert integer_kernel_basis([[2, 4, 6]]) == [[-2, 1, 0], [-3, 0, 1]]
    assert determinant([]) == 1
    assert mat_mul([], [[1]]) == []
    assert mat_mul([[1, 2]], []) == []


def test_smith_normal_form_reference_embedding():
    e = reference_embedding()
    _, d, _ = smith_normal_form(e.matrix)
    assert [d[i][i] for i in range(4)] == [1, 1, 1, 2]


def test_integer_kernel_basis_random():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 4)
        m = _random_matrix(rng, nr, nc, 5)
        kern = integer_kernel_basis(m)
        for vec in kern:
            assert all(sum(row[j] * vec[j] for j in range(nc)) == 0
                       for row in m)
        _, d, _ = smith_normal_form(m)
        rank = sum(1 for i in range(min(nr, nc)) if d[i][i] != 0)
        assert len(kern) == nc - rank


def test_reduce_mod1():
    # from_fractions reads each coordinate mod 1, given as an int, a
    # Fraction or a Rational
    line = Lattice(1, ("x",))
    for value, reduced in ((Fraction(3, 2), Fraction(1, 2)),
                           (Fraction(-1, 4), Fraction(3, 4)),
                           (Fraction(2), 0), (-5, 0),
                           (Rational(-7, 3), Fraction(2, 3))):
        x = TorsionPoint.from_fractions((value,), lattice=line)
        assert fractions_of(x) == (reduced,), value


def test_rational_is_in_lowest_terms():
    assert Rational(6, -8) == Rational(-3, 4)
    assert (Rational(6, -8).numerator, Rational(6, -8).denominator) == (-3, 4)
    assert Rational(0, -5) == Rational(0) == Rational(0, 1)
    for p, q in ((-3, 4), (7, 1), (0, 1), (10 ** 30, 3)):
        assert Rational(p, q).to_json() == str(Fraction(p, q))
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    with pytest.raises(TypeError):  # an int, not a float or a string
        Rational(1.5)
    with pytest.raises(TypeError):
        Rational(1, "2")


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(3, ("a", "b"))  # label count mismatch
    with pytest.raises(ValueError):
        Lattice(0, ())
    with pytest.raises(ValueError, match="pairwise distinct"):
        Lattice(2, ("a", "a"))
    assert Lattice(1, ("x",)).rank == 1


@pytest.mark.parametrize("cls", [TorsionPoint, Character],
                         ids=lambda cls: cls.__name__)
def test_grid_elements_refuse_a_bad_order_or_length(cls):
    lat = reference_lattice_a()
    with pytest.raises(ValueError, match="4 numerators"):
        cls(lat, 1, (0, 0, 0, 0, 0))
    for n in (0, -4):  # an order below 1
        with pytest.raises(ValueError, match="order n >= 1"):
            cls(lat, n, (0, 0, 0, 0))


def test_torsion_point_arithmetic():
    lat = reference_lattice_b()
    x = TorsionPoint.from_fractions((Fraction(3, 2), 0, Fraction(-1, 4), 0),
                                   lattice=lat)
    assert fractions_of(x) == (Fraction(1, 2), 0, Fraction(3, 4), 0)
    assert x.order() == 4
    assert (x + (-x)).is_origin
    assert x.scale(4).is_origin
    assert not x.is_origin
    y = TorsionPoint(reference_lattice_a(), 1, (0, 0, 0, 0))
    with pytest.raises(IncompatibleLattice):
        x + y


def test_embedding_validation_and_index():
    e = reference_embedding()
    assert sublattice_index(e) == 2
    with pytest.raises(ValueError):
        SublatticeEmbedding(reference_lattice_b(), reference_lattice_a(),
                            ((1, 0, 0, 0), (0, 1, 0, 0),
                             (0, 0, 0, 0), (0, 0, 0, 0)))  # rank 2 only
    # a wrong row count alone, and a wrong row length alone, are refused
    amb, sub = Lattice(2, ("a", "b")), Lattice(1, ("u",))
    for matrix in (((1,),), ((1, 0), (0, 1))):
        with pytest.raises(ValueError, match="ambient.rank x sub.rank"):
            SublatticeEmbedding(amb, sub, matrix)
    with pytest.raises(TypeError):  # an entry that is not an integer
        SublatticeEmbedding(amb, sub, ((1.5,), (0,)))


def test_sublattice_index_requires_square():
    # an embedding has finite index: a rectangular one cannot be built
    amb = Lattice(3, ("a", "b", "c"))
    sub = Lattice(2, ("u", "v"))
    with pytest.raises(DegenerateEmbedding):
        SublatticeEmbedding(amb, sub, ((1, 0), (0, 1), (0, 0)))


def test_quotient_group_of_reference_embedding():
    g = quotient_group(reference_embedding())
    assert g.invariant_factors == (2,)
    assert g.order() == 2
    # the nontrivial coset is represented by the second period of the
    # second factor, whose sub coordinates are (0, 0, 0, 1/2)
    assert fractions_of(g.generators[0]) == (0, 0, 0, Fraction(1, 2))
    elems = g.elements()
    assert len(elems) == 2
    assert elems[0].is_origin


def test_quotient_group_trivial_for_unimodular():
    lat = reference_lattice_b()
    e = SublatticeEmbedding(lat, reference_lattice_a(),
                            ((1, 0, 0, 0), (0, 1, 0, 0),
                             (0, 0, 1, 0), (0, 0, 0, 1)))
    g = quotient_group(e)
    assert g.order() == 1
    assert g.elements() == [origin(e.sub)]


def _random_embedding(rng, n):
    """G1 * diag * G2 with G1, G2 unimodular, a nonsingular n x n matrix:
    its diagonal factors, drawn from 1, 2, 3, 4 and 6 in any order, need
    not form a divisibility chain."""
    def unimodular():
        g = identity_matrix(n)
        for _ in range(8 if n > 1 else 0):
            (i, j), k = rng.sample(range(n), 2), rng.randint(-2, 2)
            g[i] = [a + k * b for a, b in zip(g[i], g[j])]
            g[i], g[j] = g[j], g[i]
        return g
    d = [[rng.choice((1, 2, 3, 4, 6)) * (i == j) for j in range(n)]
         for i in range(n)]
    return mat_mul(mat_mul(unimodular(), d), unimodular())


def test_quotient_group_elements_lie_in_the_ambient_lattice():
    """Each element x of ambient/sub, in sub coordinates, has M*x integral,
    and there are |det M| distinct ones."""
    rng = random.Random(107)
    matrices = [UNCHAINED[0]] + [_random_embedding(rng, rng.randint(1, 4))
                                 for _ in range(100)]
    for m in matrices:
        n = len(m)
        e = SublatticeEmbedding(Lattice(n, tuple("ab%d" % i for i in range(n))),
                                Lattice(n, tuple("s%d" % i for i in range(n))),
                                m)
        g = quotient_group(e)
        assert g.order() == sublattice_index(e), m
        elems = g.elements()
        assert len(elems) == g.order(), m
        assert elems[0] == origin(e.sub), m
        for x in elems:
            assert all(sum(map(mul, row, x.nums)) % x.n == 0 for row in m), m


def test_finite_abelian_group_validation():
    lat = reference_lattice_a()
    half = TorsionPoint(lat, 2, (1, 0, 0, 0))
    assert FiniteAbelianGroup(lat, (2,), (half,)).elements() == [
        origin(lat), half]
    with pytest.raises(ValueError):
        FiniteAbelianGroup(lat, (2, 2), (half,))  # generator count mismatch
    with pytest.raises(ValueError):
        FiniteAbelianGroup(lat, (1,), (origin(lat),))  # factor < 2
    with pytest.raises(ValueError):
        FiniteAbelianGroup(lat, (4,), (half,))  # order mismatch
    with pytest.raises(IncompatibleLattice):  # a generator on another lattice
        FiniteAbelianGroup(reference_lattice_b(), (2,), (half,))
    with pytest.raises(TypeError):  # a factor that is not an integer
        FiniteAbelianGroup(lat, (2.0,), (half,))


def _as_pair(x):
    return x.numerator, x.denominator


def test_parse_rational():
    for text in ("3", "-1/4", "+2", " 1/2 ", "0.25", ".5", "1.", "-0",
                 "\t7/14\n", "-.125", "\u0661/\u0662"):
        assert _as_pair(parse_rational(text)) == _as_pair(Fraction(text)), text
    # Fraction reads underscores from 3.11 and spaces around "/" from 3.12:
    # the first are accepted and the second refused on every Python
    for text, value in (("1_000", Fraction(1000)), ("1_0/2_0", Fraction(1, 2)),
                        ("0.2_5", Fraction(1, 4)), ("-1_2.5", Fraction(-25, 2)),
                        ("\u0661_\u0660", Fraction(10))):
        assert _as_pair(parse_rational(text)) == _as_pair(value), text
    for text in ("1 /2", "1/ 2", "1 / 2", "1__0", "_1", "1_", "1_/2", "1._5",
                 "1e5", "1E5", "1.5e3", "1e-2", "1/2e3", "x", "", " ", ".",
                 "/2", "1/", "- 1", "+-1", "1/2/3", "1.5/2", "1/-2", "1/+2",
                 "1.d", "0x10", "1 000", "inf", "nan", "1.2.3"):
        with pytest.raises(ValueError):
            parse_rational(text)
    for text in ("1/0", "-0/0", "1_0/0_0"):
        with pytest.raises(ZeroDivisionError):
            parse_rational(text)
    for text in ("1" * 4301, "1/" + "1" * 4301, "0." + "1" * 4301):
        with pytest.raises(ValueError, match="limit"):  # int()'s digit limit
            parse_rational(text)
    value = parse_rational("-6/8")
    assert value == Rational(-3, 4) and value.to_json() == "-3/4"

