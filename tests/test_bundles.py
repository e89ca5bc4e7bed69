import random
from fractions import Fraction

import pytest

from irrfib.bundles import (BundleDecomposition, EllipticPoint,
                            IndecomposableBundle, XiaoShape,
                            ample_part_is_line, atiyah_bundle,
                            elliptic_origin, generic_point, h0, h1,
                            h0_omega_twisted_minus_fibre, jump_h1,
                            pushforward_decomposition, twist, xiao_structure)
from irrfib.errors import (ContradictsXiao, InvalidRank, InvalidShape,
                           InvalidTorsionList, NotApplicable)

THIRD = Fraction(1, 3)


def _torsion(a, b):
    return EllipticPoint((Fraction(a), Fraction(b)))


def test_point_arithmetic():
    p = _torsion(Fraction(1, 2), Fraction(5, 4))
    assert p.coords == (Fraction(1, 2), Fraction(1, 4))
    assert p.order() == 4
    assert (p - p).is_origin
    assert p.scale(4).is_origin
    g = generic_point("p")
    assert g.order() is None
    assert (g - g).is_origin
    assert (g + g).free == (("p", 2),)
    assert (-g).free == (("p", -1),)
    with pytest.raises(ValueError):
        EllipticPoint((0, 0, 0))
    with pytest.raises(TypeError):  # a free coefficient that is not an integer
        EllipticPoint((0, 0), (("p", Fraction(1, 2)),))


def test_bundle_validation():
    with pytest.raises(InvalidRank):
        IndecomposableBundle(0, 1, elliptic_origin())
    with pytest.raises(InvalidRank):
        IndecomposableBundle(-2, 1, elliptic_origin())
    with pytest.raises(InvalidRank):
        IndecomposableBundle(1, Fraction(1, 2), elliptic_origin())


def test_cohomology_table():
    o = elliptic_origin()
    p = generic_point("p")
    table = [
        (IndecomposableBundle(1, -3, o), 0, 3),
        (IndecomposableBundle(2, -1, o), 0, 1),
        (IndecomposableBundle(1, 0, o), 1, 1),          # the trivial bundle
        (IndecomposableBundle(1, 0, _torsion(THIRD, 0)), 0, 0),
        (IndecomposableBundle(3, 0, o), 1, 1),          # self-extension tower
        (IndecomposableBundle(3, 0, p), 0, 0),
        (IndecomposableBundle(1, 2, o), 2, 0),
        (atiyah_bundle(4, p), 1, 0),
    ]
    for bundle, exp_h0, exp_h1 in table:
        assert h0(bundle) == exp_h0
        assert h1(bundle) == exp_h1


def test_riemann_roch_random():
    rng = random.Random(29)
    candidates = [elliptic_origin(), generic_point("p"),
                  _torsion(Fraction(1, 2), 0), _torsion(THIRD, THIRD)]
    for _ in range(80):
        b = IndecomposableBundle(rng.randint(1, 8), rng.randint(-6, 6),
                                 rng.choice(candidates))
        assert h0(b) - h1(b) == b.degree
        q = rng.choice(candidates)
        t = twist(b, q)
        assert h0(t) - h1(t) == b.degree


def test_twist_semantics():
    o = elliptic_origin()
    p = generic_point("p")
    t = _torsion(THIRD, 0)
    line = IndecomposableBundle(1, 1, p)
    assert twist(line, o) == line
    assert twist(line, t).det_point == p + t
    # degree != 0 shifts the determinant by rank * q
    rank3 = atiyah_bundle(3, p)
    assert twist(rank3, t).det_point == p + t.scale(3)
    # degree 0 stores the twist class directly, one q only
    flat = IndecomposableBundle(4, 0, o)
    assert twist(flat, t).det_point == t
    assert h0(twist(flat, t)) == 0
    d = pushforward_decomposition(3, 1, p, (t,))
    assert twist(d, o) == d
    assert twist(d, t).rank == d.rank


def test_pushforward_shapes():
    p = generic_point("p")
    t1, t2 = _torsion(THIRD, 0), _torsion(0, Fraction(1, 2))
    d = pushforward_decomposition(4, 1, p, (t1, t2))
    assert d.rank == 4
    assert d.degree == 1
    assert len(d.summands) == 4
    d = pushforward_decomposition(5, 4, p, ())
    assert d.rank == 5
    assert [b.rank for b in d.summands] == [1, 4]


def test_pushforward_validation():
    p = generic_point("p")
    t = _torsion(THIRD, 0)
    with pytest.raises(InvalidShape):
        pushforward_decomposition(1, 1, p, ())
    with pytest.raises(InvalidShape):
        pushforward_decomposition(3, 3, p, ())  # r > g - 1
    with pytest.raises(InvalidShape):
        pushforward_decomposition(4, 1, p, (t,))  # wrong torsion count
    with pytest.raises(InvalidTorsionList):
        pushforward_decomposition(4, 1, p, (t, t))  # repeated
    with pytest.raises(InvalidTorsionList):
        pushforward_decomposition(3, 1, p, (elliptic_origin(),))
    with pytest.raises(InvalidTorsionList):
        pushforward_decomposition(3, 1, p, (generic_point("q"),))


def test_omega_twisted_sections():
    p = generic_point("p")
    eta = _torsion(0, THIRD)
    t = _torsion(THIRD, 0)
    d = pushforward_decomposition(3, 1, p, (t,))
    # nonzero exactly at the translated point q = p + eta
    assert h0_omega_twisted_minus_fibre(d, eta, p + eta) == 1
    assert h0_omega_twisted_minus_fibre(d, eta, p) == 0
    assert h0_omega_twisted_minus_fibre(d, eta, t) == 0
    assert h0_omega_twisted_minus_fibre(d, elliptic_origin(), p) == 1
    # a higher-rank ample part never contributes
    d2 = pushforward_decomposition(3, 2, p, ())
    assert h0_omega_twisted_minus_fibre(d2, eta, p + eta) == 0
    assert h0_omega_twisted_minus_fibre(d2, elliptic_origin(), p) == 0


def test_omega_twisted_uniqueness():
    # scanning candidate fibres finds exactly one nonzero value, at p + eta
    p = generic_point("p")
    eta = _torsion(0, THIRD)
    torsion = (_torsion(THIRD, 0), _torsion(Fraction(1, 2), 0))
    d = pushforward_decomposition(4, 1, p, torsion)
    candidates = [p, p + eta, p - eta, elliptic_origin(), eta] + \
        [t for t in torsion] + [t + eta for t in torsion]
    hits = [q for q in candidates if h0_omega_twisted_minus_fibre(d, eta, q)]
    assert hits == [p + eta]


def test_omega_twisted_shape_guard():
    bad = BundleDecomposition((IndecomposableBundle(1, 1, generic_point("p")),
                               IndecomposableBundle(1, 1, generic_point("q"))))
    with pytest.raises(InvalidShape):
        h0_omega_twisted_minus_fibre(bad, elliptic_origin(), elliptic_origin())
    with pytest.raises(InvalidShape):
        h0_omega_twisted_minus_fibre(
            atiyah_bundle(2, generic_point("p")), elliptic_origin(),
            elliptic_origin())
    # one trivial summand and one ample part, but a flat summand of rank 2
    rank_two_flat = BundleDecomposition((
        IndecomposableBundle(1, 0, elliptic_origin()),
        atiyah_bundle(1, generic_point("p")),
        IndecomposableBundle(2, 0, elliptic_origin())))
    with pytest.raises(InvalidShape, match="not a pushforward normal form"):
        jump_h1(rank_two_flat, elliptic_origin())
    # normal-form summands, but two trivial ones, a repeated torsion one, or
    # a flat one with a free part
    flat = [IndecomposableBundle(1, 0, x) for x in (
        elliptic_origin(), _torsion(THIRD, 0), generic_point("q"))]
    ample = atiyah_bundle(1, generic_point("p"))
    for summands, reason in (
            ((flat[0], flat[0], ample), "exactly one trivial summand"),
            ((flat[0], ample, flat[1], flat[1]), "distinct and finite"),
            ((flat[0], ample, flat[2]), "distinct and finite")):
        with pytest.raises(InvalidShape, match=reason):
            jump_h1(BundleDecomposition(summands), elliptic_origin())


def test_ample_part_is_line():
    p = generic_point("p")
    t = _torsion(THIRD, 0)
    line, witness = ample_part_is_line(pushforward_decomposition(3, 1, p, (t,)))
    assert line and witness == p
    line, witness = ample_part_is_line(pushforward_decomposition(3, 2, p, ()))
    assert not line and witness is None


def test_jump_h1():
    p = generic_point("p")
    t = _torsion(THIRD, 0)
    d = pushforward_decomposition(4, 2, p, (t,))
    assert jump_h1(d, elliptic_origin()) == 2
    # the jump detects -Q in the torsion list, not Q
    assert jump_h1(d, -t) == 1
    assert jump_h1(d, t) == 0
    assert jump_h1(d, _torsion(0, THIRD)) == 0
    two = _torsion(Fraction(1, 2), 0)  # 2-torsion: Q = -Q
    d2 = pushforward_decomposition(4, 2, p, (two,))
    assert jump_h1(d2, two) == 1


def test_xiao_structure():
    shape = xiao_structure(3, 4, 2, 1)
    assert shape == XiaoShape(1, 2, 1)
    assert xiao_structure(2, 4, 2, 1) == XiaoShape(1, 1, 1)  # least genus
    assert xiao_structure(5, 4, 2, 1).semistable_rank == 4
    with pytest.raises(NotApplicable):
        xiao_structure(3, Fraction(7, 2), 2, 1)
    with pytest.raises(NotApplicable):
        xiao_structure(1, 4, 2, 1)
    with pytest.raises(ContradictsXiao):
        xiao_structure(3, 4, 3, 1)
