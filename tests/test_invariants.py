from fractions import Fraction

import pytest

from irrfib.errors import (InvalidBranching, NotApplicable, UndefinedSlope)
from irrfib.invariants import (ExampleSurface, FibrationRecord,
                               NO_OBSTRUCTION, NOT_ISOTRIVIAL,
                               NOT_ISOTRIVIAL_IF_NOT_ISOGENOUS,
                               SurfaceInvariants, double_cover_fibre_genus,
                               example_record, genus_bound_rank_one,
                               isotriviality_obstruction, slope,
                               unbounded_family)
from irrfib.lattice import Rational
from irrfib.record import encode


def test_slope_values():
    assert slope(8, 1, 1, 3) == Rational(8)
    assert slope(4, 1, 1, 3) == Rational(4)
    assert slope(5, 1, 1, 3) == Rational(5)
    assert slope(6, 1, 1, 4) == Rational(6)
    assert slope(7, 2, 1, 3) == Rational(7, 2)
    # in lowest terms with a positive denominator, printed as Fraction is
    s = slope(-1, -2, 1, 1)
    assert (s.numerator, s.denominator) == (1, 2)
    assert encode(s) == str(Fraction(-1, -2)) == "1/2"
    with pytest.raises(UndefinedSlope):
        slope(6, 2, 2, 3)  # (gC-1)(gF-1) = chi


def test_isotriviality_obstruction():
    assert isotriviality_obstruction(6, 1, ample=True) == \
        (NOT_ISOTRIVIAL, "8*chi - 5 < K2 < 8*chi")
    # same numbers without ampleness: the weaker window needs K2 > 8*chi - 2
    assert isotriviality_obstruction(6, 1)[0] == NO_OBSTRUCTION
    assert isotriviality_obstruction(7, 1, ample=False)[0] == \
        NOT_ISOTRIVIAL_IF_NOT_ISOGENOUS
    assert isotriviality_obstruction(8, 1, ample=True)[0] == \
        NOT_ISOTRIVIAL_IF_NOT_ISOGENOUS  # window is strict at K2 = 8*chi
    assert isotriviality_obstruction(3, 1, ample=True)[0] == NO_OBSTRUCTION
    assert isotriviality_obstruction(4, 1, ample=True)[0] == NOT_ISOTRIVIAL
    assert isotriviality_obstruction(5, 1, ample=True)[0] == NOT_ISOTRIVIAL


def test_genus_bound_rank_one():
    assert genus_bound_rank_one(9, 1) == 5
    assert genus_bound_rank_one(8, 1) == 5
    assert genus_bound_rank_one(5, 1) == 3
    assert genus_bound_rank_one(4, 1) == 3
    assert genus_bound_rank_one(20, 1) == 5  # capped by 9*chi
    with pytest.raises(NotApplicable):
        genus_bound_rank_one(0, 1)
    with pytest.raises(NotApplicable):
        genus_bound_rank_one(4, 0)


def test_double_cover_fibre_genus():
    assert double_cover_fibre_genus(1, 4) == 3
    assert double_cover_fibre_genus(1, 0) == 1
    assert double_cover_fibre_genus(2, 2) == 4
    assert double_cover_fibre_genus(1, 20) == 11
    with pytest.raises(InvalidBranching):
        double_cover_fibre_genus(1, 3)
    with pytest.raises(InvalidBranching):
        double_cover_fibre_genus(1, -2)
    with pytest.raises(InvalidBranching):
        double_cover_fibre_genus(0, 0)


def test_surface_invariants_validation():
    SurfaceInvariants(2, 2, 6, 1)
    with pytest.raises(ValueError):
        SurfaceInvariants(2, 2, 6, 2)
    with pytest.raises(ValueError):
        SurfaceInvariants(2, 2, 6, 1, albanese_degree=0)


def test_fibration_record_validation():
    FibrationRecord(1, 3, True, 2)
    with pytest.raises(ValueError):
        FibrationRecord(1, 3, True, 3)  # r > gF - 1
    with pytest.raises(ValueError):
        FibrationRecord(1, 0)
    from irrfib.bundles import generic_point, pushforward_decomposition
    d = pushforward_decomposition(3, 2, generic_point("p"), ())
    FibrationRecord(1, 3, True, 2, decomposition=d)
    with pytest.raises(ValueError):
        FibrationRecord(1, 4, True, 2, decomposition=d)  # rank != gF
    with pytest.raises(ValueError):
        FibrationRecord(1, 3, True, 1, decomposition=d)  # ample rank != r


def test_unbounded_family():
    expected = {1: (3, 2), 2: (6, 5), 3: (11, 10), 4: (18, 17), 5: (27, 26)}
    for n, (gF, r) in expected.items():
        rec, checks = unbounded_family(n)
        assert (rec.gF, rec.r) == (gF, r)
        assert rec.gC == 1
        assert rec.isotrivial is False
        assert rec.decomposition.rank == gF
        assert [c.name for c in checks if c.passed] == [
            "fibre genus", "ample part rank", "slope",
            "xiao semistable rank", "ample part is a line bundle"]
    with pytest.raises(ValueError):
        unbounded_family(0)
    with pytest.raises(ValueError):
        unbounded_family(Fraction(3, 2))


def test_isotrivial_database():
    # each record is built alone by id, and an unknown id is refused
    surfaces, checks = {}, {}
    for sid in ("pen-1", "pen-4", "pen-5", "pen-6"):
        surfaces[sid], checks[sid] = example_record(sid)
        assert surfaces[sid].id == sid
    with pytest.raises(ValueError):
        example_record("pen-9")
    k2 = {sid: s.invariants.K2 for sid, s in surfaces.items()}
    assert k2 == {"pen-1": 8, "pen-4": 4, "pen-5": 4, "pen-6": 5}
    orders = {sid: s.fibrations[0].group_order for sid, s in surfaces.items()}
    assert orders == {"pen-1": 4, "pen-4": 2, "pen-5": 8, "pen-6": 6}
    ranks = {sid: tuple(f.r for f in s.fibrations)
             for sid, s in surfaces.items()}
    assert ranks == {"pen-1": (1, 1), "pen-4": (1, 1),
                     "pen-5": (2, 2), "pen-6": (2, 2)}
    # derived ranks come with their derivations as passing checks
    assert [len(checks[sid]) for sid in sorted(surfaces)] == [0, 0, 3, 14]
    for sid, s in surfaces.items():
        assert all(c.passed for c in checks[sid])
        assert s.invariants.pg == 2 and s.invariants.q == 2
        assert s.invariants.chi == 1
        for f in s.fibrations:
            assert f.gC == 1 and f.isotrivial is True
            # any r = 1 record must respect the rank-one genus bound
            if f.r == 1:
                assert f.gF <= genus_bound_rank_one(s.invariants.K2, 1)
    assert surfaces["pen-6"].group_name == "S3"
    assert surfaces["pen-5"].fibrations[0].ramification == (2,)
    assert surfaces["pen-6"].fibrations[0].ramification == (3,)


@pytest.mark.parametrize("sid", ["pen-1", "pen-4", "pen-5", "pen-6"])
def test_isotrivial_genera_satisfy_riemann_hurwitz(sid):
    # F -> F/G = C: 2gF - 2 = |G|(2gC - 2) + sum over branch points of
    # |G| - |G|/m, each branch order m dividing |G|
    s, _ = example_record(sid)
    for f in s.fibrations:
        order = f.group_order
        assert all(order % m == 0 for m in f.ramification)
        assert 2 * f.gF - 2 == order * (2 * f.gC - 2) + sum(
            order - order // m for m in f.ramification)
    assert s.curve_genera == tuple(f.gF for f in s.fibrations)


def test_nonisotrivial_database():
    surfaces = {sid: example_record(sid)[0]
                for sid in ("k26-d2", "k5-3", "k6-4")}
    assert [s.id for s in surfaces.values()] == list(surfaces)
    deg = {sid: s.invariants.albanese_degree for sid, s in surfaces.items()}
    assert deg == {"k26-d2": 2, "k5-3": 3, "k6-4": 4}
    assert surfaces["k26-d2"].invariants.K2 == 6
    assert surfaces["k5-3"].invariants.K2 == 5
    assert surfaces["k6-4"].invariants.K2 == 6
    assert surfaces["k26-d2"].polarization == (1, 2)
    assert surfaces["k6-4"].polarization == (1, 3)
    assert dict(surfaces["k26-d2"].moduli_dims) == {"Ia": 4, "Ib": 4, "II": 3}
    genera = {sid: tuple(f.gF for f in s.fibrations)
              for sid, s in surfaces.items()}
    assert genera == {"k26-d2": (3, 3), "k5-3": (3, 3), "k6-4": (4, 4)}
    for s in surfaces.values():
        for f in s.fibrations:
            assert f.isotrivial is False
            assert (s.invariants.q, f.gC) == (2, 1)  # an elliptic base


def test_example_surface_serialization():
    s, _ = example_record("k26-d2")
    doc = s.to_json()
    assert doc["id"] == "k26-d2"
    assert doc["invariants"]["K2"] == 6
    assert doc["moduli_dims"] == {"Ia": 4, "Ib": 4, "II": 3}
    assert len(doc["fibrations"]) == 2
