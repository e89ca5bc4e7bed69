import random
from fractions import Fraction

import pytest

from irrfib.errors import (DegenerateForm, IncompatibleLattice, InvalidOrder,
                           InvalidRank)
from irrfib.lattice import Lattice, TorsionPoint, torsion_subgroup
from irrfib.polarization import (AlternatingForm, PolarizationType,
                                 kernel_K_L, phi_L_fibres, phi_L_on_point,
                                 phi_two_torsion_data, polarization_type,
                                 restrict_form)
from irrfib.torus import (reference_embedding, reference_form_b,
                          reference_lattice_a)
from test_torus import BASIS_SEEDS, moved_surface

RESTRICTED_MATRIX = ((0, 0, 1, 0),
                     (0, 0, 0, 2),
                     (-1, 0, 0, 0),
                     (0, -2, 0, 0))

KERNEL_COORDS = {
    (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)),
}

IMAGE_VALUES = {
    (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)),
}


def _restricted_form():
    return restrict_form(reference_form_b(), reference_embedding())


def test_form_validation():
    lat = reference_lattice_a()
    with pytest.raises(ValueError):
        AlternatingForm(lat, ((0, 1), (-1, 0)))  # shape mismatch
    with pytest.raises(ValueError):  # four rows, the last one short
        AlternatingForm(lat, ((0,) * 4,) * 3 + ((0,) * 3,))
    bad = [[0] * 4 for _ in range(4)]
    bad[0][1] = 1  # not skew: missing the -1 mirror
    with pytest.raises(ValueError):
        AlternatingForm(lat, tuple(tuple(r) for r in bad))
    halves = [[0] * 4 for _ in range(4)]
    halves[0][2], halves[2][0] = 1.5, -1.5  # skew, but not integral
    with pytest.raises(TypeError):
        AlternatingForm(lat, tuple(tuple(r) for r in halves))


def test_polarization_type_validation():
    with pytest.raises(ValueError):
        PolarizationType(0, 2)
    with pytest.raises(ValueError):
        PolarizationType(2, 3)


def test_restriction_matrix_frozen():
    f = _restricted_form()
    assert f.matrix == RESTRICTED_MATRIX
    assert f.lattice == reference_lattice_a()


def test_restrict_form_lattice_guard():
    f = _restricted_form()
    with pytest.raises(IncompatibleLattice):
        restrict_form(f, reference_embedding())


def test_polarization_types():
    assert polarization_type(reference_form_b()) == PolarizationType(1, 1)
    assert polarization_type(_restricted_form()) == PolarizationType(1, 2)
    fb = reference_form_b()
    doubled = AlternatingForm(fb.lattice,
                              tuple(tuple(2 * x for x in r) for r in fb.matrix))
    assert polarization_type(doubled) == PolarizationType(2, 2)


def test_polarization_type_rank_guard():
    small = AlternatingForm(Lattice(2, ("x", "y")), ((0, 1), (-1, 0)))
    with pytest.raises(InvalidRank):
        polarization_type(small)


def test_degenerate_form_rejected():
    lat = reference_lattice_a()
    zero = AlternatingForm(lat, tuple((0,) * 4 for _ in range(4)))
    with pytest.raises(DegenerateForm):
        polarization_type(zero)
    with pytest.raises(DegenerateForm):
        kernel_K_L(zero)
    with pytest.raises(DegenerateForm):
        phi_two_torsion_data(zero)


def test_phi_L_values():
    f = _restricted_form()
    lat = f.lattice
    table = [
        # half of the first period of the first factor
        ((Fraction(1, 2), 0, 0, 0), (0, 0, Fraction(1, 2), 0)),
        # half of the third basis vector
        ((0, 0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0, 0)),
        # fourth basis vector halved: lands in the kernel
        ((0, 0, 0, Fraction(1, 2)), (0, 0, 0, 0)),
        ((0, Fraction(1, 2), 0, 0), (0, 0, 0, 0)),
    ]
    for coords, values in table:
        x = TorsionPoint.from_fractions(coords, lattice=lat)
        chi = phi_L_on_point(f, x)
        assert chi.values == tuple(Fraction(v) for v in values)
    with pytest.raises(IncompatibleLattice):
        phi_L_on_point(f, TorsionPoint(reference_form_b().lattice, 1, (0,) * 4))


def test_phi_L_is_a_homomorphism():
    f = _restricted_form()
    rng = random.Random(3)
    pts = torsion_subgroup(f.lattice, 4)
    for _ in range(40):
        x = rng.choice(pts)
        y = rng.choice(pts)
        assert phi_L_on_point(f, x + y) == phi_L_on_point(f, x) * phi_L_on_point(f, y)


def test_kernel_group_of_restricted_form():
    g = kernel_K_L(_restricted_form())
    assert g.invariant_factors == (2, 2)
    assert {p.coords for p in g.elements()} == KERNEL_COORDS


def test_kernel_group_of_principal_form():
    g = kernel_K_L(reference_form_b())
    assert g.order() == 1


def test_two_torsion_kernel_and_image():
    kernel, image = phi_two_torsion_data(_restricted_form())
    assert {p.coords for p in kernel} == KERNEL_COORDS
    assert {chi.values for chi in image} == IMAGE_VALUES
    # kernel size * image size = number of 2-torsion points
    assert len(kernel) * len(image) == 16


def _pointwise_fibres(f, n):
    """The fibre map built point by point in Fractions: the reference."""
    fibres = {}
    for x in torsion_subgroup(f.lattice, n):
        fibres.setdefault(phi_L_on_point(f, x), []).append(x)
    return {chi: tuple(xs) for chi, xs in fibres.items()}


def _assert_matches_pointwise(f, n):
    grid = phi_L_fibres(f, n)
    reference = _pointwise_fibres(f, n)
    assert list(grid) == list(reference)
    for chi, xs in grid.items():
        assert xs == reference[chi]
        assert all(type(v) is Fraction for v in chi.values)
        assert all(type(c) is Fraction for x in xs for c in x.coords)


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_L_fibres_matches_pointwise_reference(n):
    """The integer grid gives the same keys, in the same order, and the same
    fibres as phi_L_on_point over torsion_subgroup, on the forms of A and B."""
    _assert_matches_pointwise(_restricted_form(), n)
    _assert_matches_pointwise(reference_form_b(), n)


@pytest.mark.parametrize("seed", BASIS_SEEDS[::10])
def test_phi_L_fibres_matches_pointwise_reference_in_moved_bases(seed):
    """form_A in random GL4(Z) bases of A has large, negative entries."""
    f = moved_surface(seed).form_A
    assert min(v for row in f.matrix for v in row) < -2
    for n in (2, 4):
        _assert_matches_pointwise(f, n)


def test_phi_L_fibres_rejects_nonpositive_order():
    with pytest.raises(InvalidOrder):
        phi_L_fibres(_restricted_form(), 0)
