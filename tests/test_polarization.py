import random
from fractions import Fraction

import pytest

import irrfib.lattice
import irrfib.polarization
from irrfib import linalg
from irrfib.errors import (DegenerateForm, IncompatibleLattice, InvalidOrder,
                           InvalidRank)
from irrfib.lattice import Lattice, TorsionPoint
from irrfib.linalg import determinant
from irrfib.polarization import (AlternatingForm, PolarizationType,
                                 kernel_K_L, phi_L_grid, polarization_type,
                                 restrict_form)
from irrfib.torus import (build_reference_surface, phi_two_torsion_data,
                          reference_embedding, reference_form_b,
                          reference_lattice_a)
from pointwise import fractions_of, phi_L, torsion_points
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
    # nonzero, but Pf = 1*1 - 1*1 + 0 = 0
    flat = AlternatingForm(lat, ((0, 1, 1, 0), (-1, 0, 0, 1),
                                 (-1, 0, 0, 1), (0, -1, -1, 0)))
    for f in (zero, flat):
        with pytest.raises(DegenerateForm):
            polarization_type(f)
        with pytest.raises(DegenerateForm):
            kernel_K_L(f)


def test_kernel_runs_one_determinant(monkeypatch):
    """K(L)'s degeneracy refusal is its embedding's determinant check."""
    f, calls = _restricted_form(), []

    def counted(m):
        calls.append(m)
        return determinant(m)

    for module in (linalg, irrfib.lattice, irrfib.polarization):
        monkeypatch.setattr(module, "determinant", counted, raising=False)
    assert kernel_K_L(f).order() == 4
    assert len(calls) == 1


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
        chi = phi_L(f, x)
        assert fractions_of(chi) == tuple(Fraction(v) for v in values)


def test_phi_L_is_a_homomorphism():
    f = _restricted_form()
    rng = random.Random(3)
    pts = torsion_points(f.lattice, 4)
    for _ in range(40):
        x = rng.choice(pts)
        y = rng.choice(pts)
        assert phi_L(f, x + y) == phi_L(f, x) * phi_L(f, y)


def test_kernel_group_of_restricted_form():
    g = kernel_K_L(_restricted_form())
    assert g.invariant_factors == (2, 2)
    assert {fractions_of(p) for p in g.elements()} == KERNEL_COORDS


def test_kernel_group_of_principal_form():
    g = kernel_K_L(reference_form_b())
    assert g.order() == 1


def test_two_torsion_kernel_and_image():
    kernel, image = phi_two_torsion_data(build_reference_surface())
    assert {fractions_of(p) for p in kernel} == KERNEL_COORDS
    assert {fractions_of(chi) for chi in image} == IMAGE_VALUES
    # kernel size * image size = number of 2-torsion points
    assert len(kernel) * len(image) == 16


def assert_grid_matches_pointwise(f, n):
    """phi_L_grid has the reference's keys, in the order their first point
    appears, and its fibres, compared by numerators over n."""
    fibres = {}
    for x in torsion_points(f.lattice, n):
        fibres.setdefault(phi_L(f, x).nums_over(n), []).append(x.nums_over(n))
    assert list(phi_L_grid(f, n).items()) \
        == [(key, tuple(ks)) for key, ks in fibres.items()]


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_L_grid_matches_pointwise_reference(n):
    """The integer grid gives the same keys, in the same order, and the same
    fibres as the reference's phi_L at every n-torsion point, on the forms
    of A and B."""
    assert_grid_matches_pointwise(_restricted_form(), n)
    assert_grid_matches_pointwise(reference_form_b(), n)


@pytest.mark.parametrize("seed", BASIS_SEEDS[::10])
def test_phi_L_grid_matches_pointwise_reference_in_moved_bases(seed):
    """form_A in random GL4(Z) bases of A has large, negative entries."""
    f = moved_surface(seed).form_A
    assert min(v for row in f.matrix for v in row) < -2
    for n in (2, 4):
        assert_grid_matches_pointwise(f, n)


def test_phi_L_grid_rejects_nonpositive_order():
    with pytest.raises(InvalidOrder):
        phi_L_grid(_restricted_form(), 0)
