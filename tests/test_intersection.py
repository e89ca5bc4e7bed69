import random
from itertools import product
from math import gcd

import pytest

import irrfib.intersection
from irrfib.cli import main
from irrfib.errors import (IncompatibleLattice, InvalidModulus, IrrfibError,
                           NonPrimitive)
from irrfib.intersection import (DivisorClass, IntersectionLattice,
                                 KernelCurve, degree_vs_product_polarization,
                                 derive_pen6_pairings, dot, kernel_dot,
                                 kernel_dot_oracle, nef_violation_certificate,
                                 pen6_fibres, pen6_lattice,
                                 serrano_canonical_pen6, PEN6_LABELS)

EXPECTED_GRAM = ((-1, 0, 1, 0, 1),
                 (0, -1, 0, 1, 1),
                 (1, 0, -2, 1, 0),
                 (0, 1, 1, -2, 0),
                 (1, 1, 0, 0, -3))
# the products the derivation solves for, in its order, and their places
DERIVED = {(a, b): (PEN6_LABELS.index(a), PEN6_LABELS.index(b))
           for a, b in (("Y1", "Z1"), ("Y1", "Z2"), ("Y1", "W"),
                        ("Y2", "Z1"), ("Y2", "Z2"), ("Y2", "W"))}


def test_lattice_validation():
    with pytest.raises(ValueError):
        IntersectionLattice(("a", "b"), ((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        IntersectionLattice(("a", "b"), ((0,),))
    lat = IntersectionLattice(("a", "b"), ((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        DivisorClass(lat, (1, 2, 3))
    with pytest.raises(TypeError):  # a coefficient that is not an integer
        DivisorClass(lat, (1, 0.5))
    other = IntersectionLattice(("c", "d"), ((2, 1), (1, 2)))
    with pytest.raises(IncompatibleLattice):
        dot(lat.basis_class("a"), other.basis_class("c"))
    with pytest.raises(IncompatibleLattice):
        lat.basis_class("a") + other.basis_class("c")


def test_divisor_arithmetic():
    lat = pen6_lattice()
    y1 = lat.basis_class("Y1")
    w = lat.basis_class("W")
    assert (y1 + w).coeffs == (1, 0, 0, 0, 1)
    assert (y1 - w).coeffs == (1, 0, 0, 0, -1)
    assert dot(y1, y1) == -1
    assert dot(w, w) == -3


def test_derivation_matches_frozen_table():
    assert list(derive_pen6_pairings().items()) == [
        (pair, EXPECTED_GRAM[i][j]) for pair, (i, j) in DERIVED.items()]


def test_the_derivation_never_reads_what_it_derives(capsys, monkeypatch):
    """With the six derived entries of the Gram matrix, and their mirrors,
    each one higher, the derivation stands, and `example pen-6` fails the
    six checks that compare it with the matrix."""
    derived = derive_pen6_pairings()
    gram = [list(row) for row in EXPECTED_GRAM]
    for i, j in DERIVED.values():
        gram[i][j] += 1
        gram[j][i] += 1
    monkeypatch.setattr(irrfib.intersection, "PEN6_GRAM",
                        tuple(map(tuple, gram)))
    assert list(derive_pen6_pairings().items()) == list(derived.items())
    assert main(["example", "pen-6"]) == 2
    out = capsys.readouterr().out
    for (a, b), value in derived.items():
        assert "FAIL derived pairing %s.%s: expected %d, actual %d" % (
            a, b, value + 1, value) in out


@pytest.mark.parametrize("i, value, message", [
    (2, -3, "F1.Z1 = 0 has no integer Y1.Z1"),
    (0, -2, "F1.Y1 is -3, not 0")], ids=("remainder", "fibre-meets-section"))
def test_inconsistent_stated_entries_are_a_domain_error(
        capsys, monkeypatch, i, value, message):
    """Z1.Z1 = -3 leaves F1.Z1 = 0 without an integer Y1.Z1, and Y1.Y1 = -2
    makes F1.Y1 nonzero: `example pen-6` exits 65 on one error line."""
    gram = [list(row) for row in EXPECTED_GRAM]
    gram[i][i] = value
    monkeypatch.setattr(irrfib.intersection, "PEN6_GRAM",
                        tuple(map(tuple, gram)))
    with pytest.raises(IrrfibError):
        derive_pen6_pairings()
    assert main(["example", "pen-6"]) == 65
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: IrrfibError: %s\n" % message)


def test_gram_matrix_frozen():
    assert pen6_lattice().gram == EXPECTED_GRAM


def test_pen6_numbers():
    lat = pen6_lattice()
    f1, f2 = pen6_fibres(lat)
    k = serrano_canonical_pen6(lat)
    assert dot(f1, f1) == 0
    assert dot(f2, f2) == 0
    assert dot(f1, f2) == 6
    assert dot(k, k) == 5
    assert dot(k, f1) == 4
    assert dot(k, f2) == 4
    assert dot(k, lat.basis_class("Y1")) == 1
    assert dot(k, lat.basis_class("Y2")) == 1
    # adjunction on both fibre classes: genus 3 members
    assert dot(k + f1, f1) == 4
    assert dot(k + f2, f2) == 4


def test_serrano_canonical_guard():
    other = IntersectionLattice(("a", "b"), ((0, 1), (1, 0)))
    with pytest.raises(IncompatibleLattice):
        serrano_canonical_pen6(other)


def test_nef_certificates():
    lat = pen6_lattice()
    f1, f2 = pen6_fibres(lat)
    k = serrano_canonical_pen6(lat)
    assert nef_violation_certificate(k - f1, f2) == -2
    assert nef_violation_certificate(k - f2, f1) == -2
    assert nef_violation_certificate(k, f1) is None
    zero = DivisorClass(lat, (0,) * 5)
    assert nef_violation_certificate(zero, f1) is None


def test_kernel_curve_validation():
    with pytest.raises(NonPrimitive):
        KernelCurve(2, 4)
    with pytest.raises(NonPrimitive):
        KernelCurve(0, 0)
    with pytest.raises(TypeError):  # a degree that is not an integer
        KernelCurve("2", 1)
    KernelCurve(1, 0)
    KernelCurve(0, -1)


def test_kernel_dot_frozen():
    assert kernel_dot(KernelCurve(1, 0), KernelCurve(0, 1)) == 1
    for n in range(1, 8):
        assert kernel_dot(KernelCurve(1, n), KernelCurve(1, 0)) == n * n
        assert kernel_dot(KernelCurve(1, n), KernelCurve(0, 1)) == 1


def _random_primitive(rng, bound):
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if gcd(p, q) == 1:
            return KernelCurve(p, q)


def test_kernel_dot_properties():
    rng = random.Random(17)
    for _ in range(60):
        a = _random_primitive(rng, 9)
        b = _random_primitive(rng, 9)
        v = kernel_dot(a, b)
        assert v >= 0
        assert v == kernel_dot(b, a)
        assert v == kernel_dot(KernelCurve(-a.p, -a.q), b)
        same = (a.p, a.q) == (b.p, b.q) or (a.p, a.q) == (-b.p, -b.q)
        assert (v == 0) == same


def test_degree_vs_product_polarization():
    assert degree_vs_product_polarization(KernelCurve(1, 0)) == 1
    assert degree_vs_product_polarization(KernelCurve(1, 1)) == 2
    assert degree_vs_product_polarization(KernelCurve(1, 3)) == 10
    rng = random.Random(23)
    for _ in range(30):
        c = _random_primitive(rng, 9)
        assert degree_vs_product_polarization(c) == c.p ** 2 + c.q ** 2


def test_oracle_frozen_values():
    assert kernel_dot_oracle(KernelCurve(1, 2), KernelCurve(1, 0), 2) == 4
    assert kernel_dot_oracle(KernelCurve(1, 3), KernelCurve(1, 0), 3) == 9
    assert kernel_dot_oracle(KernelCurve(1, 0), KernelCurve(0, 1), 5) == 1


def test_oracle_modulus_validation():
    a, b = KernelCurve(1, 0), KernelCurve(0, 1)
    with pytest.raises(InvalidModulus):
        kernel_dot_oracle(a, b, 1)
    with pytest.raises(InvalidModulus):
        kernel_dot_oracle(a, b, 0)
    with pytest.raises(InvalidModulus):
        kernel_dot_oracle(a, b, 2.0)


def test_oracle_agrees_with_closed_form():
    # small sample here; the exhaustive run lives in the acceptance suite
    cases = [((1, 2), (1, 0)), ((1, 1), (1, -1)), ((2, 1), (1, 2)),
             ((1, 4), (1, 0)), ((3, 2), (1, 1))]
    for (p1, q1), (p2, q2) in cases:
        c1, c2 = KernelCurve(p1, q1), KernelCurve(p2, q2)
        d = abs(c1.p * c2.q - c1.q * c2.p)
        for m in (d, 2 * d):
            if m >= 2 and d != 0 and m % d == 0:
                assert kernel_dot_oracle(c1, c2, m) == kernel_dot(c1, c2)


def _raw_common_torsion(c1, c2, m):
    # reference: every cell (x1, x2, y1, y2) of (Z/m)^4, all four relations
    return sum(1 for x1, x2, y1, y2 in product(range(m), repeat=4)
               if (c1.p * x1 + c1.q * y1) % m == 0
               and (c1.p * x2 + c1.q * y2) % m == 0
               and (c2.p * x1 + c2.q * y1) % m == 0
               and (c2.p * x2 + c2.q * y2) % m == 0)


def test_oracle_matches_raw_enumeration():
    rng = random.Random(29)
    for m in range(2, 10):
        pairs = [(_random_primitive(rng, 9), _random_primitive(rng, 9))
                 for _ in range(8)]
        pairs += [(c, KernelCurve(s * c.p, s * c.q))  # det = 0
                  for c in (_random_primitive(rng, 9) for _ in range(2))
                  for s in (1, -1)]
        dets = [abs(a.p * b.q - a.q * b.p) for a, b in pairs]
        assert any(d and m % d for d in dets)  # det need not divide m
        for a, b in pairs:
            assert kernel_dot_oracle(a, b, m) == _raw_common_torsion(a, b, m)
    # at the CLI's cap the raw loop is too slow; the closed form holds there
    for m in (64, 60):
        for _ in range(6):
            while True:
                a, b = _random_primitive(rng, 9), _random_primitive(rng, 9)
                d = abs(a.p * b.q - a.q * b.p)
                if d and m % d == 0:
                    break
            assert kernel_dot_oracle(a, b, m) == kernel_dot(a, b)
