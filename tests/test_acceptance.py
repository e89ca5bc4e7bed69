"""Acceptance suite: twelve exact criteria, one test and one verdict line each.

Run with -v for per-criterion PASSED/FAILED rows, or -s to see the verdict
lines; every check is exact (integers, Fractions, set equality).
"""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

from irrfib.bundles import (EllipticPoint, atiyah_bundle, elliptic_origin,
                            generic_point, h0, h1, jump_h1,
                            pushforward_decomposition, twist, xiao_structure)
from irrfib.characters import kernel_of_restriction, torsion_characters
from irrfib.intersection import (KernelCurve, derive_pen6_pairings, dot,
                                 kernel_dot, kernel_dot_oracle,
                                 nef_violation_certificate, pen6_fibres,
                                 pen6_lattice, serrano_canonical_pen6)
from irrfib.invariants import (NOT_ISOTRIVIAL, example_record,
                               genus_bound_rank_one, isotriviality_obstruction,
                               slope, unbounded_family)
from irrfib.lattice import Rational
from irrfib.polarization import kernel_K_L, polarization_type
from irrfib.torus import (SINGULARITY_NODE, SINGULARITY_NONE,
                          SINGULARITY_SMOOTH, build_reference_surface,
                          character_name, classification_sweep,
                          phi_two_torsion_data, reference_embedding, rf_pair)
from pointwise import fractions_of

HALF = Fraction(1, 2)


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %02d FAIL: %s" % (n, label))
                raise
            print("criterion %02d PASS: %s" % (n, label))
        return run
    return wrap


@criterion(1, "restricted polarization has type (1,2) at index 2")
def test_criterion_01_polarization_type():
    s = build_reference_surface()
    assert s.embedding.index == 2
    t = polarization_type(s.form_A)
    assert (t.d1, t.d2) == (1, 2)


@criterion(2, "polarization kernel is the expected 4-point group")
def test_criterion_02_polarization_kernel():
    s = build_reference_surface()
    g = kernel_K_L(s.form_A)
    assert g.invariant_factors == (2, 2)
    assert {fractions_of(p) for p in g.elements()} == {
        (0, 0, 0, 0),
        (0, 0, 0, HALF),        # second period of the second factor
        (0, HALF, 0, 0),        # half the second basis vector
        (0, HALF, 0, HALF),
    }


@criterion(3, "restriction kernel is generated by one product character")
def test_criterion_03_restriction_kernel():
    kern = kernel_of_restriction(reference_embedding(), 2)
    assert {chi.pm_vector() for chi in kern} == {
        (1, 1, 1, 1), (1, 1, -1, -1)}
    assert {character_name(chi) for chi in kern} == {"trivial", "chiB1*chiB4"}


@criterion(4, "image of phi on 2-torsion is the expected 4-character set")
def test_criterion_04_two_torsion_image():
    s = build_reference_surface()
    _, image = phi_two_torsion_data(s)
    assert {character_name(chi) for chi in image} == {
        "trivial", "chiA1", "chiA2*chiA5", "chiA3*chiA5"}


@criterion(5, "2-torsion characters split into the two 8-element tables")
def test_criterion_05_character_tables():
    from irrfib.characters import two_torsion_character_tables
    extendable, new = two_torsion_character_tables(reference_embedding())
    assert {character_name(chi) for chi in extendable} == {
        "trivial", "chiA1", "chiA2", "chiA3", "chiA5",
        "chiA1*chiA5", "chiA2*chiA5", "chiA3*chiA5"}
    assert {character_name(chi) for chi in new} == {
        "eps%d" % k for k in range(1, 9)}
    assert extendable | new == set(
        torsion_characters(reference_embedding().sub, 2))


@criterion(6, "both classification routes agree on all 63 admissible pairs "
              "and reproduce the verdict/moduli table")
def test_criterion_06_classification_sweep():
    sweep = classification_sweep(build_reference_surface())
    assert len(sweep.rows) == 63
    assert sweep.mismatches == []
    verdicts = Counter()
    rows = Counter()
    node_names = []
    for row in sweep.rows:
        closed = row.closed
        assert closed == row.oracle
        verdicts[closed] += 1
        rows[(row.moduli_type, closed)] += 1
        if closed == SINGULARITY_NODE:
            node_names.append(character_name(row.Qhalf))
            assert rf_pair(closed) == (1, 1)
        elif closed == SINGULARITY_SMOOTH:
            assert rf_pair(closed) == (1, 2)
        else:
            assert rf_pair(closed) == (2, 2)
    assert verdicts == {SINGULARITY_NODE: 1, SINGULARITY_SMOOTH: 12,
                        SINGULARITY_NONE: 50}
    assert node_names == ["chiA1"]
    assert rows == {("Ib", SINGULARITY_NODE): 1,
                    ("Ib", SINGULARITY_NONE): 2,
                    ("Ia", SINGULARITY_SMOOTH): 4,
                    ("Ia", SINGULARITY_NONE): 8,
                    ("II", SINGULARITY_SMOOTH): 8,
                    ("II", SINGULARITY_NONE): 40}


@criterion(7, "kernel-curve degrees: closed form n^2+1 and oracle agreement "
              "on all small primitive pairs with |det| <= 6")
def test_criterion_07_kernel_degrees():
    for n in range(1, 21):
        total = kernel_dot(KernelCurve(1, n), KernelCurve(1, 0)) + \
            kernel_dot(KernelCurve(1, n), KernelCurve(0, 1))
        assert total == n * n + 1
    vectors = [KernelCurve(p, q)
               for p, q in product(range(-2, 3), repeat=2)
               if gcd(p, q) == 1]
    # stretch the determinant range up to 6 with longer vectors
    extra = [(KernelCurve(1, 6), KernelCurve(1, 0)),
             (KernelCurve(6, 1), KernelCurve(0, 1)),
             (KernelCurve(1, 3), KernelCurve(-1, 3)),
             (KernelCurve(5, 4), KernelCurve(1, 2)),
             (KernelCurve(1, 4), KernelCurve(1, -2))]
    pairs = [(c1, c2) for c1 in vectors for c2 in vectors] + extra
    checked = set()
    for c1, c2 in pairs:
        det = abs(c1.p * c2.q - c1.q * c2.p)
        if det == 0 or det > 6:
            continue
        for m in (det, 2 * det):
            if m < 2:
                continue
            assert kernel_dot_oracle(c1, c2, m) == kernel_dot(c1, c2) \
                == det * det
            checked.add(det)
    assert checked == {1, 2, 3, 4, 5, 6}


@criterion(8, "unbounded family: gF = n^2+2 and r = n^2+1 for n = 1..20 "
              "at slope exactly 4")
def test_criterion_08_family():
    for n in range(1, 21):
        rec, _ = unbounded_family(n)
        assert rec.gF == n * n + 2
        assert rec.r == n * n + 1
        assert slope(4, 1, 1, rec.gF) == Rational(4)
        shape = xiao_structure(rec.gF, Fraction(4), 2, 1)
        assert shape.trivial_rank == 1
        assert shape.semistable_rank == rec.r


@criterion(9, "quotient-lattice re-derivation fixes all stated numbers and "
              "the nef certificate forces rank 2")
def test_criterion_09_pen6():
    lattice = pen6_lattice()
    derived = derive_pen6_pairings()
    for (a, b), value in derived.items():
        i, j = lattice.basis_labels.index(a), lattice.basis_labels.index(b)
        assert lattice.gram[i][j] == value
    k = serrano_canonical_pen6(lattice)
    f1, f2 = pen6_fibres(lattice)
    assert dot(k, k) == 5
    assert dot(f1, f1) == 0 and dot(f2, f2) == 0
    assert dot(f1, f2) == 6
    assert dot(k, lattice.basis_class("Y1")) == 1
    assert dot(k, lattice.basis_class("Y2")) == 1
    assert nef_violation_certificate(k - f1, f2) == -2
    assert nef_violation_certificate(k - f2, f1) == -2
    record, _ = example_record("pen-6")
    assert [f.r for f in record.fibrations] == [2, 2]


@criterion(10, "bundle cohomology: twisted degree-1 indecomposables, random "
               "negative-degree vanishing, Riemann-Roch on 200 samples")
def test_criterion_10_bundle_cohomology():
    points = {EllipticPoint(n, (a, b))
              for n in range(1, 7) for a in range(n) for b in range(n)}
    assert all(p.order() <= 6 for p in points)
    for r in range(1, 11):
        for det in (generic_point("p"), elliptic_origin()):
            bundle = atiyah_bundle(r, det)
            for q in points:
                twisted = twist(bundle, q)
                assert h0(twisted) == 1
                assert h1(twisted) == 0
    rng = random.Random(99)
    choices = [elliptic_origin(), generic_point("p"),
               EllipticPoint(2, (1, 0)), EllipticPoint(3, (1, 0))]
    from irrfib.bundles import IndecomposableBundle
    for _ in range(20):
        b = IndecomposableBundle(rng.randint(1, 10), rng.randint(-9, -1),
                                 rng.choice(choices))
        assert h0(b) == 0
    for _ in range(200):
        b = IndecomposableBundle(rng.randint(1, 10), rng.randint(-9, 9),
                                 rng.choice(choices))
        assert h0(b) - h1(b) == b.degree


@criterion(11, "jump table on a g=5, r=2 decomposition: 2 / 1 / 0")
def test_criterion_11_jump_table():
    t1 = EllipticPoint(5, (1, 0))
    t2 = EllipticPoint(6, (0, 1))
    d = pushforward_decomposition(5, 2, generic_point("p"), (t1, t2))
    assert jump_h1(d, elliptic_origin()) == 2
    assert jump_h1(d, -t1) == 1
    assert jump_h1(d, -t2) == 1
    probes = [t1, t2, t1 + t2, EllipticPoint(2, (1, 0)),
              EllipticPoint(3, (1, 1))]
    assert [jump_h1(d, q) for q in probes] == [0, 0, 0, 0, 0]


@criterion(12, "strict isotriviality window at (6,1) and rank-one genus "
               "bound at (9,1)")
def test_criterion_12_obstruction_and_bound():
    verdict, inequality = isotriviality_obstruction(6, 1, ample=True)
    assert verdict == NOT_ISOTRIVIAL
    assert inequality == "8*chi - 5 < K2 < 8*chi"
    assert genus_bound_rank_one(9, 1) == 5
