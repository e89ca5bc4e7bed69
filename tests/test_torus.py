import gc
import pickle
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

import irrfib.torus
from irrfib.characters import Character, trivial_character
from irrfib.errors import IncompatibleLattice, InvalidTwist
from irrfib.lattice import Lattice, SublatticeEmbedding, TorsionPoint
from irrfib.linalg import determinant, mat_mul, transpose
from irrfib.polarization import (PolarizationType, kernel_K_L, phi_L_grid,
                                 polarization_type)
from irrfib.torus import (REFERENCE_MODULI_ROWS, REFERENCE_VERDICT_COUNTS,
                          SINGULARITY_NODE, SINGULARITY_NONE,
                          SINGULARITY_SMOOTH, SpecialAbelianSurface,
                          _fibre_numerators, _sides,
                          admissible_pairs, build_reference_surface,
                          character_name, classification_report,
                          classification_sweep, classify_pair, display_name,
                          parse_character, phi_two_torsion_data,
                          reference_embedding, reference_form_b,
                          reference_lattice_a, reference_lattice_b, rf_pair)
from pointwise import (cases, fibre, fractions_of, half_periods, phi_L, psi,
                       torsion_points)

HALF = Fraction(1, 2)


def _grouped(cases):
    """The lemma's cases grouped into sides: a component over the second
    factor (cases 1, 2), and over the first (3, 4)."""
    return (not cases.isdisjoint({1, 2}), not cases.isdisjoint({3, 4}))


def _side(s, k):
    """The oracle's sides at the one 4-torsion point k/4."""
    return next(_sides(s, [k]))


VERDICT_BY_NAME = {
    "chiA1": SINGULARITY_NODE,
    "chiA2": SINGULARITY_SMOOTH,
    "chiA3": SINGULARITY_SMOOTH,
    "chiA5": SINGULARITY_SMOOTH,
    "chiA1*chiA5": SINGULARITY_SMOOTH,
    "chiA2*chiA5": SINGULARITY_NONE,
    "chiA3*chiA5": SINGULARITY_NONE,
    "eps1": SINGULARITY_NONE,
    "eps2": SINGULARITY_NONE,
    "eps3": SINGULARITY_NONE,
    "eps4": SINGULARITY_NONE,
    "eps5": SINGULARITY_NONE,
    "eps6": SINGULARITY_NONE,
    "eps7": SINGULARITY_NONE,
    "eps8": SINGULARITY_NONE,
}


@pytest.fixture(scope="module")
def surface():
    return build_reference_surface()


@pytest.fixture(scope="module")
def sweep(surface):
    return classification_sweep(surface)


def _chi(name):
    return parse_character(name, reference_lattice_a())


def _square_roots(chi):
    """The 2^rank characters xi with xi * xi = chi: each value v has the two
    halves v/2 and v/2 + 1/2."""
    halves = [(v / 2, v / 2 + HALF) for v in fractions_of(chi)]
    return {Character.from_fractions(combo, lattice=chi.lattice)
            for combo in product(*halves)}


def test_surface_validation():
    """The embedding is the surface's one input: it must have index 2, and
    be into the product lattice, whose form is the only polarization."""
    identity = SublatticeEmbedding(
        reference_lattice_b(), reference_lattice_a(),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="index 2"):
        SpecialAbelianSurface(identity)
    e = reference_embedding()
    elsewhere = SublatticeEmbedding(Lattice(4, ("a", "b", "c", "d")), e.sub,
                                    e.matrix)
    with pytest.raises(IncompatibleLattice):
        SpecialAbelianSurface(elsewhere)
    assert SpecialAbelianSurface._fields == ("embedding",)


def test_psi_image_frozen(surface):
    lat, ambient = reference_lattice_a(), reference_lattice_b()
    # the fourth basis vector halved maps to a lattice point
    y = psi(surface, TorsionPoint(lat, 2, (0, 0, 0, 1)))
    assert y.lattice == ambient and y.is_origin
    # half of the first period of the first factor
    y = psi(surface, TorsionPoint(lat, 2, (1, 0, 0, 0)))
    assert fractions_of(y) == (HALF, 0, 0, 0)
    # a quarter of mu1 - mu2
    y = psi(surface, TorsionPoint(lat, 4, (0, 0, 1, 0)))
    assert fractions_of(y) == (0, 0, Fraction(1, 4), Fraction(3, 4))


def test_reducible_through_origin_cases(surface):
    """On ambient points (lambda1, lambda2, mu1, mu2): factor i is the pair
    (lambda_i, mu_i), and on the reference its half-period is lambda_i / 2."""
    assert half_periods(surface) == ((HALF, 0), (HALF, 0))
    table = [
        ((0, 0, 0, 0), {1, 3}),
        ((HALF, 0, 0, 0), {1, 4}),
        ((HALF, HALF, 0, 0), {2, 4}),
        ((0, HALF, 0, 0), {2, 3}),
        ((0, Fraction(1, 4), HALF, 0), set()),
        ((0, 0, HALF, 0), {1}),
    ]
    for coords, expected in table:
        y = TorsionPoint.from_fractions(coords, lattice=reference_lattice_b())
        assert fractions_of(y) == coords
        assert cases(surface, y) == frozenset(expected)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_oracle_integer_cases_match_psi_image(surface, seed):
    """The oracle's sides on integer numerators, at every 4-torsion point,
    are the pointwise reference's cases grouped into sides, on A and in two
    moved bases of A."""
    s = surface if seed is None else moved_surface(seed)
    seen = set()
    for x in torsion_points(s.embedding.sub, 4):
        expected = cases(s, psi(s, x))
        assert _side(s, x.nums_over(4)) == _grouped(expected), x
        seen.add(expected)
    assert {frozenset({1, 3}), frozenset({2, 4}), frozenset()} <= seen


def _admissible_qhalf(s):
    return [qhalf for _, qhalf in admissible_pairs(s)]


def _grid_fibre(s, chi, n):
    """The fibre the classification reads off the grid, as points."""
    return [TorsionPoint(s.embedding.sub, n, k)
            for k in _fibre_numerators(s, chi, n)]


def test_translation_sets(surface):
    """The grid's fibres equal the reference's, found by evaluating phi_L
    at every torsion point."""
    f = surface.form_A
    pts = fibre(f, _chi("chiA1"), 4)
    assert len(pts) == 4 and _grid_fibre(surface, _chi("chiA1"), 4) == pts
    # triviality on 2-torsion recovers the polarization kernel
    trivial = trivial_character(reference_lattice_a())
    kernel = fibre(f, trivial, 2)
    assert kernel == kernel_K_L(f).elements() \
        == _grid_fibre(surface, trivial, 2)
    # a character outside the image has no translation points, and an
    # order-4 character no 2-torsion points over it
    outside = Character(reference_lattice_a(), 4, (0, 1, 0, 0))
    quarter = next(q for q in _admissible_qhalf(surface) if q.n == 4)
    for chi, n in ((outside, 4), (quarter, 2)):
        assert fibre(f, chi, n) == _grid_fibre(surface, chi, n) == []


def test_returned_sets_are_fresh(surface):
    kernel, image = phi_two_torsion_data(surface)
    kernel.clear()
    image.add(_chi("chiA1") * _chi("chiA5"))
    assert phi_two_torsion_data(surface) == (
        set(kernel_K_L(surface.form_A).elements()),
        {_chi(name) for name in ("trivial", "chiA1", "chiA2*chiA5",
                                 "chiA3*chiA5")})


def test_translation_sets_are_kernel_cosets(surface):
    kl = kernel_K_L(surface.form_A).elements()
    for qhalf in _admissible_qhalf(surface):
        pts = _grid_fibre(surface, qhalf, 4)
        assert len(pts) == 4
        assert {pts[0] + k for k in kl} == set(pts)


@pytest.mark.parametrize("coords, cases, verdict", [
    ((Fraction(1, 4), 0, 0, 0), {1}, SINGULARITY_SMOOTH),
    ((Fraction(3, 4), HALF, 0, 0), {2}, SINGULARITY_SMOOTH),
    ((Fraction(3, 4), Fraction(1, 4), 0, 0), {3}, SINGULARITY_SMOOTH),
    ((Fraction(1, 4), Fraction(1, 4), 0, 0), {4}, SINGULARITY_SMOOTH),
    ((0, 0, 0, 0), {1, 3}, SINGULARITY_NODE),
])
def test_oracle_groups_the_cases_into_sides(surface, monkeypatch, coords,
                                            cases, verdict):
    """Cases 1 and 2 put a component over one side, 3 and 4 over the other:
    a fibre of one hand-built point, whatever pair it is handed for."""
    x = TorsionPoint.from_fractions(coords, lattice=surface.embedding.sub)
    k = x.nums_over(4)
    assert _side(surface, k) == _grouped(frozenset(cases))
    monkeypatch.setattr(irrfib.torus, "_fibre_numerators",
                        lambda s, chi, n: (k,))
    Q, Qhalf = admissible_pairs(surface)[0]
    assert classify_pair(surface, Q, Qhalf).oracle == verdict


def test_two_torsion_verdicts(surface):
    for name, expected in VERDICT_BY_NAME.items():
        qhalf = _chi(name)
        q = qhalf * qhalf
        row = classify_pair(surface, q, qhalf)
        assert (row.closed, row.oracle) == (expected, expected), name


def test_node_is_unique(sweep):
    counts = Counter(row.closed for row in sweep.rows)
    assert counts[SINGULARITY_NODE] == 1
    assert counts[SINGULARITY_SMOOTH] == 12
    assert counts[SINGULARITY_NONE] == 50
    assert sweep.verdict_counts == counts


def test_routes_agree_everywhere(surface, sweep):
    assert list(sweep.rows) == [classify_pair(surface, Q, Qhalf)
                                for Q, Qhalf in admissible_pairs(surface)]
    for row in sweep.rows:
        assert row.closed == row.oracle, row.Qhalf.texts()
    assert sweep.mismatches == []


def test_a_route_mismatch_names_the_pair_and_both_verdicts(surface, sweep,
                                                          monkeypatch):
    node = next(row for row in sweep.rows if row.closed == SINGULARITY_NODE)
    oracle = irrfib.torus._oracle

    def flipped(s, Qhalf):
        verdict = oracle(s, Qhalf)
        return SINGULARITY_NONE if verdict == SINGULARITY_NODE else verdict

    monkeypatch.setattr(irrfib.torus, "_oracle", flipped)
    assert classification_sweep(surface).mismatches == [
        {"Qhalf": display_name(node.Qhalf), "closed": SINGULARITY_NODE,
         "oracle": SINGULARITY_NONE}]
    assert display_name(node.Qhalf) == "chiA1"


def test_order_four_roots_of_the_node_character(surface):
    chi = _chi("chiA1")
    roots = _square_roots(chi)
    assert len(roots) == 16
    assert all(r * r == chi for r in roots)
    verdicts = Counter(classify_pair(surface, chi, r).closed for r in roots)
    assert verdicts == {SINGULARITY_SMOOTH: 8, SINGULARITY_NONE: 8}


def test_admissible_pairs(surface):
    qs = _admissible_qhalf(surface)
    assert len(qs) == 63
    assert all(not q.is_trivial for q in qs)
    values = [fractions_of(q) for q in qs]
    assert values == sorted(values)
    # every nontrivial 2-torsion character is admissible
    two_torsion = {c for c in qs if c.is_two_torsion}
    assert len(two_torsion) == 15
    for q, qhalf in admissible_pairs(surface):
        assert qhalf * qhalf == q


def test_invalid_pairs_rejected(surface):
    lat = reference_lattice_a()
    chiA5 = _chi("chiA5")  # not in the image of phi on 2-torsion
    root_of_chiA5 = Character(lat, 4, (0, 1, 0, 0))
    with pytest.raises(InvalidTwist):
        classify_pair(surface, chiA5, root_of_chiA5)
    with pytest.raises(InvalidTwist):
        classify_pair(surface, _chi("chiA1"), _chi("chiA2"))
    triv = trivial_character(lat)
    with pytest.raises(InvalidTwist):
        classify_pair(surface, triv, triv)
    chiB = trivial_character(reference_lattice_b())
    with pytest.raises(IncompatibleLattice):
        classify_pair(surface, chiB, chiB)
    # exactly one character on the wrong lattice, in either position
    Q, Qhalf = admissible_pairs(surface)[0]
    for pair in ((Character(chiB.lattice, Q.n, Q.nums), Qhalf),
                 (Q, Character(chiB.lattice, Qhalf.n, Qhalf.nums))):
        with pytest.raises(IncompatibleLattice):
            classify_pair(surface, *pair)


def test_rf_pairs():
    assert rf_pair(SINGULARITY_NONE) == (2, 2)
    assert rf_pair(SINGULARITY_NODE) == (1, 1)
    assert rf_pair(SINGULARITY_SMOOTH) == (1, 2)


def test_moduli_types(surface):
    triv = trivial_character(reference_lattice_a())
    assert classify_pair(surface, triv, _chi("chiA1")).moduli_type == "Ib"
    assert classify_pair(surface, triv, _chi("eps1")).moduli_type == "Ia"
    root = next(iter(_square_roots(_chi("chiA1"))))
    assert classify_pair(surface, _chi("chiA1"), root).moduli_type == "II"
    with pytest.raises(InvalidTwist):
        classify_pair(surface, triv, triv)
    with pytest.raises(InvalidTwist):
        classify_pair(surface, _chi("chiA1"), _chi("chiA2"))
    chiB = trivial_character(reference_lattice_b())
    with pytest.raises(IncompatibleLattice):
        classify_pair(surface, chiB, chiB)


MODULI_ROWS = {
    ("II", SINGULARITY_NONE): 40,
    ("II", SINGULARITY_SMOOTH): 8,
    ("Ia", SINGULARITY_NONE): 8,
    ("Ia", SINGULARITY_SMOOTH): 4,
    ("Ib", SINGULARITY_NODE): 1,
    ("Ib", SINGULARITY_NONE): 2,
}


def test_moduli_row_counts(sweep):
    rows = Counter((row.moduli_type, row.closed) for row in sweep.rows)
    assert sweep.moduli_rows == {"%s/%s" % key: n for key, n in rows.items()}
    assert rows == MODULI_ROWS


def _random_unimodular(rng):
    """A 4x4 integer matrix of determinant +-1: elementary moves on I."""
    g = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(12):
        i, j = rng.sample(range(4), 2)
        k = rng.choice((-2, -1, 1, 2))
        g = [[g[r][c] + (k * g[j][c] if r == i else 0) for c in range(4)]
             for r in range(4)]
        if rng.random() < 0.3:
            g[i], g[j] = g[j], g[i]
    return g


BASIS_SEEDS = range(50)


def moved_surface(seed, e=None):
    """The surface on the embedding E, the reference's by default,
    re-expressed in a random GL4(Z) basis of A.

    The embedding becomes E*G, and form_A follows it.
    """
    g = _random_unimodular(random.Random(seed))
    assert abs(determinant(g)) == 1
    e = e or reference_embedding()
    moved = SublatticeEmbedding(e.ambient, Lattice(4, ("g1", "g2", "g3", "g4")),
                                mat_mul(e.matrix, g))
    return SpecialAbelianSurface(moved)


@pytest.mark.parametrize("seed", BASIS_SEEDS)
def test_classification_is_basis_independent(seed):
    """The sweep on the reference surface in a new basis of A: both routes
    must still agree, with the same verdict counts and moduli rows. The
    form is still of type (1,2), as det(E*G) = +-2."""
    s = moved_surface(seed)
    assert polarization_type(s.form_A) == PolarizationType(1, 2)
    sweep = classification_sweep(s)
    assert len(sweep.rows) == 63
    assert sweep.mismatches == []
    assert sweep.verdict_counts == {SINGULARITY_NODE: 1,
                                    SINGULARITY_SMOOTH: 12,
                                    SINGULARITY_NONE: 50}
    assert Counter((row.moduli_type, row.closed)
                   for row in sweep.rows) == MODULI_ROWS


def index_two_surface(a):
    """The surface on the sublattice {x : a.x even} of the reference product
    lattice, a a nonzero vector mod 2; a = (0, 0, 1, 1) is the reference."""
    i = a.index(1)
    columns = [[2 * (r == i) for r in range(4)] if j == i else
               [(r == j) - (r == i) * a[j] for r in range(4)]
               for j in range(4)]
    e = SublatticeEmbedding(reference_lattice_b(), reference_lattice_a(),
                            tuple(zip(*columns)))
    return SpecialAbelianSurface(e)


INDEX_TWO = [a for a in product((0, 1), repeat=4) if any(a)]


def test_the_squares_are_phis_image_on_two_torsion():
    """The squares of the admissible pairs are phi's image on 2-torsion, four
    characters, so the 63 pairs share four Q's: on the reference surface, in
    moved bases and on every index-2 sublattice."""
    surfaces = ([build_reference_surface()]
                + [moved_surface(seed) for seed in BASIS_SEEDS]
                + [index_two_surface(a) for a in INDEX_TWO])
    for s in surfaces:
        squares = {Q for Q, _ in admissible_pairs(s)}
        assert squares == phi_two_torsion_data(s)[1], s.embedding
        assert len(squares) == 4


def test_the_tables_do_not_keep_a_surface_alive():
    """A swept surface that the caller drops is freed, tables and all: the
    tables are attributes of the surface itself, and nothing outside it
    holds them or it."""
    refs = []
    for seed in range(1000, 1003):
        s = moved_surface(seed)
        assert classification_sweep(s).mismatches == []
        refs.append(weakref.ref(s))
    del s
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_the_oracle_never_reads_the_period_lattices(surface, sweep,
                                                    monkeypatch):
    """With wrong period lattices on the surface, every oracle verdict of
    the sweep stands, and some closed-form verdict changes."""
    unit = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    monkeypatch.setitem(vars(surface), "_periods", (unit[:2], unit[2:]))
    rows = classification_sweep(surface).rows
    assert [row.oracle for row in rows] == [row.oracle for row in sweep.rows]
    assert [row.closed for row in rows] != [row.closed for row in sweep.rows]


def test_the_derived_tables_never_travel(surface, sweep):
    """A pickled surface carries its one field, not the tables derived from
    it; loaded again, it derives them anew and sweeps row for row alike."""
    data = pickle.dumps(surface)
    assert b"_grids" not in data and b"_periods" not in data
    loaded = pickle.loads(data)
    assert loaded == surface and loaded._grids is not surface._grids
    assert classification_sweep(loaded) == sweep


# the sweep of the six index-2 surfaces where a is zero on one factor
PRODUCT_VERDICT_COUNTS = {SINGULARITY_NONE: 45, SINGULARITY_SMOOTH: 18}
PRODUCT_MODULI_ROWS = {"Ia/none": 9, "Ia/smooth_point": 3,
                       "Ib/smooth_point": 3, "II/none": 36,
                       "II/smooth_point": 12}


@pytest.mark.parametrize("a", INDEX_TWO, ids=lambda a: "".join(map(str, a)))
def test_grid_oracle_matches_pointwise_on_every_index_two_sublattice(a):
    """On all 15 surfaces the library accepts on an index-2 sublattice, the
    numerator grids equal the pointwise reference at every 4-torsion point:
    the oracle's sides are the reference's cases at psi(x) grouped into
    sides, the fibres phi_L's, and phi_two_torsion_data the pointwise kernel
    and image. The sweep is classify_pair on each admissible pair, and the
    two routes agree on every pair. Where a is nonzero on both factors the
    sweep gives the paper's table. The other six (a zero on one factor, so
    A is a product) are one orbit of the product automorphisms, as SL2(Z)
    is transitive on the nonzero vectors mod 2 and the swap exchanges the
    factors, and they share one table, with no node. The half-periods, which
    the surface reads off the kernel of restriction mod 2, are the
    reference's as numerators over 4; (0, 0) is none."""
    s = index_two_surface(a)
    f, lat = s.form_A, s.embedding.sub
    assert polarization_type(f) == PolarizationType(1, 2)
    assert all(sum(map(mul, a, col)) % 2 == 0 for col in zip(*s.embedding.matrix))
    assert s._halves == tuple((0, 0) if h is None else (4 * h[0], 4 * h[1])
                              for h in half_periods(s))
    grid = {}
    for x in torsion_points(lat, 4):
        k = x.nums_over(4)
        assert _side(s, k) == _grouped(cases(s, psi(s, x))), x
        grid.setdefault(phi_L(f, x).nums_over(4), []).append(k)
    assert list(phi_L_grid(f, 4).items()) \
        == [(key, tuple(ks)) for key, ks in grid.items()]
    two = [(x, phi_L(f, x)) for x in torsion_points(lat, 2)]
    assert phi_two_torsion_data(s) == ({x for x, chi in two if chi.is_trivial},
                                       {chi for _, chi in two})
    sweep = classification_sweep(s)
    assert list(sweep.rows) == [classify_pair(s, Q, Qhalf)
                                for Q, Qhalf in admissible_pairs(s)]
    assert sweep.mismatches == []
    assert all(row.closed == row.oracle for row in sweep.rows)
    if (a[0] or a[2]) and (a[1] or a[3]):
        assert sweep.verdict_counts == REFERENCE_VERDICT_COUNTS
        assert sweep.moduli_rows == REFERENCE_MODULI_ROWS
    else:
        assert sweep.verdict_counts == PRODUCT_VERDICT_COUNTS
        assert sweep.moduli_rows == PRODUCT_MODULI_ROWS


def _random_sl2(rng):
    """A 2x2 integer matrix of determinant 1: row additions on I."""
    g = [[1, 0], [0, 1]]
    for _ in range(6):
        i, k = rng.randrange(2), rng.choice((-2, -1, 1, 2))
        g[i] = [x + k * y for x, y in zip(g[i], g[1 - i])]
    return g


def product_automorphism(seed):
    """An automorphism g of the product lattice that keeps the product form:
    SL2(Z) on each factor's (lambda_i, mu_i), at ambient indices (0, 2) and
    (1, 3), then on odd seeds the factor swap lambda1<->lambda2,
    mu1<->mu2."""
    rng = random.Random(seed)
    g = [[0] * 4 for _ in range(4)]
    for factor in ((0, 2), (1, 3)):
        block = _random_sl2(rng)
        for r, i in enumerate(factor):
            for c, j in enumerate(factor):
                g[i][j] = block[r][c]
    return [g[i] for i in (1, 0, 3, 2)] if seed % 2 else g


@pytest.mark.parametrize("a", INDEX_TWO, ids=lambda a: "".join(map(str, a)))
def test_the_sweep_is_invariant_under_the_product_automorphisms(a):
    """g keeps the product form J, so the surface on g*E has E's form_A,
    and its sweep must be E's pair by pair: the closed form reads g*E's
    period lattices and the oracle its half-periods, and both must follow
    g. In a new basis G of A as well (g*E*G), the verdict counts and the
    moduli rows stand."""
    s = index_two_surface(a)
    e, sweep = s.embedding, classification_sweep(s)
    j = [list(row) for row in reference_form_b().matrix]
    for seed in range(6 * INDEX_TWO.index(a), 6 * INDEX_TWO.index(a) + 6):
        g = product_automorphism(seed)
        assert mat_mul(mat_mul(transpose(g), j), g) == j
        moved = SpecialAbelianSurface(
            SublatticeEmbedding(e.ambient, e.sub, mat_mul(g, e.matrix)))
        assert moved.form_A == s.form_A
        assert classification_sweep(moved).rows == sweep.rows, seed
        based = classification_sweep(moved_surface(seed, moved.embedding))
        assert (based.verdict_counts, based.moduli_rows) \
            == (sweep.verdict_counts, sweep.moduli_rows), seed


def test_each_pair_is_checked_once(surface, monkeypatch):
    """A sweep checks each of its 63 pairs once, and a report its one pair."""
    calls = []
    check = irrfib.torus._check_pair

    def counted(s, Q, Qhalf):
        calls.append((Q, Qhalf))
        return check(s, Q, Qhalf)

    monkeypatch.setattr(irrfib.torus, "_check_pair", counted)
    sweep = classification_sweep(surface)
    assert calls == [(row.Q, row.Qhalf) for row in sweep.rows]
    assert len(calls) == 63
    calls.clear()
    classification_report(surface, trivial_character(reference_lattice_a()),
                          _chi("chiA1"))
    assert len(calls) == 1


def test_classification_report_shape(surface):
    rep = classification_report(surface, trivial_character(reference_lattice_a()),
                                _chi("chiA1"))
    assert rep["singularity"] == SINGULARITY_NODE
    assert rep["singularity"] == rep["singularity_oracle"]
    assert rep["rf_pair"] == [1, 1]
    assert rep["moduli_type"] == "Ib"
    assert rep["witness_points"]
    # a pair with no reducible member through the origin has no witnesses
    rep = classification_report(surface, trivial_character(reference_lattice_a()),
                                _chi("eps1"))
    assert rep["singularity"] == SINGULARITY_NONE
    assert rep["witness_points"] == []


def test_character_names_round_trip():
    a = reference_lattice_a()
    b = reference_lattice_b()
    for name in ("chiA1", "chiA2", "chiA3", "chiA5", "eps1", "eps8",
                 "chiA2*chiA5", "trivial"):
        assert character_name(parse_character(name, a)) == name
    for name in ("chiB1", "chiB4", "chiB2*chiB5", "trivial"):
        assert character_name(parse_character(name, b)) == name
    # products reduce to table names
    assert character_name(_chi("chiA1") * _chi("chiA5")) == "chiA1*chiA5"
    assert character_name(_chi("chiA1") * _chi("chiA1")) == "trivial"
    # raw vectors parse too
    chi = parse_character("0,0,1/2,0", a)
    assert chi == _chi("chiA1")
    assert character_name(Character(a, 4, (1, 0, 0, 0))) is None
    # display names fall back to the raw vector
    assert display_name(chi) == "chiA1"
    assert display_name(Character(a, 4, (1, 0, 0, 0))) == "1/4,0,0,0"


def test_parse_character_errors():
    a = reference_lattice_a()
    with pytest.raises(ValueError):
        parse_character("chiA9", a)
    with pytest.raises(ValueError):
        parse_character("0,1/2", a)
    from irrfib.lattice import Lattice
    with pytest.raises(ValueError):
        parse_character("chiA1", Lattice(2, ("x", "y")))
