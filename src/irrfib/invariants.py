"""Numerical fibration invariants and the curated example database.

Slope, the isotriviality windows, the genus bound for a line-bundle ample
part, Riemann-Hurwitz for double covers, the unbounded family generator,
and fixed records for the known surfaces with p_g = q = 2. Where a record's
rank admits an independent derivation (slope structure, nef violation),
the constructor re-runs it instead of trusting the stored number, and
returns the derivation's named checks beside the record.
"""

from .bundles import (ample_part_is_line, generic_point,
                      pushforward_decomposition, xiao_structure)
from .errors import (InvalidBranching, NotApplicable, UndefinedSlope)
from .intersection import (KernelCurve, degree_vs_product_polarization,
                           derive_pen6_pairings, dot, nef_violation_certificate,
                           pen6_fibres, pen6_lattice, serrano_canonical_pen6)
from .record import Record, encode
from .report import Check

NO_OBSTRUCTION = "no_obstruction"
NOT_ISOTRIVIAL = "not_isotrivial"
NOT_ISOTRIVIAL_IF_NOT_ISOGENOUS = "not_isotrivial_if_not_isogenous"


class SurfaceInvariants(Record):
    pg: int
    q: int
    K2: int
    chi: int
    albanese_degree: int = None
    ample_canonical: bool = None

    def __post_init__(self):
        if self.chi != 1 - self.q + self.pg:
            raise ValueError("chi must equal 1 - q + pg")
        if self.albanese_degree is not None and self.albanese_degree < 1:
            raise ValueError("albanese degree must be positive")


class FibrationRecord(Record):
    gC: int
    gF: int
    isotrivial: bool = None
    r: int = None
    decomposition: object = None
    group_order: int = None
    ramification: tuple = None
    annotations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if self.ramification is not None:
            object.__setattr__(self, "ramification", tuple(self.ramification))
        if self.gC < 0 or self.gF < 1:
            raise ValueError("genera out of range")
        if self.r is not None and not 1 <= self.r <= self.gF - 1:
            raise ValueError("need 1 <= r <= gF - 1")
        if self.decomposition is not None:
            if self.decomposition.rank != self.gF:
                raise ValueError("decomposition rank must equal gF")
            if self.r is not None:
                ample = [b for b in self.decomposition.summands
                         if b.degree == 1]
                if len(ample) != 1 or ample[0].rank != self.r:
                    raise ValueError("ample part rank must equal r")


class ExampleSurface(Record):
    id: str
    invariants: SurfaceInvariants
    fibrations: tuple
    group_name: str = None
    curve_genera: tuple = None
    polarization: tuple = None
    moduli_dims: tuple = None  # ((type, dimension), ...)
    annotations: tuple = ()

    def to_json(self):
        return dict(super().to_json(), moduli_dims=encode(
            None if self.moduli_dims is None else dict(self.moduli_dims)))


def slope(K2, chi, gC, gF):
    """Relative canonical degree over the modified Euler characteristic."""
    from fractions import Fraction
    base = (gC - 1) * (gF - 1)
    delta = chi - base
    if delta == 0:
        raise UndefinedSlope("chi - (gC-1)(gF-1) = 0")
    return Fraction(K2 - 8 * base, delta)


def isotriviality_obstruction(K2, chi, ample=None):
    """Numerical windows ruling out isotriviality.

    Returns (verdict, inequality). The ample strict window excludes
    isotriviality outright; above the general bound only fibrations not
    isogenous to a product are excluded.
    """
    if ample is True and 8 * chi - 5 < K2 < 8 * chi:
        return NOT_ISOTRIVIAL, "8*chi - 5 < K2 < 8*chi"
    if K2 > 8 * chi - 2:
        return NOT_ISOTRIVIAL_IF_NOT_ISOGENOUS, "K2 > 8*chi - 2"
    return NO_OBSTRUCTION, "K2 <= 8*chi - 2"


def genus_bound_rank_one(K2, chi):
    """Largest fibre genus compatible with a line-bundle ample part."""
    if chi < 1 or K2 < 1:
        raise NotApplicable("bound needs K2 >= 1 and chi >= 1")
    return min(K2, 9 * chi) // 2 + 1


def double_cover_fibre_genus(g_base, branch_points):
    """Riemann-Hurwitz genus of a double cover: 2g - 1 + b/2."""
    if branch_points < 0 or branch_points % 2:
        raise InvalidBranching("branch count must be even and >= 0")
    g = 2 * g_base - 1 + branch_points // 2
    if g < 0:
        raise InvalidBranching("no connected double cover with these data")
    return g


def unbounded_family(n):
    """The n-th member of the self-product double-cover family.

    Fibre genus n^2 + 2 and ample-part rank n^2 + 1, so the ranks are
    unbounded in n. Slope and splitting structure are re-checked on every
    call and the checks come back beside the record; the family is
    non-isotrivial by construction even though the numerical window is
    silent at K2 = 4.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    from fractions import Fraction
    kernel_degree = degree_vs_product_polarization(KernelCurve(1, n))
    gF = double_cover_fibre_genus(1, 2 * kernel_degree)
    r = gF - 1
    d = pushforward_decomposition(gF, r, generic_point("p"), [])
    line, _ = ample_part_is_line(d)
    checks = (
        Check("fibre genus", n * n + 2, gF),
        Check("ample part rank", n * n + 1, r),
        Check("slope", Fraction(4), slope(4, 1, 1, gF)),
        Check("xiao semistable rank", r,
              xiao_structure(gF, Fraction(4), 2, 1).semistable_rank),
        Check("ample part is a line bundle", r == 1, line))
    return FibrationRecord(
        gC=1, gF=gF, isotrivial=False, r=r, decomposition=d,
        annotations=("fibre genus n^2 + 2 at n = %d" % n,
                     "slope 4; splitting re-derived",
                     "non-isotrivial by construction; the K2 = 4 "
                     "numerical window gives no obstruction")), checks


def _pen5_ranks():
    """Both ranks and the checks that derive them."""
    from fractions import Fraction
    # slope 4 forces the trivial + semistable splitting; with gF = 3 the
    # semistable part is the rank-2 ample summand
    s = slope(4, 1, 1, 3)
    rank = xiao_structure(3, s, 2, 1).semistable_rank
    return (rank, rank), (
        Check("slope", Fraction(4), s),
        Check("xiao semistable rank", 2, rank),
        Check("splitting forces rank 2", [2, 2], [rank, rank]))


def _pen6_ranks():
    """Both ranks (None where underived) and the checks that derive them."""
    # the canonical minus either fibre pairs negatively with the other
    # (nef) fibre, so it is not effective and that rank cannot be 1
    l = pen6_lattice()
    checks = []
    for pair, value in derive_pen6_pairings().items():
        i, j = (l.basis_labels.index(x) for x in pair)
        checks.append(Check("derived pairing %s.%s" % pair, l.gram[i][j],
                            value))
    k = serrano_canonical_pen6(l)
    f1, f2 = pen6_fibres(l)
    certificates = (nef_violation_certificate(k - f1, f2),
                    nef_violation_certificate(k - f2, f1))
    ranks = tuple(None if c is None else 2 for c in certificates)
    checks += [
        Check("canonical self-intersection", 5, dot(k, k)),
        Check("fibre self-intersections", [0, 0], [dot(f1, f1), dot(f2, f2)]),
        Check("fibre product equals group order", 6, dot(f1, f2)),
        Check("canonical against sections", [1, 1],
              [dot(k, l.basis_class("Y1")), dot(k, l.basis_class("Y2"))]),
        Check("adjunction degree on fibres", [4, 4],
              [dot(k + f1, f1), dot(k + f2, f2)]),
        Check("nef violation certificate", -2, certificates[0]),
        Check("nef violation certificate (K-F2 against F1)", -2,
              certificates[1]),
        Check("certificate forces rank 2", [2, 2], list(ranks))]
    return ranks, tuple(checks)


def example_record(ex_id):
    """The database record with this id, built alone, and the checks of its
    derivations: ranks are re-derived when possible."""
    if ex_id == "pen-1":
        fibration = FibrationRecord(
            1, 3, True, 1, group_order=4, ramification=(2, 2),
            annotations=("abelian cover group: the pushforward splits into "
                         "line bundles, so r = 1",))
        return ExampleSurface(
            id="pen-1",
            invariants=SurfaceInvariants(2, 2, 8, 1),
            curve_genera=(3, 3), group_name="Z/2 x Z/2",
            fibrations=(fibration, fibration),
            annotations=("stored rank: derivation needs the character "
                         "theory of the cover, out of scope",)), ()
    if ex_id == "pen-4":
        fibration = FibrationRecord(1, 2, True, 1, group_order=2,
                                    ramification=(2, 2),
                                    annotations=("gF = 2 forces r = 1",))
        return ExampleSurface(
            id="pen-4",
            invariants=SurfaceInvariants(2, 2, 4, 1),
            curve_genera=(2, 2), group_name="Z/2",
            fibrations=(fibration, fibration)), ()
    if ex_id == "pen-5":
        r5, checks5 = _pen5_ranks()
        return ExampleSurface(
            id="pen-5",
            invariants=SurfaceInvariants(2, 2, 4, 1),
            curve_genera=(3, 3), group_name="Q8 or D8",
            fibrations=tuple(
                FibrationRecord(1, 3, True, r, group_order=8,
                                ramification=(2,),
                                annotations=("rank re-derived from the "
                                             "slope-4 splitting",))
                for r in r5)), checks5
    if ex_id == "pen-6":
        r6, checks6 = _pen6_ranks()
        return ExampleSurface(
            id="pen-6",
            invariants=SurfaceInvariants(2, 2, 5, 1),
            curve_genera=(3, 3), group_name="S3",
            fibrations=tuple(
                FibrationRecord(1, 3, True, r, group_order=6,
                                ramification=(3,),
                                annotations=("rank re-derived from the nef "
                                             "violation certificate",))
                for r in r6)), checks6
    if ex_id == "k26-d2":
        fibration = FibrationRecord(1, 3, False, annotations=(
            "rank of the ample part depends on the member: see the "
            "origin-singularity classification",))
        k26 = SurfaceInvariants(2, 2, 6, 1, albanese_degree=2,
                                ample_canonical=True)
        verdict, _ = isotriviality_obstruction(k26.K2, k26.chi,
                                               k26.ample_canonical)
        return ExampleSurface(
            id="k26-d2",
            invariants=k26,
            polarization=(1, 2),
            moduli_dims=(("Ia", 4), ("Ib", 4), ("II", 3)),
            fibrations=(fibration, fibration),
            annotations=(
                "double cover of a special (1,2)-polarized surface, "
                "branch divisor with a point of multiplicity 4",
                "the two fibre classes meet in 4 points",
                "canonical class ample for the general member; the strict "
                "numerical window then rules out isotriviality")), (
            Check("isotriviality obstruction", NOT_ISOTRIVIAL, verdict),)
    if ex_id == "k5-3":
        fibration = FibrationRecord(1, 3, False, annotations=("rank open",))
        return ExampleSurface(
            id="k5-3",
            invariants=SurfaceInvariants(2, 2, 5, 1, albanese_degree=3),
            polarization=(1, 2),
            fibrations=(fibration, fibration),
            annotations=(
                "triple cover branched over a divisor with an ordinary "
                "quadruple point; a degree-2 isogeny to a product "
                "of elliptic curves gives the two fibrations",
                "rank of the ample part not determined")), ()
    if ex_id == "k6-4":
        fibration = FibrationRecord(1, 4, False, annotations=("rank open",))
        return ExampleSurface(
            id="k6-4",
            invariants=SurfaceInvariants(2, 2, 6, 1, albanese_degree=4),
            polarization=(1, 3),
            fibrations=(fibration, fibration),
            annotations=(
                "quadruple cover branched over a divisor with six ordinary "
                "cusps; a degree-3 isogeny to a product of elliptic "
                "curves gives the two fibrations",
                "rank of the ample part not determined")), ()
    raise ValueError("no example record %r" % ex_id)


def isotrivial_examples():
    """The four isotrivial standard fixtures, ranks re-derived when possible."""
    return [example_record(x)[0] for x in ("pen-1", "pen-4", "pen-5", "pen-6")]


def nonisotrivial_examples():
    """Double, triple and quadruple Albanese covers with two fibrations."""
    return [example_record(i)[0] for i in ("k26-d2", "k5-3", "k6-4")]
