"""Indecomposable bundles on an elliptic curve and the pushforward calculus.

Atiyah's classification is taken as axiomatic: an indecomposable bundle is
determined by (rank, degree, determinant point), and the cohomology of the
degree-relevant cases is a lookup. Points of the curve are torsion elements
of (Q/Z)^2, held as int numerators over their order like torsion points,
optionally extended by free formal generators so that a "general point p"
can be manipulated exactly.
"""

from math import lcm
from operator import index

from .errors import (ContradictsXiao, InvalidRank, InvalidShape,
                     InvalidTorsionList, IrrfibError, NotApplicable)
from .lattice import Lattice, OnGrid
from .record import Record, encode


class EllipticPoint(OnGrid, Record):
    """A point of the curve: n, nums as on a torsion point of the period
    lattice (lattice, a class attribute, is not a field), plus the free part.
    from_fractions(coords, free=...) builds one from rational coordinates,
    and texts() prints them back."""
    n: int
    nums: tuple
    free: tuple = ()  # ((generator name, integer coefficient), ...)
    lattice = Lattice(2, ("1", "tau"))

    def __post_init__(self):
        super().__post_init__()
        merged = {}
        for name, coeff in self.free:
            merged[name] = merged.get(name, 0) + index(coeff)
        self.__dict__["free"] = tuple(
            sorted((n, c) for n, c in merged.items() if c != 0))

    def __add__(self, other):
        # a point of another lattice has no free part: _plus refuses it
        return self._plus(other, "points",
                          free=self.free + getattr(other, "free", ()))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return super().scale(k, free=tuple((name, k * c)
                                           for name, c in self.free))

    @property
    def is_origin(self):
        return not self.free and self.n == 1

    def order(self):
        """Order in the group, or None for points with a free part."""
        return None if self.free else self.n

    def to_json(self):
        return {"coords": self.texts(), "free": encode(self.free)}


def elliptic_origin():
    return EllipticPoint(1, (0, 0))


def generic_point(name):
    return EllipticPoint(1, (0, 0), ((name, 1),))


class IndecomposableBundle(Record):
    rank: int
    degree: int
    det_point: EllipticPoint

    # det_point is the Abel-Jacobi class of the determinant; for degree 0
    # it records the twist of the self-extension tower instead, so the
    # trivial-determinant tower of any rank has det_point = origin.
    def __post_init__(self):
        if not isinstance(self.rank, int) or self.rank < 1:
            raise InvalidRank("rank must be a positive integer")
        if not isinstance(self.degree, int):
            raise InvalidRank("degree must be an integer")


class BundleDecomposition(Record):
    summands: tuple  # sorted by rank, degree, det_point's coords and free

    def __post_init__(self):
        # the coords compare as numerators over one common denominator
        big = lcm(*(b.det_point.n for b in self.summands))
        object.__setattr__(self, "summands", tuple(sorted(
            self.summands, key=lambda b: (b.rank, b.degree,
                                          b.det_point.nums_over(big),
                                          b.det_point.free))))

    @property
    def rank(self):
        return sum(b.rank for b in self.summands)


def h0(x):
    if isinstance(x, BundleDecomposition):
        return sum(h0(b) for b in x.summands)
    if x.degree < 0:
        return 0
    if x.degree > 0:
        return x.degree
    return 1 if x.det_point.is_origin else 0


def h1(x):
    # Riemann-Roch on a genus-1 curve: chi = deg
    if isinstance(x, BundleDecomposition):
        return sum(h1(b) for b in x.summands)
    return h0(x) - x.degree


def twist(x, q):
    """Tensor with the degree-0 line bundle of class q."""
    if isinstance(x, BundleDecomposition):
        return BundleDecomposition(tuple(twist(b, q) for b in x.summands))
    if x.degree == 0:
        # the stored point is already the twist class; dets would collide
        return IndecomposableBundle(x.rank, 0, x.det_point + q)
    return IndecomposableBundle(x.rank, x.degree,
                                x.det_point + q.scale(x.rank))


def atiyah_bundle(rank, degree_one_point):
    """The unique indecomposable of rank r, degree 1, determinant as given."""
    return IndecomposableBundle(rank, 1, degree_one_point)


def pushforward_decomposition(g, r, p, torsion):
    """Normal form of the pushed-forward relative canonical bundle.

    O + (rank-r degree-1 indecomposable with determinant p) + torsion line
    bundles, one per remaining rank. The torsion entries must be pairwise
    distinct, nontrivial, and of finite order.
    """
    if not isinstance(g, int) or g < 2:
        raise InvalidShape("fibre genus must be an integer >= 2")
    if not isinstance(r, int) or not 1 <= r <= g - 1:
        raise InvalidShape("rank of the ample part must satisfy 1 <= r <= g-1")
    torsion = tuple(torsion)
    if len(torsion) != g - r - 1:
        raise InvalidShape("need exactly g - r - 1 torsion line bundles")
    if len(set(torsion)) != len(torsion):
        raise InvalidTorsionList("torsion entries must be pairwise distinct")
    for t in torsion:
        if t.is_origin:
            raise InvalidTorsionList("torsion entries must be nontrivial")
        if t.order() is None:
            raise InvalidTorsionList("torsion entries must have finite order")
    summands = [IndecomposableBundle(1, 0, elliptic_origin()),
                atiyah_bundle(r, p)]
    summands += [IndecomposableBundle(1, 0, t) for t in torsion]
    return BundleDecomposition(tuple(summands))


def _pushforward_parts(d):
    """Split a decomposition into (ample part, torsion list), validating shape."""
    if not isinstance(d, BundleDecomposition):
        raise InvalidShape("expected a BundleDecomposition")
    ample = [b for b in d.summands if b.degree == 1]
    flat = [b for b in d.summands if b.degree == 0 and b.rank == 1]
    if len(ample) != 1 or len(ample) + len(flat) != len(d.summands):
        raise InvalidShape("not a pushforward normal form")
    trivial = [b for b in flat if b.det_point.is_origin]
    torsion = [b.det_point for b in flat if not b.det_point.is_origin]
    if len(trivial) != 1:
        raise InvalidShape("normal form has exactly one trivial summand")
    if len(set(torsion)) != len(torsion) or any(
            t.order() is None for t in torsion):
        raise InvalidShape("torsion summands must be distinct and finite")
    return ample[0], torsion


def h0_omega_twisted_minus_fibre(d, eta, q):
    """Sections of the canonical bundle twisted by eta minus the fibre at q.

    Pushing forward and tensoring by the degree-(-1) bundle O(eta - q) drops
    every summand's degree by its rank, so only a rank-1 ample part can
    contribute, and it does exactly when q = p + eta.
    """
    ample, _ = _pushforward_parts(d)
    # a line bundle O(c) twists to the degree-0 class c + eta - q
    return int(ample.rank == 1 and (ample.det_point + eta - q).is_origin)


def ample_part_is_line(d):
    """Whether the degree-1 summand is a line bundle, with its point.

    Equivalent to the twisted canonical system at q = p being nonempty; the
    probe below checks that equivalence on every call.
    """
    ample, _ = _pushforward_parts(d)
    if ample.rank != 1:
        return False, None
    p = ample.det_point
    if h0_omega_twisted_minus_fibre(d, elliptic_origin(), p) != 1:
        raise IrrfibError("twisted canonical probe disagrees at q = p")
    return True, p


def jump_h1(d, Q):
    """Dimension jump of H^1 after twisting the pushforward by Q."""
    _, torsion = _pushforward_parts(d)
    if Q.is_origin:
        return 2
    if -Q in torsion:
        return 1
    return 0


class XiaoShape(Record):
    trivial_rank: int
    semistable_rank: int
    semistable_degree: int


def xiao_structure(gF, slope, q_surface, gC):
    """Slope-4 splitting: a trivial summand plus a semistable part.

    Only the boundary slope admits this conclusion, and only over a base
    whose irregularity exceeds its genus by exactly one.
    """
    # an int numerator 4 over 1 (an int, Rational or Fraction): no float
    p, q = (getattr(slope, k, None) for k in ("numerator", "denominator"))
    if not isinstance(p, int) or (p, q) != (4, 1):
        raise NotApplicable("the splitting requires slope exactly 4")
    if q_surface - gC != 1:
        raise ContradictsXiao("need irregularity = base genus + 1")
    if not isinstance(gF, int) or gF < 2:
        raise NotApplicable("fibre genus must be an integer >= 2")
    return XiaoShape(trivial_rank=1, semistable_rank=gF - 1,
                     semistable_degree=1)
