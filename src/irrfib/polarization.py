"""Alternating integer forms: restriction, polarization type, phi_L, K(L).

The form matrix lives in a fixed lattice basis. phi_L is only ever evaluated
on torsion points (that is all the downstream geometry needs), and K(L) is
computed as the quotient of the dual lattice of the form by the lattice.
"""

from functools import lru_cache
from itertools import product
from operator import add, index
from types import MappingProxyType

from .characters import Character
from .errors import (DegenerateForm, IncompatibleLattice, InvalidOrder,
                     InvalidRank)
from .lattice import Lattice, SublatticeEmbedding, TorsionPoint, quotient_group
from .linalg import (determinant, diagonal, mat_mul, smith_normal_form,
                     transpose)
from .record import Record


class AlternatingForm(Record):
    lattice: Lattice
    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(map(index, row)) for row in self.matrix))
        n = self.lattice.rank
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValueError("matrix must be rank x rank")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise ValueError("matrix must be skew-symmetric")


class PolarizationType(Record):
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 % self.d1 != 0:
            raise ValueError("need positive d1 | d2")

    def to_json(self):
        return [self.d1, self.d2]


@lru_cache(maxsize=None)
def restrict_form(f, e):
    if f.lattice != e.ambient:
        raise IncompatibleLattice("form does not live on the ambient lattice")
    m = e.matrix
    restricted = mat_mul(mat_mul(transpose(m), f.matrix), m)
    return AlternatingForm(e.sub, tuple(tuple(row) for row in restricted))


def polarization_type(f):
    """Elementary divisors (d1, d2) of a nondegenerate rank-4 skew form.

    Each divisor appears twice in the Smith form of a skew matrix; they are
    reported once, matching the usual (d1, d2) polarization convention.
    """
    if f.lattice.rank != 4:
        raise InvalidRank("polarization type is defined for rank 4")
    if determinant(f.matrix) == 0:
        raise DegenerateForm("form is degenerate")
    _, d, _ = smith_normal_form(f.matrix)
    diag = diagonal(d)
    return PolarizationType(diag[0], diag[2])


def kernel_K_L(f):
    """The group of torsion points pairing integrally with the whole lattice.

    Equals dual-lattice / lattice; the embedding of the lattice into its dual
    has matrix f^T in the basis dual to f, so the quotient machinery applies
    directly and the generators come back in lattice coordinates.
    """
    if determinant(f.matrix) == 0:
        raise DegenerateForm("form is degenerate")
    dual = Lattice(f.lattice.rank,
                   tuple(label + "*" for label in f.lattice.basis_labels))
    e = SublatticeEmbedding(dual, f.lattice, tuple(zip(*f.matrix)))
    return quotient_group(e)


@lru_cache(maxsize=None)
def phi_L_grid(f, n):
    """phi_L on n-torsion as bare numerators: character -> its fibre.

    The one enumeration of (1/n)L/L behind every question about phi_L on
    n-torsion points. It runs on the integer grid (Z/n)^rank: the point k/n
    has character numerators M*k mod n, with M the form's matrix, and points
    are grouped by those. Keys are the characters' numerators over n, in the
    order their first point appears; each fibre is the tuple of its points'
    numerators k, in lexicographic order. The map is read-only, so callers
    cannot change the cached table.
    """
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    rank = f.lattice.rank
    # M*k for every k in lexicographic order, a column multiple at a time
    sums = [(0,) * rank]
    for column in zip(*f.matrix):
        multiples = [tuple(v * c % n for c in column) for v in range(n)]
        sums = [tuple(map(add, s, m)) for s in sums for m in multiples]
    fibres = {}
    for k, key in zip(product(range(n), repeat=rank), sums):
        fibres.setdefault(tuple([x % n for x in key]), []).append(k)
    return MappingProxyType({key: tuple(ks) for key, ks in fibres.items()})


def phi_two_torsion_data(f):
    """(kernel, image) of phi_L on the 2-torsion points."""
    if determinant(f.matrix) == 0:
        raise DegenerateForm("form is degenerate")
    lat = f.lattice
    grid = phi_L_grid(f, 2)
    return ({TorsionPoint(lat, 2, k) for k in grid[(0,) * lat.rank]},
            {Character(lat, 2, key) for key in grid})
