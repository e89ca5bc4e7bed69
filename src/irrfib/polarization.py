"""Alternating integer forms: restriction, polarization type, phi_L, K(L).

The form matrix lives in a fixed lattice basis. phi_L is only ever evaluated
on torsion points (that is all the downstream geometry needs), and K(L) is
computed as the quotient of the dual lattice of the form by the lattice.
"""

from itertools import product
from math import gcd
from operator import index

from .errors import (DegenerateForm, IncompatibleLattice, InvalidOrder,
                     InvalidRank)
from .lattice import Lattice, SublatticeEmbedding, quotient_group
from .linalg import mat_mul, transpose
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


def restrict_form(f, e):
    if f.lattice != e.ambient:
        raise IncompatibleLattice("form does not live on the ambient lattice")
    m = e.matrix
    restricted = mat_mul(mat_mul(transpose(m), f.matrix), m)
    return AlternatingForm(e.sub, tuple(tuple(row) for row in restricted))


def polarization_type(f):
    """Elementary divisors (d1, d2) of a nondegenerate rank-4 skew form.

    Read off closed forms (Birkenhake-Lange, Complex Abelian Varieties): d1
    is the gcd of the entries, and d1*d2 = |Pf|, as det = Pf^2.
    """
    if f.lattice.rank != 4:
        raise InvalidRank("polarization type is defined for rank 4")
    (_, a01, a02, a03), (_, _, a12, a13), (_, _, _, a23), _ = f.matrix
    pf = a01 * a23 - a02 * a13 + a03 * a12
    if pf == 0:
        raise DegenerateForm("form is degenerate")
    d1 = gcd(a01, a02, a03, a12, a13, a23)
    return PolarizationType(d1, abs(pf) // d1)


def kernel_K_L(f):
    """The group of torsion points pairing integrally with the whole lattice.

    Equals dual-lattice / lattice; the embedding of the lattice into its dual
    has matrix f^T in the basis dual to f, so the quotient machinery applies
    directly and the generators come back in lattice coordinates.
    """
    dual = Lattice(f.lattice.rank,
                   tuple(label + "*" for label in f.lattice.basis_labels))
    try:
        # the embedding's determinant check, det f^T = det f, is the one
        e = SublatticeEmbedding(dual, f.lattice, tuple(zip(*f.matrix)))
    except ValueError:  # f is square, so only its rank can be refused
        raise DegenerateForm("form is degenerate") from None
    return quotient_group(e)


def phi_L_grid(f, n):
    """phi_L on n-torsion as bare numerators: character -> its fibre.

    The one enumeration of (1/n)L/L behind every question about phi_L on
    n-torsion points. It runs on the integer grid (Z/n)^rank: the point k/n
    has character numerators M*k mod n, with M the form's matrix, and points
    are grouped by those. Keys are the characters' numerators over n, in the
    order their first point appears; each fibre is the tuple of its points'
    numerators k, in lexicographic order. Each call builds a fresh dict.
    """
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    # row i of M dotted with every k in lexicographic order, one k_j at a
    # time: a key is then a tuple that zip assembles, not one built per point
    numerators = []
    for row in f.matrix:
        sums = [0]
        for m in row:
            multiples = [m * v for v in range(n)]
            sums = [s + x for s in sums for x in multiples]
        numerators.append([s % n for s in sums])
    fibres = {}
    for k, key in zip(product(range(n), repeat=f.lattice.rank),
                      zip(*numerators)):
        fibres.setdefault(key, []).append(k)
    return {key: tuple(ks) for key, ks in fibres.items()}
