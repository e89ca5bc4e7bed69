"""Torsion characters of lattices and restriction along finite-index embeddings.

A character is stored additively: the value v on a basis vector means that
vector maps to exp(2*pi*i*v). Restriction along an embedding is then plain
integer linear algebra on the value vectors, and the traditional +-1 display
of 2-torsion characters is a formatting concern only.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from .errors import IncompatibleLattice, InvalidOrder, UnsupportedIndex
from .lattice import (Lattice, _require_square_full_rank, reduce_mod1,
                      sublattice_index)
from .record import Record


class Character(Record):
    lattice: Lattice
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(reduce_mod1(v) for v in self.values))
        if len(self.values) != self.lattice.rank:
            raise ValueError("one value per basis vector")

    def __mul__(self, other):
        return character_product(self, other)

    def inverse(self):
        return Character(self.lattice, tuple(-v for v in self.values))

    @property
    def is_trivial(self):
        return all(v == 0 for v in self.values)

    @property
    def is_two_torsion(self):
        return all(v.denominator <= 2 for v in self.values)

    def order(self):
        return lcm(*(v.denominator for v in self.values))

    def pm_vector(self):
        """The traditional +-1 display; only 2-torsion characters have one."""
        if not self.is_two_torsion:
            return None
        return tuple(1 if v == 0 else -1 for v in self.values)

    def to_json(self):
        return {"lattice": self.lattice.to_json(),
                "values": [str(v) for v in self.values]}


def trivial_character(lattice):
    return Character(lattice, (Fraction(0),) * lattice.rank)


def torsion_characters(lattice, n):
    """All characters killed by n, in lexicographic value order."""
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    steps = [Fraction(k, n) for k in range(n)]
    return [Character(lattice, v) for v in product(steps, repeat=lattice.rank)]


def character_product(a, b):
    if a.lattice != b.lattice:
        raise IncompatibleLattice("characters on different lattices")
    return Character(a.lattice, tuple(x + y for x, y in zip(a.values, b.values)))


def restrict_character(chi, e):
    """Pull back along the embedding: the dual-isogeny direction.

    The value on sub basis vector j is the integer combination of ambient
    values given by column j of the embedding matrix.
    """
    if chi.lattice != e.ambient:
        raise IncompatibleLattice("character does not live on the ambient lattice")
    cols = list(zip(*e.matrix))
    values = tuple(sum(c * v for c, v in zip(col, chi.values)) for col in cols)
    return Character(e.sub, values)


def kernel_of_restriction(e, n):
    """All n-torsion ambient characters restricting to the trivial character."""
    _require_square_full_rank(e)
    return {chi for chi in torsion_characters(e.ambient, n)
            if restrict_character(chi, e).is_trivial}


def two_torsion_character_tables(e):
    """Partition the sublattice's 2-torsion characters: extendable vs new.

    Extendable means in the image of restriction from the ambient lattice;
    for an index-2 embedding the two halves have equal size.
    """
    if sublattice_index(e) != 2:
        raise UnsupportedIndex("the table partition is defined for index 2")
    extendable = {restrict_character(chi, e)
                  for chi in torsion_characters(e.ambient, 2)}
    new = {chi for chi in torsion_characters(e.sub, 2) if chi not in extendable}
    return extendable, new


def square_roots(chi, n_bound):
    """All characters xi with xi*xi = chi, order dividing n_bound.

    Coordinate-wise each value has the two halves v/2 and v/2 + 1/2, so there
    are 2^rank roots; n_bound must be a positive multiple of 2*order(chi) for
    all of them to be n_bound-torsion.
    """
    need = 2 * chi.order()
    if n_bound < 1 or n_bound % need != 0:
        raise InvalidOrder("n_bound must be a positive multiple of 2*order")
    halves = [(v / 2, v / 2 + Fraction(1, 2)) for v in chi.values]
    return {Character(chi.lattice, combo) for combo in product(*halves)}
