"""Torsion characters of lattices and restriction along finite-index embeddings.

A character is stored additively, on the integer grid, as (lattice, n, nums):
numerator k_j means basis vector j maps to exp(2*pi*i*k_j/n). Products and
restriction are integer linear algebra mod n, and the +-1 display of
2-torsion characters is a formatting concern.
"""

from itertools import product
from operator import mul

from .errors import IncompatibleLattice, InvalidOrder, UnsupportedIndex
from .lattice import Lattice, OnGrid, sublattice_index
from .record import Record


class Character(OnGrid, Record):
    lattice: Lattice
    n: int
    nums: tuple

    def __mul__(self, other):
        return self._plus(other, "characters")

    @property
    def is_trivial(self):
        return self.n == 1

    @property
    def is_two_torsion(self):
        return self.n <= 2

    def pm_vector(self):
        """The traditional +-1 display; only 2-torsion characters have one."""
        if not self.is_two_torsion:
            return None
        return tuple(1 if k == 0 else -1 for k in self.nums)


def trivial_character(lattice):
    return Character(lattice, 1, (0,) * lattice.rank)


def torsion_characters(lattice, n):
    """All characters killed by n, in lexicographic value order."""
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    return [Character(lattice, n, k)
            for k in product(range(n), repeat=lattice.rank)]


def restrict_character(chi, e):
    """Pull back along the embedding: the dual-isogeny direction.

    The numerator on sub basis vector j is the integer combination of
    ambient numerators given by column j of the embedding matrix, mod n.
    """
    if chi.lattice != e.ambient:
        raise IncompatibleLattice("character does not live on the ambient lattice")
    return Character(e.sub, chi.n, tuple(sum(map(mul, col, chi.nums))
                                         for col in zip(*e.matrix)))


def kernel_of_restriction(e, n):
    """All n-torsion ambient characters restricting to the trivial character."""
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
