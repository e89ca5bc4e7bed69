"""Torsion characters of lattices and restriction along finite-index embeddings.

A character is stored additively, on the integer grid, as (lattice, n, nums):
numerator k_j means basis vector j maps to exp(2*pi*i*k_j/n). Products and
restriction are integer linear algebra mod n, and the +-1 display of
2-torsion characters is a formatting concern. restrictions is the one
pull-back; the tables and the surface's half-periods are read off it.
"""

from itertools import product
from operator import mul

from .errors import InvalidOrder
from .lattice import Lattice, OnGrid
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


def _grid(lattice, n):
    """The numerators of every n-torsion character, in lexicographic order."""
    if n < 1:
        raise InvalidOrder("torsion order must be a positive integer")
    return product(range(n), repeat=lattice.rank)


def torsion_characters(lattice, n):
    """All characters killed by n, in lexicographic value order."""
    return [Character(lattice, n, k) for k in _grid(lattice, n)]


def restrictions(e, n):
    """The numerators k of every n-torsion ambient character, each with its
    restriction's (the pull-back, the dual-isogeny direction): numerator j
    is the combination of k given by column j of the embedding matrix, mod
    n. The pairs come lazily, in k's lexicographic order, and only the
    characters a caller keeps are built."""
    columns = list(zip(*e.matrix))
    return ((k, tuple([sum(map(mul, col, k)) % n for col in columns]))
            for k in _grid(e.ambient, n))


def kernel_of_restriction(e, n):
    """All n-torsion ambient characters restricting to the trivial character."""
    return {Character(e.ambient, n, k)
            for k, restricted in restrictions(e, n) if not any(restricted)}


def two_torsion_character_tables(e):
    """Partition the sublattice's 2-torsion characters: extendable vs new.

    Extendable means in the image of restriction from the ambient lattice,
    new the rest. The partition exists at any finite index; at index 2 the
    two halves have equal size, 8 and 8.
    """
    image = {restricted for _, restricted in restrictions(e, 2)}
    extendable = {Character(e.sub, 2, k) for k in image}
    new = {chi for chi in torsion_characters(e.sub, 2)
           if chi.nums_over(2) not in image}
    return extendable, new
