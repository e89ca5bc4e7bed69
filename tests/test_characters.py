import random
from fractions import Fraction

import pytest

from irrfib.characters import (Character, kernel_of_restriction,
                               restrict_character, torsion_characters,
                               trivial_character,
                               two_torsion_character_tables)
from irrfib.errors import (IncompatibleLattice, InvalidOrder,
                           UnsupportedIndex)
from irrfib.lattice import Lattice, SublatticeEmbedding
from irrfib.torus import (A_CHARACTER_NAMES, B_CHARACTER_NAMES,
                          reference_embedding, reference_lattice_a,
                          reference_lattice_b)

HALF = Fraction(1, 2)


def test_character_normalization_and_ops():
    lat = reference_lattice_a()
    chi = Character.from_fractions((Fraction(5, 4), 0, Fraction(-1, 2), 0),
                                   lattice=lat)
    assert chi.values == (Fraction(1, 4), 0, HALF, 0)
    assert chi.order() == 4
    assert not chi.is_two_torsion
    assert chi.pm_vector() is None
    assert (chi * chi.scale(-1)).is_trivial
    two = chi * chi
    assert two.values == (HALF, 0, 0, 0)
    assert two.pm_vector() == (-1, 1, 1, 1)
    with pytest.raises(IncompatibleLattice):
        chi * trivial_character(reference_lattice_b())
    third = Character.from_fractions((Fraction(1, 3), 0, 0, 0), lattice=lat)
    assert not third.is_two_torsion
    assert third.pm_vector() is None
    assert third.order() == 3
    with pytest.raises(ValueError):
        Character(lat, 1, (0, 0))


def test_torsion_character_counts():
    lat = reference_lattice_a()
    assert len(torsion_characters(lat, 1)) == 1
    assert len(torsion_characters(lat, 2)) == 16
    with pytest.raises(InvalidOrder):
        torsion_characters(lat, 0)


def test_restriction_frozen_examples():
    e = reference_embedding()
    amb = e.ambient
    # the two ambient characters cutting out the second elliptic factor
    # restrict to the same sub character: the embedding glues them
    a = restrict_character(Character(amb, 2, (0, 0, 1, 0)), e)
    b = restrict_character(Character(amb, 2, (0, 0, 0, 1)), e)
    assert a.values == (0, 0, HALF, 0)
    assert a == b
    c = restrict_character(Character(amb, 2, (1, 0, 0, 0)), e)
    assert c.values == (HALF, HALF, 0, 0)
    with pytest.raises(IncompatibleLattice):
        restrict_character(a, e)


def test_restriction_is_a_homomorphism():
    e = reference_embedding()
    rng = random.Random(5)
    chars = torsion_characters(e.ambient, 4)
    for _ in range(40):
        x = rng.choice(chars)
        y = rng.choice(chars)
        assert restrict_character(x * y, e) == \
            restrict_character(x, e) * restrict_character(y, e)


def test_kernel_of_restriction():
    e = reference_embedding()
    kern = kernel_of_restriction(e, 2)
    assert {chi.values for chi in kern} == {
        (Fraction(0),) * 4,
        (0, 0, HALF, HALF),
    }
    # kernel order equals the index of the embedding
    assert len(kern) == 2


def test_two_torsion_tables_partition():
    e = reference_embedding()
    extendable, new = two_torsion_character_tables(e)
    assert len(extendable) == 8
    assert len(new) == 8
    assert extendable.isdisjoint(new)
    named = set(A_CHARACTER_NAMES)
    assert {chi.values for chi in extendable} | {chi.values for chi in new} \
        == {chi.values for chi in torsion_characters(e.sub, 2)}
    # every table entry carries one of the published names, keyed by its
    # numerators mod 2
    for chi in extendable | new:
        assert chi.nums in named
    # new characters are exactly those whose name starts with "eps"
    assert {A_CHARACTER_NAMES[chi.nums] for chi in new} == \
        {"eps%d" % k for k in range(1, 9)}


def test_two_torsion_tables_reject_other_indexes():
    amb = reference_lattice_b()
    sub = Lattice(4, ("s1", "s2", "s3", "s4"))
    e = SublatticeEmbedding(amb, sub, ((2, 0, 0, 0), (0, 2, 0, 0),
                                       (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(UnsupportedIndex):
        two_torsion_character_tables(e)


def test_b_character_names_cover_two_torsion():
    names = set(B_CHARACTER_NAMES.values())
    assert "chiB1" in names and "chiB2*chiB5" in names
    assert len(B_CHARACTER_NAMES) == 16
