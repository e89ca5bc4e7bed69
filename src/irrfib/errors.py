"""Exception hierarchy shared by all modules.

Every domain error derives from IrrfibError so callers (and the CLI, which
maps them to exit code 65) can catch one base class.
"""


class IrrfibError(Exception):
    pass


class DegenerateEmbedding(IrrfibError):
    """Sublattice matrix is not square: the sublattice has infinite index."""


class InvalidOrder(IrrfibError):
    """Torsion order is zero or incompatible with the requested operation."""


class IncompatibleLattice(IrrfibError):
    """Operands live on different lattices."""


class DegenerateForm(IrrfibError):
    """Alternating form with zero determinant where nondegeneracy is needed."""


class InvalidRank(IrrfibError):
    """Form or lattice rank unsupported by the operation (odd rank etc.)."""


class NonPrimitive(IrrfibError):
    """Kernel-curve vector with gcd(p, q) != 1."""


class InvalidModulus(IrrfibError):
    """Enumeration modulus < 2."""


class InvalidTwist(IrrfibError):
    """(Q, Qhalf) pair outside the admissible classification domain."""


class InvalidTorsionList(IrrfibError):
    """Torsion summand list with duplicates, the origin, or non-torsion."""


class InvalidShape(IrrfibError):
    """Bundle decomposition does not have the pushforward normal form."""


class NotApplicable(IrrfibError):
    """Inputs outside the hypotheses of the structure result."""


class ContradictsXiao(IrrfibError):
    """Slope-4 data inconsistent with the semistable splitting."""


class UndefinedSlope(IrrfibError):
    """Slope denominator chi - (g(C)-1)(g(F)-1) vanishes."""


class InvalidBranching(IrrfibError):
    """Branch point count odd, negative, or yielding a negative genus."""
