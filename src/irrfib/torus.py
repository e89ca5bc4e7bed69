"""The reference (1,2)-polarized surface and its origin-singularity calculus.

A surface is an index-2 sublattice of a product lattice, polarized by the
product principal form restricted to it. The classification is rational: the
isogeny image of a torsion point, which translated reducible members pass
through the origin, and a two-route verdict (closed form vs 4-torsion oracle).
"""

from functools import lru_cache
from operator import mul

from .characters import Character, trivial_character
from .errors import IncompatibleLattice, InvalidTwist
from .lattice import (Lattice, SublatticeEmbedding, TorsionPoint,
                      parse_rational, sublattice_index)
from .linalg import integer_kernel_basis
from .polarization import AlternatingForm, phi_L_grid, restrict_form
from .record import Record

SINGULARITY_NONE = "none"
SINGULARITY_SMOOTH = "smooth_point"
SINGULARITY_NODE = "node"


class SpecialAbelianSurface(Record):
    """An index-2 sublattice E of the product lattice, with the product form J
    restricted to it. Its type is (1,2): Pf(E^T J E) = det(E) Pf(J) = +-2
    forces d1 d2 = 2."""
    embedding: SublatticeEmbedding

    def __post_init__(self):
        if sublattice_index(self.embedding) != 2:
            raise ValueError("embedding must have index 2")
        self.form_A  # IncompatibleLattice unless E is into the product lattice

    @property
    def form_A(self):
        return restrict_form(reference_form_b(), self.embedding)


def reference_lattice_b():
    return Lattice(4, ("lambda1", "lambda2", "mu1", "mu2"))


def reference_lattice_a():
    return Lattice(4, ("lambda1", "lambda1+lambda2", "mu1-mu2", "2mu2"))


def reference_embedding():
    # columns: lambda1, lambda1+lambda2, mu1-mu2, 2mu2 in the ambient basis
    return SublatticeEmbedding(reference_lattice_b(), reference_lattice_a(),
                               ((1, 1, 0, 0),
                                (0, 1, 0, 0),
                                (0, 0, 1, 0),
                                (0, 0, -1, 2)))


@lru_cache(maxsize=None)
def reference_form_b():
    return AlternatingForm(reference_lattice_b(),
                           ((0, 0, 1, 0),
                            (0, 0, 0, 1),
                            (-1, 0, 0, 0),
                            (0, -1, 0, 0)))


def build_reference_surface():
    return SpecialAbelianSurface(reference_embedding())


def _fibre_numerators(s, chi, n):
    """The numerators over n of the n-torsion points x with phi_L(x) = chi,
    a character on the sublattice; empty when chi is not in the image."""
    grid = phi_L_grid(s.form_A, n)  # refuses an order n below 1
    return () if n % chi.n else grid.get(chi.nums_over(n), ())


@lru_cache(maxsize=None)
def _factor_period_kernels(s):
    """Period generators of the two elliptic subtori, in sub coordinates.

    The subtorus over the first factor is the kernel of the composite map to
    the second factor, so its period lattice is the integer kernel of the
    (lambda2, mu2) rows of the embedding matrix; symmetrically for the other.
    """
    rows = s.embedding.matrix
    to_first = integer_kernel_basis([rows[1], rows[3]])
    to_second = integer_kernel_basis([rows[0], rows[2]])
    return tuple(map(tuple, to_first)), tuple(map(tuple, to_second))


def _check_pair(s, Q, Qhalf):
    """Raise unless (Q, Qhalf) is an admissible pair. Both routes and the
    moduli type check every pair they are given."""
    lat = s.embedding.sub
    if Q.lattice != lat or Qhalf.lattice != lat:
        raise IncompatibleLattice("characters must live on the sublattice")
    if not _fibre_numerators(s, Q, 2):
        raise InvalidTwist("Q must be in the image of phi on 2-torsion")
    # Qhalf^2 = Q: over Qhalf's order n, twice its numerators are Q's mod n
    n = Qhalf.n
    if n % Q.n or any((2 * k - j) % n
                      for k, j in zip(Qhalf.nums, Q.nums_over(n))):
        raise InvalidTwist("Qhalf must be a square root of Q")
    if Q.is_trivial and Qhalf.is_trivial:
        raise InvalidTwist("the trivial pair is excluded")


def _trivial_on(chi, gens):
    return all(sum(map(mul, gen, chi.nums)) % chi.n == 0 for gen in gens)


def classify_origin_singularity(s, Q, Qhalf):
    """Closed-form verdict from triviality on the factor period lattices.

    The translated member through 0 has a component over the first factor iff
    Qhalf is trivial on the periods of the subtorus over the first factor,
    and symmetrically; both components give a node, one a smooth point.
    """
    _check_pair(s, Q, Qhalf)
    first, second = _factor_period_kernels(s)
    on_first = _trivial_on(Qhalf, first)
    on_second = _trivial_on(Qhalf, second)
    if on_first and on_second:
        return SINGULARITY_NODE
    if on_first or on_second:
        return SINGULARITY_SMOOTH
    return SINGULARITY_NONE


# every set of the lemma's cases, indexed by its bit mask (case c is bit c-1)
_CASE_SETS = tuple(frozenset(c for c in range(1, 5) if mask >> (c - 1) & 1)
                   for mask in range(16))
# the cases whose component lies over the second, or the first, factor
_SECOND_SIDE = frozenset((1, 2))
_FIRST_SIDE = frozenset((3, 4))


def _origin_cases_on_grid(s, k, n):
    """The lemma's four cases at psi(x), x the n-torsion point k/n.

    psi(x) has the numerators b = E*k mod n (E the embedding matrix) in the
    ambient basis (lambda1, lambda2, mu1, mu2). Factor i has the periods
    lambda_i = tau_i and mu_i = 1, so its coordinate is the pair
    (b[i - 1], b[i + 1]); its half-period tau_i/2 is (n // 2, 0), n even.
    """
    b = [sum(map(mul, row, k)) % n for row in s.embedding.matrix]
    e1, e2 = (b[0], b[2]), (b[1], b[3])
    half = (n // 2, 0) if n % 2 == 0 else None
    return _CASE_SETS[(e2 == (0, 0)) | (e2 == half) << 1
                      | (e1 == (0, 0)) << 2 | (e1 == half) << 3]


def classify_origin_singularity_oracle(s, Q, Qhalf):
    """Independent verdict by enumerating translation points on 4-torsion.

    Every point of the fibre over Qhalf is tested, on its integer numerators.
    """
    _check_pair(s, Q, Qhalf)
    saw_side = False
    for k in _fibre_numerators(s, Qhalf, 4):
        cases = _origin_cases_on_grid(s, k, 4)
        second_side = not _SECOND_SIDE.isdisjoint(cases)
        first_side = not _FIRST_SIDE.isdisjoint(cases)
        if second_side and first_side:
            return SINGULARITY_NODE
        saw_side = saw_side or second_side or first_side
    return SINGULARITY_SMOOTH if saw_side else SINGULARITY_NONE


def rf_pair(singularity):
    """Atiyah ranks {r(f1), r(f2)} of the two induced fibrations."""
    table = {SINGULARITY_NONE: (2, 2),
             SINGULARITY_NODE: (1, 1),
             SINGULARITY_SMOOTH: (1, 2)}
    return table[singularity]


def moduli_type(s, Q, Qhalf):
    _check_pair(s, Q, Qhalf)
    if not Q.is_trivial:
        return "II"
    return "Ib" if _fibre_numerators(s, Qhalf, 2) else "Ia"


def admissible_qhalf(s):
    """The 63 nontrivial characters realizable as phi_L(x) on 4-torsion,
    in value order: numerators over the one denominator 4 sort alike."""
    lat = s.form_A.lattice
    return [Character(lat, 4, key) for key in sorted(phi_L_grid(s.form_A, 4))
            if any(key)]


def admissible_pairs(s):
    """(Qhalf^2, Qhalf) for every admissible Qhalf, in admissible_qhalf's
    order. A square is 2-torsion, so the 63 pairs share a few Q's: each is
    built once, from numerators over 4."""
    squares = {}
    pairs = []
    for q in admissible_qhalf(s):
        nums = tuple(2 * k for k in q.nums_over(4))
        if nums not in squares:
            squares[nums] = Character(q.lattice, 4, nums)
        pairs.append((squares[nums], q))
    return pairs


# The paper's tables for the reference surface, checked by `irrfib appendix`
REFERENCE_KL_POINTS = [["0", "0", "0", "0"], ["0", "0", "0", "1/2"],
                       ["0", "1/2", "0", "0"], ["0", "1/2", "0", "1/2"]]
REFERENCE_EXTENDABLE_NAMES = sorted((
    "trivial", "chiA1", "chiA2", "chiA3", "chiA5",
    "chiA1*chiA5", "chiA2*chiA5", "chiA3*chiA5"))
REFERENCE_NEW_NAMES = tuple("eps%d" % i for i in range(1, 9))
REFERENCE_IMAGE_NAMES = sorted(("trivial", "chiA1", "chiA2*chiA5",
                                "chiA3*chiA5"))
REFERENCE_VERDICT_COUNTS = {"node": 1, "smooth_point": 12, "none": 50}
REFERENCE_MODULI_ROWS = {"Ia/none": 8, "Ia/smooth_point": 4, "Ib/node": 1,
                         "Ib/none": 2, "II/none": 40, "II/smooth_point": 8}


class SweepRow(Record):
    Q: Character
    Qhalf: Character
    closed: str
    oracle: str
    moduli_type: str


class Sweep(Record):
    rows: tuple            # one SweepRow per admissible pair, in pair order
    verdict_counts: dict   # closed-form verdict -> number of pairs
    moduli_rows: dict      # "moduli type/verdict" -> number of pairs
    mismatches: list       # {"Qhalf", "closed", "oracle"} where routes differ


def classification_sweep(s):
    """Both routes' verdicts and the moduli type of every admissible pair."""
    rows, counts, moduli_rows, mismatches = [], {}, {}, []
    for Q, Qhalf in admissible_pairs(s):
        row = SweepRow(Q, Qhalf, classify_origin_singularity(s, Q, Qhalf),
                       classify_origin_singularity_oracle(s, Q, Qhalf),
                       moduli_type(s, Q, Qhalf))
        rows.append(row)
        if row.closed != row.oracle:
            mismatches.append({"Qhalf": display_name(Qhalf),
                               "closed": row.closed, "oracle": row.oracle})
        counts[row.closed] = counts.get(row.closed, 0) + 1
        key = "%s/%s" % (row.moduli_type, row.closed)
        moduli_rows[key] = moduli_rows.get(key, 0) + 1
    return Sweep(tuple(rows), counts, moduli_rows, mismatches)


def classification_report(s, Q, Qhalf):
    """Everything about one admissible pair, with both routes' verdicts."""
    closed = classify_origin_singularity(s, Q, Qhalf)
    oracle = classify_origin_singularity_oracle(s, Q, Qhalf)
    # the fibre is already in coordinate order
    witnesses = [TorsionPoint(s.form_A.lattice, 4, k)
                 for k in _fibre_numerators(s, Qhalf, 4)
                 if _origin_cases_on_grid(s, k, 4)]
    return {
        "Q": Q.texts(),
        "Qhalf": Qhalf.texts(),
        "singularity": closed,
        "singularity_oracle": oracle,
        "rf_pair": list(rf_pair(closed)),
        "moduli_type": moduli_type(s, Q, Qhalf),
        "witness_points": witnesses,
    }


# Display names for the 2-torsion characters of the two reference lattices,
# matching the usual tables (as numerators mod 2); products compose by "*".

def _pm(values):
    return tuple(0 if v == 1 else 1 for v in values)


_A_TABLE = {
    "trivial": _pm((1, 1, 1, 1)),
    "chiA1": _pm((1, 1, -1, 1)),
    "chiA2": _pm((-1, -1, 1, 1)),
    "chiA3": _pm((-1, -1, -1, 1)),
    "chiA5": _pm((1, -1, 1, 1)),
    "chiA1*chiA5": _pm((1, -1, -1, 1)),
    "chiA2*chiA5": _pm((-1, 1, 1, 1)),
    "chiA3*chiA5": _pm((-1, 1, -1, 1)),
    "eps1": _pm((1, 1, 1, -1)),
    "eps2": _pm((1, 1, -1, -1)),
    "eps3": _pm((1, -1, 1, -1)),
    "eps4": _pm((1, -1, -1, -1)),
    "eps5": _pm((-1, -1, 1, -1)),
    "eps6": _pm((-1, -1, -1, -1)),
    "eps7": _pm((-1, 1, 1, -1)),
    "eps8": _pm((-1, 1, -1, -1)),
}


def _b_table():
    # compose the factor-wise generators into all 16 names
    first = {"": _pm((1, 1, 1, 1)), "chiB1": _pm((1, 1, -1, 1)),
             "chiB2": _pm((-1, 1, 1, 1)), "chiB3": _pm((-1, 1, -1, 1))}
    second = {"": _pm((1, 1, 1, 1)), "chiB4": _pm((1, 1, 1, -1)),
              "chiB5": _pm((1, -1, 1, 1)), "chiB6": _pm((1, -1, 1, -1))}
    return {"*".join(n for n in (n1, n2) if n) or "trivial":
            tuple((a + b) % 2 for a, b in zip(v1, v2))
            for n1, v1 in first.items() for n2, v2 in second.items()}


_B_TABLE = _b_table()
A_CHARACTER_NAMES = {v: k for k, v in _A_TABLE.items()}
B_CHARACTER_NAMES = {v: k for k, v in _B_TABLE.items()}
# per reference lattice: name -> numerators mod 2 (n <= 2), and back
_TABLES = {reference_lattice_a(): (_A_TABLE, A_CHARACTER_NAMES),
           reference_lattice_b(): (_B_TABLE, B_CHARACTER_NAMES)}


def character_name(chi):
    """Table name of a 2-torsion character on a reference lattice, if any."""
    if chi.is_two_torsion and chi.lattice in _TABLES:
        return _TABLES[chi.lattice][1].get(chi.nums)
    return None


def display_name(chi):
    """Table name of chi, or its comma-joined values when it has none."""
    return character_name(chi) or ",".join(chi.texts())


def parse_character(text, lattice):
    """Parse "chiA2*chiA5", "eps3", "trivial", or a raw "0,1/2,0,1/4" vector."""
    text = text.strip()
    if "," in text:
        return Character.from_fractions(
            map(parse_rational, text.split(",")), lattice=lattice)
    if lattice not in _TABLES:
        raise ValueError("names are only defined on the reference lattices")
    table = _TABLES[lattice][0]
    out = trivial_character(lattice)
    for part in text.split("*"):
        if part not in table:
            raise ValueError("unknown character name: %r" % part)
        out = out * Character(lattice, 2, table[part])
    return out
