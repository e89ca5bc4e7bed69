"""The reference (1,2)-polarized surface and its origin-singularity calculus.

A surface is an index-2 sublattice of a product lattice, polarized by the
product principal form restricted to it; the surface alone refuses another
index. The classification is rational: the isogeny image of a torsion
point, which translated reducible members pass through the origin, and a
two-route verdict (closed form vs 4-torsion oracle).
"""

from .characters import Character, restrictions, trivial_character
from .errors import IncompatibleLattice, InvalidTwist
from .lattice import Lattice, SublatticeEmbedding, TorsionPoint, parse_rational
from .linalg import integer_kernel_basis
from .polarization import AlternatingForm, phi_L_grid, restrict_form
from .record import Record

SINGULARITY_NONE = "none"
SINGULARITY_SMOOTH = "smooth_point"
SINGULARITY_NODE = "node"


class SpecialAbelianSurface(Record):
    """An index-2 sublattice E of the product lattice, with the product form J
    restricted to it. Its type is (1,2): Pf(E^T J E) = det(E) Pf(J) = +-2
    forces d1 d2 = 2.

    What the classification reads off the surface is derived here, once,
    and kept with it beside the one field: form_A, phi_L's fibre tables on
    2- and 4-torsion (_grids, n -> phi_L_grid(form_A, n)), the periods of
    the subtori over each factor (_periods) and each factor's half-period
    (_halves). The subtorus over one factor is the kernel of the map to the
    other, so its periods are the integer kernel of the other factor's rows
    of the embedding, (lambda2, mu2) for the first. Only the closed form
    reads them; the oracle reads the fibre tables and the half-periods.

    The sublattice is {x : a.x even}, a the nontrivial element of the kernel
    of restriction mod 2, read off characters.restrictions, the one
    pull-back. Factor i's half-period, over 4 in its (lambda_i, mu_i), is
    (2 a_mu_i, 2 a_lambda_i); (0, 0) is none.
    """
    embedding: SublatticeEmbedding

    def __post_init__(self):
        if self.embedding.index != 2:
            raise ValueError("embedding must have index 2")
        # IncompatibleLattice unless E is into the product lattice
        form_A = restrict_form(reference_form_b(), self.embedding)
        rows = self.embedding.matrix
        a = next(k for k, restricted in restrictions(self.embedding, 2)
                 if any(k) and not any(restricted))
        self.__dict__.update(
            form_A=form_A,
            _grids={n: phi_L_grid(form_A, n) for n in (2, 4)},
            _periods=tuple(tuple(map(tuple, integer_kernel_basis(rows[i::2])))
                           for i in (1, 0)),
            _halves=tuple((2 * a[i + 2], 2 * a[i]) for i in (0, 1)))


# one instance each: a record never changes, and the character-name tables
# below key on them, so a lookup meets the very object it is asked for
_LATTICE_B = Lattice(4, ("lambda1", "lambda2", "mu1", "mu2"))
_LATTICE_A = Lattice(4, ("lambda1", "lambda1+lambda2", "mu1-mu2", "2mu2"))


def reference_lattice_b():
    return _LATTICE_B


def reference_lattice_a():
    return _LATTICE_A


def reference_embedding():
    # columns: lambda1, lambda1+lambda2, mu1-mu2, 2mu2 in the ambient basis
    return SublatticeEmbedding(reference_lattice_b(), reference_lattice_a(),
                               ((1, 1, 0, 0),
                                (0, 1, 0, 0),
                                (0, 0, 1, 0),
                                (0, 0, -1, 2)))


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
    return () if n % chi.n else s._grids[n].get(chi.nums_over(n), ())


def _check_pair(s, Q, Qhalf):
    """Raise unless (Q, Qhalf) is an admissible pair; classify_pair checks
    each pair it is given once, and nothing else checks pairs."""
    lat = s.embedding.sub
    if Q.lattice != lat or Qhalf.lattice != lat:
        raise IncompatibleLattice("characters must live on the sublattice")
    if not _fibre_numerators(s, Q, 2):
        raise InvalidTwist("Q must be in the image of phi on 2-torsion")
    # Qhalf^2 = Q: over Qhalf's order n, twice its numerators are Q's mod n
    n = Qhalf.n
    if n % Q.n or tuple([2 * k % n for k in Qhalf.nums]) != Q.nums_over(n):
        raise InvalidTwist("Qhalf must be a square root of Q")
    if Q.is_trivial and Qhalf.is_trivial:
        raise InvalidTwist("the trivial pair is excluded")


def _trivial_on(chi, gens):
    n, (c0, c1, c2, c3) = chi.n, chi.nums
    return all([(g0 * c0 + g1 * c1 + g2 * c2 + g3 * c3) % n == 0
                for g0, g1, g2, g3 in gens])


# a verdict counts the factors over which the translated member through 0
# has a component: none, one (a smooth point) or both (a node)
_VERDICTS = (SINGULARITY_NONE, SINGULARITY_SMOOTH, SINGULARITY_NODE)


def _closed_form(s, Qhalf):
    """Closed-form verdict from triviality on the factor period lattices.

    The translated member through 0 has a component over the first factor iff
    Qhalf is trivial on the periods of the subtorus over the first factor,
    and symmetrically.
    """
    return _VERDICTS[sum([_trivial_on(Qhalf, gens) for gens in s._periods])]


def _sides(s, ks):
    """For each 4-torsion point x = k/4 of ks, whether the lemma puts a
    component over the second factor (cases 1 and 2), and over the first
    (cases 3 and 4), at psi(x).

    psi(x) has the numerators E*k mod 4 (E the embedding matrix) in the
    ambient basis (lambda1, lambda2, mu1, mu2), one row of E each. Factor i
    has the periods lambda_i = tau_i and mu_i = 1, so its coordinate is the
    pair (lambda_i, mu_i); a side is hit when that is 0 or its half-period.
    """
    half1, half2 = s._halves
    first, second = ((0, 0), half1), ((0, 0), half2)
    (l10, l11, l12, l13), (l20, l21, l22, l23), \
        (m10, m11, m12, m13), (m20, m21, m22, m23) = s.embedding.matrix
    for k0, k1, k2, k3 in ks:
        yield (((l20 * k0 + l21 * k1 + l22 * k2 + l23 * k3) % 4,
                (m20 * k0 + m21 * k1 + m22 * k2 + m23 * k3) % 4) in second,
               ((l10 * k0 + l11 * k1 + l12 * k2 + l13 * k3) % 4,
                (m10 * k0 + m11 * k1 + m12 * k2 + m13 * k3) % 4) in first)


def _oracle(s, Qhalf):
    """Independent verdict by enumerating translation points on 4-torsion:
    the most sides any point of the fibre over Qhalf reaches, read off its
    integer numerators alone. It never reads the period lattices.
    """
    fibre = _fibre_numerators(s, Qhalf, 4)
    return _VERDICTS[max(map(sum, _sides(s, fibre)), default=0)]


_RF_PAIRS = {SINGULARITY_NONE: (2, 2),
             SINGULARITY_NODE: (1, 1),
             SINGULARITY_SMOOTH: (1, 2)}


def rf_pair(singularity):
    """Atiyah ranks {r(f1), r(f2)} of the two induced fibrations."""
    return _RF_PAIRS[singularity]


def phi_two_torsion_data(s):
    """(kernel, image) of phi_L on the 2-torsion points: the surface's
    2-torsion grid's fibre over the trivial character, and its keys."""
    lat = s.embedding.sub
    grid = s._grids[2]
    return ({TorsionPoint(lat, 2, k) for k in grid[(0,) * lat.rank]},
            {Character(lat, 2, key) for key in grid})


def admissible_pairs(s):
    """(Qhalf^2, Qhalf) for the 63 nontrivial Qhalf realizable as phi_L(x)
    on 4-torsion, in value order: numerators over the one denominator 4 sort
    alike. A grid key is Qhalf's numerators over 4, so twice it is the
    square's, and that over 2 is the key mod 2: a key of the 2-torsion grid,
    as Qhalf^2 = phi_L(2x). The 63 pairs share those 4 squares."""
    lat = s.embedding.sub
    squares = {key: Character(lat, 2, key) for key in s._grids[2]}
    return [(squares[tuple([k % 2 for k in key])], Character(lat, 4, key))
            for key in sorted(s._grids[4]) if any(key)]


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


def classify_pair(s, Q, Qhalf):
    """Both routes' verdicts and the moduli type of one pair, which is
    checked here, once: InvalidTwist or IncompatibleLattice unless it is
    admissible."""
    _check_pair(s, Q, Qhalf)
    moduli = ("II" if not Q.is_trivial
              else "Ib" if _fibre_numerators(s, Qhalf, 2) else "Ia")
    return SweepRow(Q, Qhalf, _closed_form(s, Qhalf), _oracle(s, Qhalf),
                    moduli)


def classification_sweep(s):
    """Both routes' verdicts and the moduli type of every admissible pair."""
    rows, counts, moduli_rows, mismatches = [], {}, {}, []
    for Q, Qhalf in admissible_pairs(s):
        row = classify_pair(s, Q, Qhalf)
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
    row = classify_pair(s, Q, Qhalf)
    # the fibre is already in coordinate order
    fibre = _fibre_numerators(s, Qhalf, 4)
    witnesses = [TorsionPoint(s.form_A.lattice, 4, k)
                 for k, sides in zip(fibre, _sides(s, fibre)) if any(sides)]
    return {
        "Q": Q.texts(),
        "Qhalf": Qhalf.texts(),
        "singularity": row.closed,
        "singularity_oracle": row.oracle,
        "rf_pair": list(rf_pair(row.closed)),
        "moduli_type": row.moduli_type,
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
    tables = _TABLES.get(chi.lattice) if chi.is_two_torsion else None
    return tables and tables[1].get(chi.nums)


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
