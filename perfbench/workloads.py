"""Seeded request streams for the three workloads, and what replies must say.

A stream is a sequence of blocks. Every block of a workload holds the same
number of requests of each kind, so the mix, and with it the median and the
tail, does not depend on the seed; the seed only picks the arguments and the
order inside a block. Expected replies are computed here, independently of
the program under test, from the definitions in the paper and the README.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

WORKLOADS = ("verify", "queries", "oracle-scan")

# queries: requests per block. No record of how users weight the commands
# exists, so the mix is an assumption, the plainest one: the same number of
# each single-shot command form of the README, and malformed input (drawn
# from MALFORMED) as one more form.
QUERY_FORMS = ("slope", "bounds", "example", "family", "bundle",
               "intersect-class", "classify", "malformed")
PER_FORM = 4

# oracle-scan: one request per modulus per block; the oracle loops over
# (Z/M)^4, so M^4 sets the cost, and M < 64 stays clear of any future cap.
# Repeated moduli make wide strata around the median (40, p22-p67) and
# around the tail percentile (50, p67-p100; the tail is p78-p87 at 45 to 80
# samples), so neither statistic sits at the edge of a stratum or jumps
# between strata with the number of requests a run completes, and each is
# taken over many samples of one command cost.
ORACLE_MODULI = (30, 34, 40, 40, 40, 40, 50, 50, 50)

# Inputs the CLI contract says must end in exit 64 (usage) or 65 (domain).
MALFORMED = (
    (("slope", "--k2", "8", "--chi", "2", "--gc", "2", "--gf", "3"), 65),
    (("bounds", "--k2", "0", "--chi", "1"), 65),
    (("intersect", "--pq", "2,4", "--pq", "1,0"), 65),
    (("intersect", "--pq", "1,2", "--pq", "1,0", "--m", "1"), 65),
    (("intersect", "--class", "1,2", "--class", "1"), 64),
    (("classify", "--Qhalf", "chiZ9"), 64),
    (("classify", "--Qhalf", "1/2,0,0"), 64),
    (("classify", "--Qhalf", "0,0,0,1/2", "--Q", "chiA1"), 65),
    (("family-fn", "--n", "0"), 64),
    (("bundle", "h0", "--g", "3", "--r", "1"), 65),
    (("bundle", "h0", "--g", "3", "--r", "1", "--torsion", "0"), 65),
    (("bundle", "jump", "--g", "3", "--r", "1", "--torsion", "1/3,0"), 64),
    (("example", "nope"), 64),
)
# Two inputs that crash with a traceback (exit 1) where they should end in
# exit 64. They are kept out of the request streams, whose every request
# must succeed, and probed once per queries run instead (see run.py).
KNOWN_CRASHES = (
    (("classify", "--Qhalf", "1/0,0,0,0"), 64),
    (("bundle", "h0", "--spec", '{"g":"x","r":1}'), 64),
)

EXAMPLE_IDS = ("pen-1", "pen-4", "pen-5", "pen-6",
               "k26-d2", "k5-3", "k6-4", "family-fn")


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple      # arguments after "irrfib", without --json
    expect: int      # exit code the CLI contract requires
    ref: object = None  # expected values for the reply, by kind
    known_crash: bool = False  # in KNOWN_CRASHES: a crash is not wrong

    @property
    def cli_argv(self):
        return self.argv + ("--json",)


# --- reference data, from the paper's reference surface ---------------------

# Sub-lattice basis in ambient coordinates (columns) and the ambient form.
_EMBEDDING = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 2))
_FORM_B = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
# Period generators of the two elliptic subtori (integer kernels of the
# (lambda2, mu2) and (lambda1, mu1) rows of the embedding).
_FIRST_PERIODS = ((1, 0, 0, 0), (0, 0, 2, 1))
_SECOND_PERIODS = ((1, -1, 0, 0), (0, 0, 0, 1))
# +-1 display of the named 2-torsion characters of the sub-lattice.
_A_NAMES = {
    "chiA1": (1, 1, -1, 1), "chiA2": (-1, -1, 1, 1),
    "chiA3": (-1, -1, -1, 1), "chiA5": (1, -1, 1, 1),
    "eps1": (1, 1, 1, -1), "eps2": (1, 1, -1, -1), "eps3": (1, -1, 1, -1),
    "eps4": (1, -1, -1, -1), "eps5": (-1, -1, 1, -1),
    "eps6": (-1, -1, -1, -1), "eps7": (-1, 1, 1, -1),
    "eps8": (-1, 1, -1, -1),
}
# The pen-6 configuration Y1, Y2, Z1, Z2, W with its pairing.
_PEN6_GRAM = ((-1, 0, 1, 0, 1), (0, -1, 0, 1, 1), (1, 0, -2, 1, 0),
              (0, 1, 1, -2, 0), (1, 1, 0, 0, -3))
VERDICT_COUNTS = {"node": 1, "smooth_point": 12, "none": 50}


def _mod1(x):
    return x - (x.numerator // x.denominator)


def _form_a():
    m, b = _EMBEDDING, _FORM_B
    return tuple(tuple(sum(m[k][i] * b[k][l] * m[l][j]
                           for k in range(4) for l in range(4))
                       for j in range(4)) for i in range(4))


def admissible_characters():
    """The 63 nontrivial values of phi_L on 4-torsion, as Fraction tuples."""
    a = _form_a()
    steps = [Fraction(k, 4) for k in range(4)]
    seen = {tuple(_mod1(sum(r * x for r, x in zip(row, point))) for row in a)
            for point in product(steps, repeat=4)}
    seen.discard((Fraction(0),) * 4)
    return sorted(seen)


def verdict(values):
    """Closed-form origin singularity of the pair (Qhalf^2, Qhalf)."""
    def trivial_on(gens):
        return all(sum(g * v for g, v in zip(gen, values)).denominator == 1
                   for gen in gens)
    first, second = trivial_on(_FIRST_PERIODS), trivial_on(_SECOND_PERIODS)
    if first and second:
        return "node"
    return "smooth_point" if first or second else "none"


def _name_values(name):
    return tuple(Fraction(0) if s == 1 else Fraction(1, 2)
                 for s in _A_NAMES[name])


def _spellings():
    """Name spellings (single names and two-name products) by value."""
    out = {}
    names = sorted(_A_NAMES)
    for a in names:
        out.setdefault(_name_values(a), []).append(a)
        for b in names:
            if a != b:
                v = tuple(_mod1(x + y) for x, y in
                          zip(_name_values(a), _name_values(b)))
                out.setdefault(v, []).append("%s*%s" % (a, b))
    return out


_ADMISSIBLE = admissible_characters()
_NAMED = {v: s for v, s in _spellings().items() if v in set(_ADMISSIBLE)}
if len(_ADMISSIBLE) != 63 or sorted(
        verdict(v) for v in _ADMISSIBLE) != sorted(
        k for k, n in VERDICT_COUNTS.items() for _ in range(n)):
    raise RuntimeError("reference data does not reproduce the 63 pairs")


# --- generators --------------------------------------------------------------

def _point(rng):
    n = rng.choice((2, 3, 4, 5, 6))
    return (Fraction(rng.randrange(n), n), Fraction(rng.randrange(n), n))


def _point_text(p):
    return "%s,%s" % p


def _slope(rng):
    while True:
        k2, chi = rng.randint(1, 40), rng.randint(1, 5)
        gc, gf = rng.randint(1, 3), rng.randint(2, 6)
        base = (gc - 1) * (gf - 1)
        if chi != base:
            break
    argv = ("slope", "--k2", str(k2), "--chi", str(chi),
            "--gc", str(gc), "--gf", str(gf))
    return Request("slope", argv, 0,
                   {"slope": str(Fraction(k2 - 8 * base, chi - base))})


def _bounds(rng):
    k2, chi = rng.randint(1, 40), rng.randint(1, 5)
    ample = rng.choice((None, "true", "false"))
    argv = ("bounds", "--k2", str(k2), "--chi", str(chi))
    if ample:
        argv += ("--ample", ample)
    if ample == "true" and 8 * chi - 5 < k2 < 8 * chi:
        verdict_ = "not_isotrivial"
    elif k2 > 8 * chi - 2:
        verdict_ = "not_isotrivial_if_not_isogenous"
    else:
        verdict_ = "no_obstruction"
    return Request("bounds", argv, 0,
                   {"rank_one_genus_bound": min(k2, 9 * chi) // 2 + 1,
                    "isotriviality": verdict_})


def _example(rng):
    ex = rng.choice(EXAMPLE_IDS)
    argv = ("example", ex)
    if ex == "family-fn":
        n = rng.randint(1, 8)
        return Request("family", argv + ("--n", str(n)), 0, {"n": n})
    return Request("example", argv, 0, {"id": ex})


def _family(rng):
    n = rng.randint(1, 8)
    return Request("family", ("family-fn", "--n", str(n)), 0, {"n": n})


def _bundle(rng, action):
    g = rng.randint(3, 6)
    r = rng.randint(1, g - 1)
    torsion = []
    while len(torsion) < g - r - 1:
        t = _point(rng)
        if any(t) and t not in torsion:
            torsion.append(t)
    p = rng.choice(("generic", "generic:p", "0", "1/2,1/3"))
    ref = {"action": action, "r": r}
    extra = ()
    if action == "jump":
        pick = rng.random()
        if pick < 0.25:
            q = (Fraction(0), Fraction(0))
        elif pick < 0.75 and torsion:
            q = tuple(_mod1(-c) for c in rng.choice(torsion))
        else:
            q = _point(rng)
        neg = tuple(_mod1(-c) for c in q)
        ref["jump_h1"] = 2 if not any(q) else (1 if neg in torsion else 0)
        extra = ("--q", _point_text(q))
    if rng.random() < 0.25:
        spec = {"g": g, "r": r, "p": p,
                "torsion": [_point_text(t) for t in torsion]}
        shape = ("--spec", json.dumps(spec, sort_keys=True))
    else:
        shape = ("--g", str(g), "--r", str(r), "--p", p)
        for t in torsion:
            shape += ("--torsion", _point_text(t))
    return Request("bundle", ("bundle", action) + shape + extra, 0, ref)


def _intersect_class(rng):
    a = [rng.randint(-3, 3) for _ in range(5)]
    b = [rng.randint(-3, 3) for _ in range(5)]
    value = sum(a[i] * _PEN6_GRAM[i][j] * b[j]
                for i in range(5) for j in range(5))
    # the "--opt=value" form keeps argparse from reading "-3,1" as a flag
    argv = ("intersect", "--class=" + ",".join(map(str, a)),
            "--class=" + ",".join(map(str, b)))
    return Request("intersect-class", argv, 0,
                   {"dot": value,
                    "nef_violation": value if value < 0 else None})


def _classify(rng, named):
    if named:
        values = rng.choice(sorted(_NAMED))
        text = rng.choice(_NAMED[values])
    else:
        values = rng.choice(_ADMISSIBLE)
        text = ",".join(str(v) for v in values)
    return Request("classify", ("classify", "--Qhalf", text), 0,
                   {"Qhalf": [str(v) for v in values],
                    "singularity": verdict(values)})


def _pq(rng, m):
    """Two coprime kernel curves whose determinant is nonzero and divides m."""
    while True:
        c = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(2)]
        det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
        if all(gcd(p, q) == 1 for p, q in c) and det and m % det == 0:
            return c, det


def _oracle(rng, m):
    (c1, c2), det = _pq(rng, m)
    argv = ("intersect", "--pq=%d,%d" % c1, "--pq=%d,%d" % c2, "--m", str(m))
    return Request("oracle", argv, 0,
                   {"kernel_dot": det * det,
                    "degrees": [c1[0] ** 2 + c1[1] ** 2,
                                c2[0] ** 2 + c2[1] ** 2]})


def _malformed(rng):
    return [Request("malformed", argv, code)
            for argv, code in rng.sample(MALFORMED, PER_FORM)]


def known_crashes():
    return [Request("malformed", argv, code, known_crash=True)
            for argv, code in KNOWN_CRASHES]


def _queries_block(rng):
    makers = {
        "slope": _slope, "bounds": _bounds, "example": _example,
        "family": _family, "intersect-class": _intersect_class,
    }
    block = []
    for form in QUERY_FORMS:
        if form == "bundle":
            block += [_bundle(rng, action)
                      for action in ("h0", "h1", "jump", "r-criterion")]
        elif form == "classify":
            block += [_classify(rng, named=i % 2 == 0)
                      for i in range(PER_FORM)]
        elif form == "malformed":
            block += _malformed(rng)
        else:
            block += [makers[form](rng) for _ in range(PER_FORM)]
    rng.shuffle(block)
    return block


def _verify_block(rng):
    block = [Request("appendix", ("appendix",), 0),
             Request("sweep", ("classify", "--sweep"), 0)]
    rng.shuffle(block)
    return block


def _oracle_block(rng):
    block = [_oracle(rng, m) for m in ORACLE_MODULI]
    rng.shuffle(block)
    return block


_BLOCKS = {"verify": _verify_block, "queries": _queries_block,
           "oracle-scan": _oracle_block}


def blocks(workload, seed):
    """Endless stream of request blocks; one seed always gives one stream."""
    rng = random.Random("%s/%d" % (workload, seed))
    make = _BLOCKS[workload]
    while True:
        yield make(rng)


# --- what a reply must say ---------------------------------------------------

def _check_appendix(req, body):
    checks = body["checks"]
    if len(checks) != 13:
        return "appendix reports %d checks, expected 13" % len(checks)
    if body["results"].get("admissible_pairs") != 63:
        return "appendix does not report 63 admissible pairs"
    return None


def _check_sweep(req, body):
    res = body["results"]
    if len(res["pairs"]) != 63:
        return "sweep reports %d pairs, expected 63" % len(res["pairs"])
    if res["verdict_counts"] != VERDICT_COUNTS:
        return "sweep verdict counts %r" % (res["verdict_counts"],)
    return None


def _check_fields(req, body):
    res = body["results"]
    for key, value in req.ref.items():
        if res.get(key) != value:
            return "%s = %r, expected %r" % (key, res.get(key), value)
    return None


def _check_example(req, body):
    rec = body["results"]["record"]
    if rec.get("id") != req.ref["id"]:
        return "example record id %r" % (rec.get("id"),)
    return None


def _check_family(req, body):
    n = req.ref["n"]
    rec = body["results"]["record"]
    if (rec["gF"], rec["r"]) != (n * n + 2, n * n + 1):
        return "family record (gF, r) = (%r, %r) for n = %d" % (
            rec["gF"], rec["r"], n)
    return None


def _check_bundle(req, body):
    res, ref = body["results"], req.ref
    action = ref["action"]
    if action == "h0" and res.get("h0") != 2:
        return "h0 = %r, expected 2" % (res.get("h0"),)
    if action == "h1" and res.get("h1") != 1:
        return "h1 = %r, expected 1" % (res.get("h1"),)
    if action == "jump" and res.get("jump_h1") != ref["jump_h1"]:
        return "jump_h1 = %r, expected %r" % (res.get("jump_h1"),
                                              ref["jump_h1"])
    if action == "r-criterion" and res.get("ample_part_is_line") != (
            ref["r"] == 1):
        return "ample_part_is_line = %r for r = %d" % (
            res.get("ample_part_is_line"), ref["r"])
    return None


def _check_oracle(req, body):
    res, ref = body["results"], req.ref
    if res.get("kernel_dot") != ref["kernel_dot"]:
        return "kernel_dot = %r, expected %r" % (res.get("kernel_dot"),
                                                 ref["kernel_dot"])
    if res.get("oracle_count") != res.get("kernel_dot"):
        return "oracle_count %r != kernel_dot %r" % (res.get("oracle_count"),
                                                     res.get("kernel_dot"))
    if res.get("degree_vs_product_polarization") != ref["degrees"]:
        return "product-polarization degrees %r" % (
            res.get("degree_vs_product_polarization"),)
    if not any(c["name"] == "oracle agreement" for c in body["checks"]):
        return "the oracle agreement check did not run"
    return None


_CHECKERS = {
    "appendix": _check_appendix, "sweep": _check_sweep,
    "slope": _check_fields, "bounds": _check_fields,
    "intersect-class": _check_fields, "classify": _check_fields,
    "example": _check_example, "family": _check_family,
    "bundle": _check_bundle, "oracle": _check_oracle,
}


def check_reply(req, stdout):
    """Why a successful reply is wrong, or None if it is right."""
    try:
        body = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    failing = [c["name"] for c in body.get("checks", []) if not c.get("pass")]
    if failing:
        return "failed checks: %s" % ", ".join(failing)
    try:
        return _CHECKERS[req.kind](req, body)
    except (KeyError, TypeError) as exc:
        return "reply lacks %s" % exc
