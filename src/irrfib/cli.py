"""Command line front end.

Every subcommand emits a Report: echoed inputs, results, and a list of
named checks. Exit status: 0 all checks pass, 2 a check failed, 64 usage
error, 65 domain error (the raising error class is printed) or a stdout
that is closed or full. A reader that closes the pipe early, or a stderr
that cannot take the error line, leaves the status as it was. run(), the
process entry, points a stream whose flush fails at /dev/null; main(argv)
leaves a host's streams as it found them.

The command line is the table COMMANDS, which parse_argv alone reads as
argparse would, but refusing abbreviated flags and a bare "--".

A handler reads each library name from its module when it runs
(torus.classification_sweep), so a command runs only the modules it
computes with: importing irrfib registers them without running them.
"""

import errno
import gc
import os
import sys
from types import SimpleNamespace

from . import (bundles, characters, intersection, invariants, lattice,
               polarization, torus)
from .errors import IrrfibError
from .report import Report, render

EXAMPLE_IDS = ("pen-1", "pen-4", "pen-5", "pen-6",
               "k26-d2", "k5-3", "k6-4", "family-fn")

# the oracle tests every cell of (Z/m)^2; the cap keeps its cost bounded
MAX_ORACLE_MODULUS = 64
# a --spec or --fixture file is read to at most this many bytes
MAX_FILE_BYTES = 1 << 20


class UsageError(Exception):
    pass


def _parse_point(text):
    text = text.strip()
    if text == "0":
        return bundles.elliptic_origin()
    if text == "generic" or text.startswith("generic:"):
        return bundles.generic_point(text.partition(":")[2] or "p")
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("point must be '0', 'generic[:name]' or 'a,b'")
    try:
        return bundles.EllipticPoint.from_fractions(
            map(lattice.parse_rational, parts))
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad point coordinates: %r" % text)


def _parse_int_vector(text, length):
    try:
        v = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError("bad integer vector: %r" % text)
    if len(v) != length:
        raise UsageError("expected %d comma-separated integers" % length)
    return v


def _parse_named_character(text, reference):
    try:
        return torus.parse_character(text, reference)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad character %r: %s" % (text, exc))


def cmd_appendix(args):
    rep = Report("appendix", inputs={"corrupt": bool(args.corrupt)})
    s = torus.build_reference_surface()
    e = s.embedding

    rep.check("sublattice index", 2, e.index)
    t = polarization.polarization_type(s.form_A)
    rep.check("polarization type", [1, 2], [t.d1, t.d2])

    kl = polarization.kernel_K_L(s.form_A)
    rep.check("polarization kernel invariant factors", [2, 2],
              list(kl.invariant_factors))
    kl_points = [x.texts() for x in kl.elements()]
    rep.check("polarization kernel points", torus.REFERENCE_KL_POINTS,
              kl_points)

    rep.check("restriction kernel", ["chiB1*chiB4", "trivial"],
              sorted(torus.display_name(c)
                     for c in characters.kernel_of_restriction(e, 2)))

    extendable, new = characters.two_torsion_character_tables(e)
    expected_new = sorted(torus.REFERENCE_NEW_NAMES)
    if args.corrupt:
        expected_new = expected_new[:-1] + ["eps8-corrupted"]
    rep.check("extendable character table", torus.REFERENCE_EXTENDABLE_NAMES,
              sorted(torus.display_name(c) for c in extendable))
    rep.check("new character table", expected_new,
              sorted(torus.display_name(c) for c in new))

    kernel2, image2 = torus.phi_two_torsion_data(s)
    rep.check("two-torsion image", torus.REFERENCE_IMAGE_NAMES,
              sorted(torus.display_name(c) for c in image2))
    # phi's kernel on 2-torsion is K(L): a second route to its points
    rep.check("two-torsion kernel points", sorted(kl_points),
              sorted(x.texts() for x in kernel2))

    sweep = torus.classification_sweep(s)
    rep.results["admissible_pairs"] = len(sweep.rows)
    rep.check("admissible pair count", 63, len(sweep.rows))
    _sweep_checks(rep, sweep)
    return rep


def _sweep_checks(rep, sweep):
    rep.check("classification routes agree", [], sweep.mismatches)
    rep.check("classification verdict counts", torus.REFERENCE_VERDICT_COUNTS,
              sweep.verdict_counts)
    rep.check("classification moduli rows", torus.REFERENCE_MODULI_ROWS,
              sweep.moduli_rows)


def _family_report(command, n):
    if n < 1:
        raise UsageError("--n must be a positive integer")
    rec, checks = invariants.unbounded_family(n)
    rep = Report(command, inputs={"n": n})
    rep.results["record"] = rec
    rep.checks.extend(checks)
    return rep


def _bound_checks(rep, record):
    rank_one = [(i, f) for i, f in enumerate(record.fibrations, 1) if f.r == 1]
    if rank_one:
        inv = record.invariants
        bound = invariants.genus_bound_rank_one(inv.K2, inv.chi)
        rep.results["rank_one_genus_bound"] = bound
        for i, f in rank_one:
            rep.check("rank-1 genus bound holds (fibration %d)" % i,
                      True, f.gF <= bound)


def cmd_example(args):
    ex_id = args.id
    twist = args.Qhalf is not None or args.Q is not None
    if twist and ex_id != "k26-d2":
        raise UsageError("--Q/--Qhalf only apply to k26-d2")
    if ex_id == "family-fn":
        return _family_report("example family-fn",
                              1 if args.n is None else args.n)
    if args.n is not None:
        raise UsageError("--n only applies to family-fn")
    rep = Report("example %s" % ex_id, inputs={"id": ex_id})
    record, checks = invariants.example_record(ex_id)
    rep.results["record"] = record
    rep.check("chi", 1, record.invariants.chi)
    rep.checks.extend(checks)
    _bound_checks(rep, record)
    if ex_id == "k26-d2":
        inv = record.invariants
        _, inequality = invariants.isotriviality_obstruction(
            inv.K2, inv.chi, inv.ample_canonical)
        rep.results["isotriviality_inequality"] = inequality
        if twist:
            rep.results["classification"] = _classified(args, rep)
    return rep


def _classified(args, rep):
    if args.Qhalf is None:
        raise UsageError("--Qhalf is required when classifying")
    reference = torus.reference_lattice_a()
    qhalf = _parse_named_character(args.Qhalf, reference)
    q = (qhalf * qhalf if args.Q is None
         else _parse_named_character(args.Q, reference))
    result = torus.classification_report(
        torus.build_reference_surface(), q, qhalf)
    result["Q_name"] = torus.display_name(q)
    result["Qhalf_name"] = torus.display_name(qhalf)
    rep.check("classification routes agree", result["singularity"],
              result["singularity_oracle"])
    return result


def cmd_family(args):
    return _family_report("family-fn", args.n)


def cmd_slope(args):
    rep = Report("slope", inputs={"K2": args.k2, "chi": args.chi,
                                  "gC": args.gc, "gF": args.gf})
    rep.results["slope"] = invariants.slope(
        args.k2, args.chi, args.gc, args.gf)
    return rep


def cmd_bounds(args):
    ample = {"true": True, "false": False, None: None}[args.ample]
    rep = Report("bounds", inputs={"K2": args.k2, "chi": args.chi,
                                   "ample": ample})
    rep.results["rank_one_genus_bound"] = invariants.genus_bound_rank_one(
        args.k2, args.chi)
    verdict, inequality = invariants.isotriviality_obstruction(
        args.k2, args.chi, ample)
    rep.results["isotriviality"] = verdict
    rep.results["inequality"] = inequality
    return rep


def _parse_json(data, source):
    import json  # with re and enum behind it: only --spec and --fixture pay
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError("%s is nested too deeply" % source) from None


def _read_json(path):
    with open(path, "rb") as handle:
        data = handle.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ValueError("%s is longer than %d bytes" % (path, MAX_FILE_BYTES))
    return _parse_json(data, path)


def _load_lattice(fixture):
    if fixture in (None, "pen6"):
        return intersection.pen6_lattice()
    try:
        data = _read_json(fixture)
        if not isinstance(data["basis_labels"], list):
            raise ValueError("basis_labels must be a list")
        return intersection.IntersectionLattice(data["basis_labels"],
                                                data["gram"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError("cannot load lattice fixture: %s" % exc)


def cmd_intersect(args):
    if args.pq and (args.cls or args.fixture is not None):
        raise UsageError("--pq pairs take neither --class nor --fixture")
    if args.cls and args.m is not None:
        raise UsageError("--m only applies to --pq pairs")
    if args.m is not None and args.m > MAX_ORACLE_MODULUS:
        raise UsageError("--m must be at most %d" % MAX_ORACLE_MODULUS)
    if args.pq:
        if len(args.pq) != 2:
            raise UsageError("need exactly two --pq pairs")
        c1, c2 = (intersection.KernelCurve(*_parse_int_vector(t, 2))
                  for t in args.pq)
        rep = Report("intersect", inputs={"pq": [c1, c2], "m": args.m})
        det = c1.p * c2.q - c1.q * c2.p
        value = intersection.kernel_dot(c1, c2)
        rep.results["kernel_dot"] = value
        rep.results["degree_vs_product_polarization"] = [
            intersection.degree_vs_product_polarization(c) for c in (c1, c2)]
        if args.m is not None:
            count = intersection.kernel_dot_oracle(c1, c2, args.m)
            rep.results["oracle_count"] = count
            if det != 0 and args.m % abs(det) == 0:
                rep.check("oracle agreement", value, count)
        return rep
    if not args.cls or len(args.cls) != 2:
        raise UsageError("need exactly two --class vectors (or two --pq)")
    gram = _load_lattice(args.fixture)
    a, b = (intersection.DivisorClass(gram, _parse_int_vector(t, gram.rank))
            for t in args.cls)
    rep = Report("intersect", inputs={"fixture": args.fixture or "pen6",
                                      "classes": [a, b]})
    rep.results["dot"] = intersection.dot(a, b)
    rep.results["nef_violation"] = intersection.nef_violation_certificate(a, b)
    return rep


def _bundle_spec(args):
    """The shape (g, r, p, torsion) from its flags, or from a --spec that
    is the whole shape: a spec beside a shape flag, with a key beyond g, r,
    p and torsion, or with a point that is not a JSON string, is a usage
    error."""
    flags = {key: getattr(args, key) for key in ("g", "r", "p", "torsion")}
    spec = {key: value for key, value in flags.items() if value is not None}
    if args.spec:
        if spec:
            raise UsageError("--spec is the whole shape: no --%s"
                             % next(iter(spec)))
        try:
            spec = (_parse_json(args.spec, "--spec")
                    if args.spec.lstrip().startswith(("{", "["))
                    else _read_json(args.spec))
        except (OSError, ValueError) as exc:
            raise UsageError("cannot load bundle spec: %s" % exc)
        if not isinstance(spec, dict):
            raise UsageError("a bundle spec is a JSON object")
        unknown = sorted(spec.keys() - flags.keys())
        if unknown:
            raise UsageError("unknown bundle spec key: %r" % unknown[0])
    g, r = spec.get("g"), spec.get("r")
    if g is None or r is None:
        raise UsageError("need --g and --r (or a --spec with g and r)")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (g, r)):
        raise UsageError("g and r must be integers")
    p, torsion = spec.get("p", "generic"), spec.get("torsion", [])
    if not isinstance(p, str):
        raise UsageError("p must be a point string")
    if not (isinstance(torsion, list)
            and all(isinstance(t, str) for t in torsion)):
        raise UsageError("torsion must be a list of point strings")
    return g, r, _parse_point(p), [_parse_point(t) for t in torsion]


def cmd_bundle(args):
    if args.q is not None and args.action != "jump":
        raise UsageError("--q only applies to jump")
    g, r, p, torsion = _bundle_spec(args)
    decomposition = bundles.pushforward_decomposition(g, r, p, torsion)
    rep = Report("bundle %s" % args.action,
                 inputs={"g": g, "r": r, "p": p, "torsion": torsion})
    rep.results["decomposition"] = decomposition
    if args.action == "h0":
        rep.results["h0"] = bundles.h0(decomposition)
    elif args.action == "h1":
        rep.results["h1"] = bundles.h1(decomposition)
    elif args.action == "jump":
        if args.q is None:
            raise UsageError("jump needs --q")
        q = _parse_point(args.q)
        rep.inputs["q"] = q
        rep.results["jump_h1"] = bundles.jump_h1(decomposition, q)
    else:  # r-criterion
        line, witness = bundles.ample_part_is_line(decomposition)
        rep.results["ample_part_is_line"] = line
        rep.results["witness"] = witness
    return rep


def cmd_classify(args):
    if args.sweep:
        if args.Q is not None or args.Qhalf is not None:
            raise UsageError("--sweep classifies every pair: no --Q/--Qhalf")
        rep = Report("classify", inputs={"sweep": True})
        sweep = torus.classification_sweep(torus.build_reference_surface())
        rep.results["pairs"] = [
            {"Qhalf": torus.display_name(row.Qhalf),
             "Q": torus.display_name(row.Q), "singularity": row.closed,
             "rf_pair": list(torus.rf_pair(row.closed)),
             "moduli_type": row.moduli_type} for row in sweep.rows]
        rep.results["verdict_counts"] = sweep.verdict_counts
        rep.results["moduli_rows"] = sweep.moduli_rows
        _sweep_checks(rep, sweep)
        return rep
    rep = Report("classify", inputs={"Q": args.Q, "Qhalf": args.Qhalf})
    rep.results.update(_classified(args, rep))
    return rep


def _arg(name, **kwargs):
    """An argument as its add_argument keywords; a flag's dest spelled out."""
    if name.startswith("--"):
        kwargs.setdefault("dest", name[2:])
    return name, kwargs


# The command line, declared once: per command, its handler's name (so a
# rebound handler is called), help and arguments.
COMMANDS = {
    "appendix": ("cmd_appendix", "run the full reference-surface verification",
                 (_arg("--corrupt", action="store_true", default=False, help=
                       "self-test: corrupt one expected table and fail"),)),
    "example": ("cmd_example", "emit a database record with its checks", (
        _arg("id", choices=EXAMPLE_IDS),
        _arg("--n", type=int, help="family index (family-fn only)"),
        _arg("--Q", help="twist character name or vector (k26-d2)"),
        _arg("--Qhalf", help="square-root character (k26-d2)"))),
    "family-fn": ("cmd_family", "the unbounded-rank family record",
                  (_arg("--n", type=int, default=1),)),
    "slope": ("cmd_slope", "fibration slope", tuple(
        _arg(name, type=int, required=True)
        for name in ("--k2", "--chi", "--gc", "--gf"))),
    "bounds": ("cmd_bounds", "genus bound and isotriviality windows", (
        _arg("--k2", type=int, required=True),
        _arg("--chi", type=int, required=True),
        _arg("--ample", choices=("true", "false")))),
    "intersect": ("cmd_intersect",
                  "kernel-curve or divisor-class intersections", (
        _arg("--pq", action="append", help="kernel curve 'p,q' (give twice)"),
        _arg("--m", type=int, help="modulus for the counting oracle (with "
             "--pq), at most %d" % MAX_ORACLE_MODULUS),
        _arg("--class", dest="cls", action="append",
             help="divisor class coefficients 'a,b,...' (give twice)"),
        _arg("--fixture", help="path to a JSON {basis_labels, gram}; "
             "default: pen6"))),
    "bundle": ("cmd_bundle", "pushforward decomposition queries", (
        _arg("action", choices=("h0", "h1", "jump", "r-criterion")),
        _arg("--spec", help="JSON {g, r, p, torsion[]} inline or path"),
        _arg("--g", type=int, help="fibre genus"),
        _arg("--r", type=int, help="rank of the ample part"),
        _arg("--p", help="determinant point ('0', 'generic[:name]', 'a,b')"),
        _arg("--torsion", action="append",
             help="torsion line-bundle point 'a,b' (repeatable)"),
        _arg("--q", help="twist point for the jump query"))),
    "classify": ("cmd_classify", "origin singularity for a twist pair", (
        _arg("--Q", help="twist character name or vector"),
        _arg("--Qhalf", help="square root character name or vector"),
        _arg("--sweep", action="store_true", default=False,
             help="classify every admissible pair"))),
}

# the flags of every command, and of irrfib before the command
_COMMON = dict((_arg("-h", action="help"), _arg("--help", action="help"),
                _arg("--json", action="store_true")))


def _is_negative_number(token):
    r"""re.match(r"^-\d+$|^-\d*\.\d+$", token) without re: \d is any
    Unicode decimal digit (str.isdecimal), and $ also matches before a final
    newline."""
    if token[:1] != "-":
        return False
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _is_flag(token, table):
    """Whether a token is a flag, not a value: as in argparse, "-", negative
    numbers and tokens with spaces are values, but not -hX or --known=X."""
    if token[:1] != "-" or token == "-":
        return False
    return (token.partition("=")[0] in table or token.startswith("-h")
            or not _is_negative_number(token) and " " not in token)


def parse_argv(argv):
    """Read argv by COMMANDS, left to right: a command's namespace, or the
    help text -h/--help asks for. A malformed argv raises UsageError: a bad
    or missing value at once, an unknown or missing argument at the end."""
    table = dict(_COMMON, command=dict(choices=COMMANDS))
    ns, seen, unknown = {"json": False}, set(), []
    tokens = iter(argv)
    for token in tokens:
        if _is_flag(token, table):
            name, eq, value = token.partition("=")
        else:  # the positional's value, while it is free
            name = next((n for n in table if n[0] != "-" and n not in seen),
                        None)
            eq, value = "=", token
        kw = table.get(name)
        if kw is None:
            unknown.append(token)
            continue
        action, dest = kw.get("action"), kw.get("dest", name)
        if action in ("help", "store_true"):
            if eq:
                raise UsageError("argument %s: takes no value" % name)
            if action == "help":
                return _help(ns.get("command"))
            ns[dest] = True
            continue
        if not eq:
            value = next(tokens, "--")
        if value == "--" or not eq and _is_flag(value, table):
            raise UsageError("argument %s: expected one argument" % name)
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            raise UsageError("argument %s: invalid value: %r" % (name, value))
        choices = kw.get("choices", (value,))
        if value not in choices:
            raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                             % (name, value, ", ".join(map(repr, choices))))
        seen.add(name)
        if name == "command":
            handler, _, arguments = COMMANDS[value]
            table = {**_COMMON, **dict(arguments)}
            ns.update({k.get("dest", n): k.get("default")
                       for n, k in arguments}, handler=globals()[handler])
        ns[dest] = (ns[dest] or []) + [value] if action == "append" else value
    missing = [n for n, kw in table.items()
               if n not in seen and (n[0] != "-" or kw.get("required"))]
    if missing:
        raise UsageError("missing arguments: %s" % ", ".join(missing))
    if unknown:
        raise UsageError("unrecognized arguments: %s" % " ".join(unknown))
    return SimpleNamespace(**ns)


def _help(command):
    """The text of -h: irrfib's commands, or one command's arguments."""
    usage, rows, arguments = command or "COMMAND", [], ()
    if command is None:
        text = ("Exact invariants of polarized abelian surfaces and "
                "irrational fibrations.")
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, text, arguments = COMMANDS[command]
    for name, kw in arguments:  # as --flag, --flag VALUE or {choice,...}
        spelled = ("{%s}" % ",".join(kw["choices"]) if "choices" in kw
                   else kw.get("dest", name).upper())
        if name[0] == "-":
            spelled = (name if kw.get("action") == "store_true"
                       else name + " " + spelled)
        rows.append((spelled, kw.get("help", "")))
        if name[0] != "-" or kw.get("required"):
            usage += " " + spelled
    rows += [("-h, --help", "show this help and exit"),
             ("--json", "emit the report as canonical JSON")]
    lines = ["usage: irrfib %s [options]" % usage, "", text, ""]
    return "\n".join(lines + [("  %-20s %s" % row).rstrip() for row in rows])


def main(argv=None):
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h/--help gives the text to print
            text, status = args, 0
        else:  # encoded once: the text and the status are read off doc
            doc = args.handler(args).to_json()
            text = render(doc, args.json)
            status = 0 if all(c["pass"] for c in doc["checks"]) else 2
    except UsageError as exc:
        text, status = "usage error: %s" % exc, 64
    except (IrrfibError, ValueError) as exc:  # an int too long to print
        text, status = "error: %s: %s" % (type(exc).__name__, exc), 65
    return _write(text, status)


def _write(text, status):
    """Print text, to stdout for status 0 or 2, else to stderr, and return
    the status, or 65 for a stdout that is closed or refuses the text."""
    stream = sys.stdout if status < 64 else sys.stderr
    try:
        if stream is None:  # its descriptor was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text, file=stream, flush=True)
    except OSError as exc:
        if status < 64 and not isinstance(exc, BrokenPipeError):
            return _write("error: OSError: %s" % exc, 65)
    return status


def run():
    """Entry of a command's process: gc.disable(), main(), then gc.freeze().
    A command keeps nearly all it allocates until it ends, so the cyclic
    collections its allocations would trigger free next to nothing, and
    those at shutdown skip a heap the OS frees anyway. main(argv) neither
    disables nor freezes: in a long-lived process cycles would pile up and
    the heap would be pinned. A stream whose flush then fails is pointed
    at devnull, which takes what the flush at exit writes; main(argv)
    leaves a host's streams as it found them."""
    gc.disable()
    status = main()
    gc.freeze()
    for stream in sys.stdout, sys.stderr:
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stream.fileno())
    return status


if __name__ == "__main__":
    sys.exit(run())
