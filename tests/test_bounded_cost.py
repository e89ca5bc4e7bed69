"""Bounded cost: no flag value makes a command run for minutes.

Each probe runs the command line in a child process that first caps its own
CPU time with resource.setrlimit(RLIMIT_CPU, ...), so only the child is
limited: a probe whose cost is unbounded is killed at the cap, and fails on
its exit status, instead of holding up the suite. Every probe must end with
its stated exit code and no traceback. The bounds these probes hold are
cli.MAX_ORACLE_MODULUS (the kernel oracle tests at most 64^2 cells), the
closed-form arithmetic of family-fn, bundle, slope and bounds in their
integer flags, the fixed 4-torsion of the classification, and the 1 MiB
read bound on a --spec or --fixture file. Below the read bound, a spec's
cost is linear in its points: an in-process test counts the records the
command builds, compares and hashes, and the bytes it writes, with no
timing.
"""

import json
import subprocess
import sys
from collections import Counter

import pytest

from irrfib.cli import main
from irrfib.record import Record
from test_record import child_env

pytest.importorskip("resource")  # RLIMIT_CPU is POSIX only

# CPU seconds a probe may use: start-up and import take about 0.1 s
CPU_SECONDS = 5
BIG = "12345678901234567890"
BIGGER = "98765432109876543210"
PQ = ("intersect", "--pq", "1,2", "--pq", "3,-4", "--m")

PROBES = [
    (("family-fn", "--n", "1000000000"), 0),
    (("bundle", "h0", "--g", "1000000000", "--r", "999999999"), 0),
    (("slope", "--k2", BIG, "--chi", BIGGER, "--gc", BIG, "--gf", BIGGER), 0),
    (("bounds", "--k2", BIG, "--chi", BIGGER), 0),
    (("bounds", "--k2", BIG, "--chi", BIGGER, "--ample", "true"), 0),
    ((*PQ, "64"), 0),
    ((*PQ, "65"), 64),
    ((*PQ, "1000000"), 64),
    (("classify", "--Qhalf", "1/%s,0,0,0" % BIG), 65),
]

# the child caps itself, then runs the CLI as `python -m irrfib.cli` does
CHILD = ("import resource, runpy; "
         "resource.setrlimit(resource.RLIMIT_CPU, (%d, %d)); "
         "runpy.run_module('irrfib.cli', run_name='__main__', alter_sys=True)"
         % (CPU_SECONDS, CPU_SECONDS))


def _assert_ends_with(argv, status):
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=20 * CPU_SECONDS)
    out = proc.stdout + proc.stderr
    assert b"Traceback" not in out, out.decode()[-2000:]
    # a probe killed at its CPU cap ends with minus the signal's number
    assert proc.returncode == status, out.decode()[-2000:]


@pytest.mark.parametrize("argv, status", PROBES,
                         ids=[" ".join(argv)[:40] for argv, _ in PROBES])
def test_a_probe_ends_in_bounded_time_with_its_exit_code(argv, status):
    _assert_ends_with(argv, status)


MIB = 1 << 20  # the read bound on a --spec or --fixture file


def _torsion_points(count):
    """count distinct nontrivial torsion point texts, up to 16 bytes each."""
    return ["%d/997,%d/991" % divmod(i, 991) for i in range(1, count + 1)]


def _torsion_spec(count):
    """A bundle spec of count distinct torsion points, up to 18 bytes each.
    It has g - r - 1 = 2, so once read it is refused with exit 65, after
    every point in it is parsed."""
    points = ", ".join(map(json.dumps, _torsion_points(count)))
    return '{"g": 4, "r": 1, "p": "1/2,1/4", "torsion": [%s]}' % points


def _identity_fixture(rank):
    """A lattice fixture with the identity gram: 3 bytes an entry."""
    return json.dumps({"basis_labels": ["e%d" % i for i in range(rank)],
                       "gram": [[int(i == j) for j in range(rank)]
                                for i in range(rank)]})


# name: (file builder, its argument, the argv before the file's path, status)
FILE_PROBES = {
    # a spec just under the bound: its cost is the parse of every point
    "1 MiB spec": (_torsion_spec, 59168, ("bundle", "h0", "--spec"), 65),
    # past the bound, a file is refused unread, whatever it holds
    "3 MB spec": (_torsion_spec, 170000, ("bundle", "h0", "--spec"), 64),
    "3 MB fixture": (_identity_fixture, 1000, (
        "intersect", "--class", ",".join("1" * 1000),
        "--class", "1" + ",0" * 999, "--fixture"), 64),
}


@pytest.mark.parametrize("name", FILE_PROBES)
def test_a_file_probe_ends_in_bounded_time_with_its_exit_code(name,
                                                              tmp_path):
    build, arg, argv, status = FILE_PROBES[name]
    text = build(arg)
    assert (len(text) <= MIB) == (status == 65)
    path = tmp_path / "input.json"
    path.write_text(text)
    _assert_ends_with((*argv, str(path)), status)


def test_the_spec_path_grows_linearly_in_its_points(monkeypatch, capsys):
    """Twice the torsion points cost at most about twice the work: record
    constructions, equality tests and hashes, and output bytes. A check of
    the points' distinctness by list scans would make the equality tests
    grow with the square of the count."""
    calls = Counter()

    def counted(name, method):
        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return call

    names = ("__init__", "__eq__", "__hash__")
    for name in names:
        monkeypatch.setattr(Record, name, counted(name, getattr(Record, name)))
    work = []
    for count in (1000, 2000):
        spec = json.dumps({"g": count + 2, "r": 1, "p": "0",
                           "torsion": _torsion_points(count)})
        calls.clear()
        assert main(["bundle", "r-criterion", "--spec", spec, "--json"]) == 0
        out = capsys.readouterr().out
        work.append({"bytes": len(out.encode()),
                     **{name: calls[name] for name in names}})
    small, large = work
    for key in small:
        assert large[key] <= 2.05 * small[key], (key, small, large)
