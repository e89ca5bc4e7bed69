import ast
import functools
import gc
import importlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from irrfib import cli
from irrfib.bundles import (ample_part_is_line, generic_point,
                            pushforward_decomposition)
from irrfib.cli import (COMMANDS, EXAMPLE_IDS, MAX_FILE_BYTES, UsageError,
                        main, parse_argv)
from irrfib.errors import IrrfibError
from irrfib.intersection import pen6_lattice, serrano_canonical_pen6
from irrfib.report import Check
from test_golden import CASES
from test_record import _run, child_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out) if out else None
    return code, doc, err


def test_appendix_passes(capsys):
    code, doc, _ = run_json(capsys, "appendix")
    assert code == 0
    assert len(doc["checks"]) == 13
    assert all(c["pass"] for c in doc["checks"])
    assert doc["results"]["admissible_pairs"] == 63


def test_appendix_text_mode(capsys):
    code, out, _ = run(capsys, "appendix")
    assert code == 0
    assert "checks: 13/13 passed" in out
    assert "FAIL" not in out


def test_appendix_corrupt_self_test(capsys):
    code, out, _ = run(capsys, "appendix", "--corrupt")
    assert code == 2
    assert "FAIL" in out
    code, doc, _ = run_json(capsys, "appendix", "--corrupt")
    assert code == 2
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "new character table"]


def test_a_failing_library_check_exits_2_in_both_modes(capsys, monkeypatch):
    """The status is read off the encoded report, whichever view prints it."""
    import irrfib.invariants
    record = irrfib.invariants.example_record("pen-1")[0]
    monkeypatch.setattr(irrfib.invariants, "example_record",
                        lambda ex_id: (record, (Check("planted", 1, 2),)))
    code, out, err = run(capsys, "example", "pen-1")
    assert (code, err) == (2, "")
    assert "FAIL planted: expected 1, actual 2" in out
    code, doc, err = run_json(capsys, "example", "pen-1")
    assert (code, err) == (2, "")
    assert {"name": "planted", "expected": 1, "actual": 2,
            "pass": False} in doc["checks"]


def test_a_command_encodes_each_check_once(capsys, monkeypatch):
    """main encodes the report once and reads the text and the status off
    that document: no check is encoded again, nor asked for its verdict."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(self):
            calls[name] += 1
            return fn(self)
        return wrapper

    monkeypatch.setattr(Check, "to_json", counted("to_json", Check.to_json))
    monkeypatch.setattr(Check, "passed",
                        property(counted("passed", Check.passed.fget)))
    for argv in (("appendix", "--json"), ("appendix",)):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert (calls["to_json"], calls["passed"]) == (13, 0), argv


def test_a_broken_K_L_fails_the_two_torsion_kernel_check_too(capsys,
                                                            monkeypatch):
    """The two-torsion kernel's expected points are K(L)'s computed ones, not
    the paper's literal again: K(L) of the doubled form breaks both."""
    import irrfib.polarization
    kernel_K_L = irrfib.polarization.kernel_K_L

    def doubled(f):
        return kernel_K_L(irrfib.polarization.AlternatingForm(
            f.lattice, tuple(tuple(2 * v for v in row) for row in f.matrix)))

    monkeypatch.setattr(irrfib.polarization, "kernel_K_L", doubled)
    code, doc, _ = run_json(capsys, "appendix")
    assert code == 2
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "polarization kernel invariant factors", "polarization kernel points",
        "two-torsion kernel points"]


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "appendix", "--json")
    _, out2, _ = run(capsys, "appendix", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert out1 == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_every_example_id_runs(capsys):
    for ex_id in EXAMPLE_IDS:
        code, doc, err = run_json(capsys, "example", ex_id)
        assert code == 0, (ex_id, err)
        assert all(c["pass"] for c in doc["checks"]), ex_id


def test_example_rejects_unknown_id(capsys):
    code, _, err = run(capsys, "example", "pen-2")
    assert code == 64
    assert "invalid choice" in err


def test_example_classification(capsys):
    code, doc, _ = run_json(capsys, "example", "k26-d2",
                            "--Q", "trivial", "--Qhalf", "chiA1")
    assert code == 0
    cls = doc["results"]["classification"]
    assert cls["singularity"] == "node"
    assert cls["rf_pair"] == [1, 1]
    assert cls["moduli_type"] == "Ib"
    assert cls["Qhalf_name"] == "chiA1"
    assert len(cls["witness_points"]) > 0


def test_example_classification_flag_guard(capsys):
    code, _, err = run(capsys, "example", "pen-1", "--Qhalf", "chiA1")
    assert code == 64
    assert "k26-d2" in err


def test_family_fn(capsys):
    code, doc, _ = run_json(capsys, "family-fn", "--n", "4")
    assert code == 0
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["fibre genus"]["actual"] == 18
    assert by_name["ample part rank"]["actual"] == 17
    assert by_name["ample part is a line bundle"]["actual"] is False
    assert all(c["pass"] for c in doc["checks"])
    code, _, _ = run(capsys, "family-fn", "--n", "0")
    assert code == 64


def test_slope_command(capsys):
    code, doc, _ = run_json(capsys, "slope", "--k2", "8", "--chi", "1",
                            "--gc", "1", "--gf", "3")
    assert code == 0
    assert doc["results"]["slope"] == "8"
    code, doc, _ = run_json(capsys, "slope", "--k2", "7", "--chi", "2",
                            "--gc", "1", "--gf", "3")
    assert doc["results"]["slope"] == "7/2"
    # chi = (gC-1)(gF-1) has no defined slope: domain error
    code, _, err = run(capsys, "slope", "--k2", "6", "--chi", "2",
                       "--gc", "2", "--gf", "3")
    assert code == 65
    assert "UndefinedSlope" in err


def test_bounds_command(capsys):
    code, doc, _ = run_json(capsys, "bounds", "--k2", "6", "--chi", "1",
                            "--ample", "true")
    assert code == 0
    assert doc["results"]["rank_one_genus_bound"] == 4
    assert doc["results"]["isotriviality"] == "not_isotrivial"
    code, doc, _ = run_json(capsys, "bounds", "--k2", "9", "--chi", "1")
    assert doc["results"]["rank_one_genus_bound"] == 5
    code, _, err = run(capsys, "bounds", "--k2", "0", "--chi", "1")
    assert code == 65
    assert "NotApplicable" in err


def test_intersect_kernel_curves(capsys):
    code, doc, _ = run_json(capsys, "intersect", "--pq", "1,2", "--pq", "1,0",
                            "--m", "2")
    assert code == 0
    assert doc["results"]["kernel_dot"] == 4
    assert doc["results"]["oracle_count"] == 4
    assert doc["results"]["degree_vs_product_polarization"] == [5, 1]
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["oracle agreement"]["pass"]


def test_intersect_errors(capsys):
    code, _, err = run(capsys, "intersect", "--pq", "2,4", "--pq", "1,0")
    assert code == 65
    assert "NonPrimitive" in err
    code, _, err = run(capsys, "intersect", "--pq", "1,0", "--pq", "0,1",
                       "--m", "1")
    assert code == 65
    assert "InvalidModulus" in err
    code, _, _ = run(capsys, "intersect", "--pq", "1,0")
    assert code == 64
    code, _, _ = run(capsys, "intersect")
    assert code == 64
    code, _, err = run(capsys, "intersect", "--class", "1,2", "--class", "1")
    assert code == 64
    assert "expected 5 comma-separated integers" in err
    # the oracle's cost grows with m^2, so the modulus is capped at 64
    for m in ("65", "200"):
        code, _, err = run(capsys, "intersect", "--pq", "1,2", "--pq", "1,0",
                           "--m", m)
        assert code == 64
        assert "at most 64" in err


def test_intersect_divisor_classes(capsys):
    code, doc, _ = run_json(capsys, "intersect",
                            "--class", "2,2,2,2,1", "--class", "3,0,2,1,1")
    assert code == 0
    assert doc["results"]["dot"] == 4
    assert doc["results"]["nef_violation"] is None
    code, doc, _ = run_json(capsys, "intersect",
                            "--class=-1,2,0,1,0", "--class", "0,3,1,2,1")
    assert doc["results"]["dot"] == -2
    assert doc["results"]["nef_violation"] == -2


def test_intersect_with_fixture_file(capsys, tmp_path):
    fixture = tmp_path / "lat.json"
    fixture.write_text(json.dumps(
        {"basis_labels": ["a", "b"], "gram": [[0, 1], [1, 0]]}))
    code, doc, _ = run_json(capsys, "intersect", "--fixture", str(fixture),
                            "--class", "1,0", "--class", "0,1")
    assert code == 0
    assert doc["results"]["dot"] == 1
    code, _, err = run(capsys, "intersect", "--fixture",
                       str(tmp_path / "missing.json"),
                       "--class", "1,0", "--class", "0,1")
    assert code == 64
    # only JSON integers in gram, only a list of distinct strings as labels
    bad = [
        '{"basis_labels": ["a", "b"], "gram": [[true, 1], [1, "2"]]}',
        '{"basis_labels": ["a", "b"], "gram": [[1e400, 1], [1, 0]]}',
        '{"basis_labels": ["a", "b"], "gram": [[0.5, 1], [1, 0]]}',
        '{"basis_labels": "ab", "gram": [[0, 1], [1, 0]]}',
        '{"basis_labels": ["a", "a"], "gram": [[0, 1], [1, 0]]}',
        '{"basis_labels": ["a", 2], "gram": [[0, 1], [1, 0]]}',
        '{"basis_labels": ["a", "b", "c"], "gram": [[0, 1, 0], [1, 0, 0]]}',
        '{"basis_labels": ' + "[" * 100_000,  # deeper than json can recurse
    ]
    for text in bad:
        fixture.write_text(text)
        code, _, err = run(capsys, "intersect", "--fixture", str(fixture),
                           "--class", "1,0", "--class", "0,1")
        assert code == 64, text
        assert err.startswith("usage error: cannot load lattice fixture"), text
        assert err.count("\n") == 1, text
    # --fixture belongs to intersect alone
    for argv in (("appendix", "--fixture", "nowhere.json"),
                 ("slope", "--k2", "8", "--chi", "1", "--gc", "2", "--gf", "3",
                  "--fixture", "x"),
                 ("--fixture", "pen6", "intersect", "--class", "2,2,2,2,1",
                  "--class", "3,0,2,1,1")):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "usage error" in err, argv


def test_bundle_cohomology(capsys):
    code, doc, _ = run_json(capsys, "bundle", "h0", "--g", "3", "--r", "1",
                            "--torsion", "1/3,0")
    assert code == 0
    assert doc["results"]["h0"] == 2
    code, doc, _ = run_json(capsys, "bundle", "h1", "--g", "3", "--r", "1",
                            "--torsion", "1/3,0")
    assert doc["results"]["h1"] == 1
    # the least fibre genus: O plus the degree-1 line bundle at p
    code, doc, _ = run_json(capsys, "bundle", "h0", "--g", "2", "--r", "1")
    assert code == 0
    assert doc["results"]["h0"] == 2


def test_bundle_jump(capsys):
    base = ("bundle", "jump", "--g", "3", "--r", "1", "--torsion", "1/3,0")
    code, doc, _ = run_json(capsys, *base, "--q", "0")
    assert code == 0
    assert doc["results"]["jump_h1"] == 2
    code, doc, _ = run_json(capsys, *base, "--q", "2/3,0")
    assert doc["results"]["jump_h1"] == 1
    code, doc, _ = run_json(capsys, *base, "--q", "1/2,0")
    assert doc["results"]["jump_h1"] == 0
    code, _, _ = run(capsys, *base)  # no --q
    assert code == 64


def test_bundle_r_criterion(capsys):
    code, doc, _ = run_json(capsys, "bundle", "r-criterion",
                            "--g", "3", "--r", "1", "--torsion", "1/2,0")
    assert code == 0
    assert doc["results"]["ample_part_is_line"] is True
    assert doc["results"]["witness"]["free"] == [["p", 1]]
    code, doc, _ = run_json(capsys, "bundle", "r-criterion",
                            "--g", "3", "--r", "2")
    assert doc["results"]["ample_part_is_line"] is False


def test_bundle_spec_json(capsys):
    spec = json.dumps({"g": 3, "r": 1, "p": "generic",
                       "torsion": ["1/3,0"]})
    code, doc, _ = run_json(capsys, "bundle", "h0", "--spec", spec)
    assert code == 0
    assert doc["results"]["h0"] == 2


def test_bundle_spec_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"g": 4, "r": 3, "p": "0", "torsion": []}))
    code, doc, _ = run_json(capsys, "bundle", "h0", "--spec", str(path))
    assert code == 0
    # origin determinant: the rank-3 ample part and O both contribute
    assert doc["results"]["h0"] == 2


class _Endless:
    """A file without end, as /dev/zero is, that refuses an unbounded read."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self, size=-1):
        if size < 0:
            raise AssertionError("a read without a bound")
        return b" " * size


@pytest.mark.parametrize("form", ["spec", "fixture"])
def test_spec_and_fixture_files_are_read_to_a_bound(capsys, monkeypatch,
                                                     tmp_path, form):
    path = tmp_path / "input.json"
    if form == "spec":
        text = json.dumps({"g": 3, "r": 1, "torsion": ["1/3,0"]})
        argv = ("bundle", "h0", "--spec", str(path))
    else:
        text = json.dumps({"basis_labels": ["a", "b"],
                           "gram": [[0, 1], [1, 0]]})
        argv = ("intersect", "--fixture", str(path),
                "--class", "1,0", "--class", "0,1")
    # valid JSON padded with spaces: to the bound it is read, past it refused
    path.write_text(text.ljust(MAX_FILE_BYTES))
    assert run(capsys, *argv)[0] == 0
    path.write_text(text.ljust(MAX_FILE_BYTES + 1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert "longer than %d bytes" % MAX_FILE_BYTES in err
    monkeypatch.setattr(cli, "open", lambda *args: _Endless(), raising=False)
    assert run(capsys, *argv)[:2] == (64, "")


def test_bundle_errors(capsys, tmp_path):
    # wrong torsion count for (g, r) = (3, 1) is a domain error
    code, _, err = run(capsys, "bundle", "h0", "--g", "3", "--r", "1")
    assert code == 65
    assert "InvalidShape" in err
    code, _, _ = run(capsys, "bundle", "h0", "--r", "1")
    assert code == 64
    code, _, _ = run(capsys, "bundle", "h0", "--g", "3", "--r", "1",
                     "--torsion", "nonsense")
    assert code == 64
    # a spec is a JSON object whose g and r are JSON integers (not bools)
    # exponent notation is refused wherever a rational is read
    for spec in ('{"g": "x", "r": 1}', '{"g": 3.7, "r": 1}',
                 '{"g": 3, "r": true}', '{"g": 3, "r": "1"}',
                 '{"g": 3, "r": 1, "torsion": 5}',
                 '{"g": 3, "r": 1, "torsion": ["1e5000,0"]}',
                 '{"g": 3, "r": 1, "torsion": ["1/3,0"], "p": "1E5,0"}',
                 '{"g": ' + "[" * 100_000):  # deeper than json can recurse
        code, _, err = run(capsys, "bundle", "h0", "--spec", spec)
        assert code == 64, spec
        assert err.startswith("usage error: ") and err.count("\n") == 1, spec
    # the spec is the whole shape: a key it does not know, or a shape flag
    # beside it, is named in the usage error
    spec = '{"g": 3, "r": 1, "P": "1/2,0", "torsion": ["1/2,1/2"]}'
    code, _, err = run(capsys, "bundle", "h0", "--spec", spec)
    assert (code, err) == (64, "usage error: unknown bundle spec key: 'P'\n")
    spec = '{"g": 3, "r": 1, "torsion": ["1/3,0"]}'
    for flag, value in (("--g", "3"), ("--r", "1"), ("--p", "generic"),
                        ("--torsion", "1/3,0")):
        code, _, err = run(capsys, "bundle", "h0", "--spec", spec, flag, value)
        assert (code, err) == (
            64, "usage error: --spec is the whole shape: no %s\n" % flag)
    # a point is a JSON string: any other value is named, never coerced
    for key, value, message in (
            ("p", 0, "p must be a point string"),
            ("p", None, "p must be a point string"),
            ("p", [1, 2], "p must be a point string"),
            ("torsion", [0], "torsion must be a list of point strings")):
        spec = json.dumps({"g": 3, "r": 1, "torsion": ["1/3,0"], key: value})
        code, _, err = run(capsys, "bundle", "h0", "--spec", spec)
        assert (code, err) == (64, "usage error: %s\n" % message), spec
    path = tmp_path / "spec.json"
    for text in ('[3, 1]', '"g"', '7'):
        path.write_text(text)
        code, _, err = run(capsys, "bundle", "h0", "--spec", str(path))
        assert code == 64, text
        assert "usage error" in err, text
    base = ("bundle", "jump", "--g", "3", "--r", "1")
    for argv in ((*base, "--torsion", "1/3,0", "--q", "1e5000,0"),
                 (*base, "--torsion", "1.5e3,0", "--q", "1/3,0"),
                 (*base, "--torsion", "1/3,0", "--q", "1/3,0", "--p", "1E5,0")):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "usage error" in err, argv


@pytest.mark.parametrize("spec", ["[1]", " []", '[{"g": 3}]'])
def test_an_inline_spec_that_is_an_array_is_read_as_json(capsys, spec):
    """A --spec whose first non-blank character is { or [ is inline JSON,
    never a path, so an array is refused as a spec, not as a missing file."""
    assert run(capsys, "bundle", "h0", "--spec", spec) == (
        64, "", "usage error: a bundle spec is a JSON object\n")


@pytest.mark.parametrize("target, value, call, argv", [
    ("irrfib.bundles.h0_omega_twisted_minus_fibre", lambda *args: 0,
     lambda: ample_part_is_line(
         pushforward_decomposition(2, 1, generic_point("p"), ())),
     # --g 3 --r 1 needs its one torsion summand to get past the shape check
     ("bundle", "r-criterion", "--g", "3", "--r", "1", "--torsion", "1/3,0")),
    ("irrfib.intersection.PEN6_CANONICAL", (2, 2, 2, 2, 2),
     lambda: serrano_canonical_pen6(pen6_lattice()), ("example", "pen-6"))],
    ids=("twisted-canonical-probe", "serrano-identity"))
def test_a_disagreeing_internal_probe_is_a_domain_error(
        capsys, monkeypatch, target, value, call, argv):
    """A second route that disagrees raises IrrfibError itself, and the
    command reports it as exit 65 on one line, with no traceback."""
    monkeypatch.setattr(target, value)
    with pytest.raises(IrrfibError) as raised:
        call()
    assert type(raised.value) is IrrfibError
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err.splitlines() == ["error: IrrfibError: %s" % raised.value]


def test_classify_single(capsys):
    code, doc, _ = run_json(capsys, "classify", "--Qhalf", "chiA1")
    assert code == 0
    assert doc["results"]["singularity"] == "node"
    assert doc["results"]["moduli_type"] == "Ib"
    code, doc, _ = run_json(capsys, "classify", "--Qhalf", "eps1")
    assert doc["results"]["singularity"] == "none"
    assert doc["results"]["rf_pair"] == [2, 2]
    assert doc["results"]["moduli_type"] == "Ia"
    code, doc, _ = run_json(capsys, "classify", "--Qhalf", "0,0,1/4,0")
    assert doc["results"]["singularity"] == "smooth_point"
    assert doc["results"]["moduli_type"] == "II"


def test_classify_errors(capsys):
    code, _, _ = run(capsys, "classify")
    assert code == 64
    code, _, _ = run(capsys, "classify", "--Qhalf", "chiA9")
    assert code == 64
    # a root of a character outside the image: domain error
    code, _, err = run(capsys, "classify", "--Qhalf", "0,1/4,0,0")
    assert code == 65
    assert "InvalidTwist" in err
    # a zero denominator is a usage error, for classify and example alike
    # so is a rational in exponent notation, one with a space next to "/"
    # (which Fraction reads from Python 3.12), and a numerator past int()'s
    # digit limit
    for argv in (("classify", "--Qhalf", "1/0,0,0,0"),
                 ("classify", "--Qhalf", "chiA1", "--Q", "0,0,0,1/0"),
                 ("example", "k26-d2", "--Qhalf", "1/0,0,0,0"),
                 ("classify", "--Qhalf", "1e5000,0,0,0"),
                 ("classify", "--Qhalf", "chiA1", "--Q", "0,0,1E5,0"),
                 ("example", "k26-d2", "--Qhalf", "0,1.5e3,0,0"),
                 ("classify", "--Qhalf", "1 /2,0,0,0"),
                 ("bundle", "h0", "--g", "3", "--r", "1", "--torsion",
                  "1/ 3,0"),
                 ("classify", "--Qhalf", "1" * 4301 + ",0,0,0")):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "usage error" in err, argv
    # underscores (which Fraction reads from Python 3.11) and any Unicode
    # decimal digits are read on every Python
    for text in ("0,1_0/20,0,0", "0,\u0661/\u0662,0,0"):
        code, doc, _ = run_json(capsys, "classify", "--Qhalf", text)
        assert code == 0, text
        assert doc["results"]["Qhalf"] == ["0", "1/2", "0", "0"], text


def test_classify_sweep(capsys):
    code, doc, _ = run_json(capsys, "classify", "--sweep")
    assert code == 0
    assert len(doc["results"]["pairs"]) == 63
    assert doc["results"]["verdict_counts"] == {
        "node": 1, "smooth_point": 12, "none": 50}
    assert all(c["pass"] for c in doc["checks"])


def test_classify_sweep_fails_when_the_routes_disagree(capsys, monkeypatch):
    """A flipped oracle fails the sweep, and the one pair it flips."""
    import irrfib.torus
    oracle = irrfib.torus._oracle

    def flipped(s, Qhalf):
        verdict = oracle(s, Qhalf)
        return "none" if verdict == "node" else verdict

    monkeypatch.setattr(irrfib.torus, "_oracle", flipped)
    for argv in (("classify", "--sweep"), ("classify", "--Qhalf", "chiA1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "FAIL classification routes agree" in out, argv
        assert err == "", argv


def test_usage_without_command(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "no-such-command")[0] == 64
    # "--flag=--" leaves the option without a value
    for argv in (("bounds", "--k2", "7", "--chi=--"),
                 ("slope", "--k2=2", "--chi=--", "--gc", "2", "--gf=0"),
                 ("intersect", "--pq=--", "--pq", "1,0")):
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert "error: argument" in err


def test_failing_derivation_is_a_failed_check(capsys, monkeypatch):
    # invariants reads the derivation from its module when it runs
    import irrfib.intersection
    derived = irrfib.intersection.derive_pen6_pairings()
    derived[("Y1", "Z1")] += 1
    monkeypatch.setattr(irrfib.intersection, "derive_pen6_pairings",
                        lambda: derived)
    code, out, err = run(capsys, "example", "pen-6")
    assert code == 2
    assert "FAIL derived pairing Y1.Z1: expected 1, actual 2" in out
    assert err == ""


# An argv grammar for the fuzz test: every subcommand and flag, each value
# drawn from a pair (valid texts, malformed texts), valid three times in four.
# "9" * 2200 parses, but some results from it are too long for str()
_INTS = (("0", "1", "2", "3", "7", "-1", "-4", "10", "9" * 25, "9" * 2200),
         ("", "x", "1.5", "1/2", "1e3", "--"))
_CHARACTERS = (("trivial", "chiA1", "chiA2*chiA5", "eps3", "chiB1",
                "0,0,1/4,0", "1/2,0,0,0", "0,0,0,0", "1/4,1/4,1/4,1/4",
                "1/12345678901234567890,0,0,0",
                "0,0,98765432109876543210/12345678901234567891,0"),
               ("chiZ9", "1/0,0,0,0", "1e5,0,0,0", "a,b,c,d", "0,0,0", "",
                "1/3,0,0,0", "**"))
_PQ = (("1,0", "0,1", "1,2", "2,1", "3,-2", "-1,4", "1,1", "-1,0", "5,7"),
       ("2,4", "0,0", "1", "1,2,3", "a,b", "", "1.0,2"))
_M = (tuple(str(m) for m in range(2, 65)), ("1", "0", "-3", "65", "x", ""))
_CLASSES = (("2,2,2,2,1", "3,0,2,1,1", "-1,2,0,1,0", "0,3,1,2,1", "1,0",
             "0,1"),
            ("1,2", "a", "1,2,3,4,5,6", ""))
_POINTS = (("0", "generic", "generic:q", "1/2,0", "0,1/2", "1/2,1/2",
            "1/3,1/3", "1/4,0", "0,0", "98765432109876543210/3,0",
            "1/12345678901234567890,"
            "98765432109876543210/12345678901234567891"),
           ("x", "1,2,3", "1/0,0", "1e3,0", ""))
_SPECS = (('{"g": 3, "r": 1, "p": "generic", "torsion": ["1/2,0"]}',
           '{"g": 2, "r": 1}', '{"g": 4, "r": 2, "torsion": ["0,1/2"]}'),
          ('{"g": "x", "r": 1}', '{"g": true, "r": 1}', '[1]', '{',
           '{"g": 2, "r": 1, "torsion": 5}', '{"g": 3, "r": 1, "p": [1]}',
           "nowhere.json"))


def _draw_argv(rng, fixtures):
    def value(texts):
        return rng.choice(texts[rng.random() >= 0.75])

    def option(flag, texts):
        # argparse takes the "-1,4" of "--pq -1,4" for an option, so half
        # the options are spelled "--pq=-1,4"
        text = value(texts)
        return ["%s=%s" % (flag, text)] if rng.random() < 0.5 else [flag, text]

    def maybe(flag, texts, p):
        return option(flag, texts) if rng.random() < p else []

    def repeat(flag, texts, counts):
        return [t for _ in range(rng.choice(counts))
                for t in option(flag, texts)]

    # appendix has one flag and runs the whole battery: a third as often
    command = value((("example", "family-fn", "slope", "bounds", "intersect",
                      "bundle", "classify") * 3 + ("appendix",),
                     ("bogus", "")))
    argv = [command] if command else []
    if command == "appendix":
        argv += ["--corrupt"] if rng.random() < 0.3 else []
    elif command == "example":
        argv.append(value((EXAMPLE_IDS, ("pen-9", ""))))
        argv += maybe("--n", _INTS, 0.3)
        argv += maybe("--Qhalf", _CHARACTERS, 0.3)
        argv += maybe("--Q", _CHARACTERS, 0.2)
    elif command == "family-fn":
        argv += maybe("--n", _INTS, 0.8)
    elif command in ("slope", "bounds"):
        flags = ("--k2", "--chi", "--gc", "--gf")
        for flag in flags[:4 if command == "slope" else 2]:
            argv += maybe(flag, _INTS, 0.95)
        if command == "bounds":
            argv += maybe("--ample", (("true", "false"), ("maybe",)), 0.5)
    elif command == "intersect":
        if rng.random() < 0.6:
            argv += repeat("--pq", _PQ, (1, 2, 2, 2, 2, 3))
            argv += maybe("--m", _M, 0.8)
        else:
            argv += repeat("--class", _CLASSES, (1, 2, 2, 2, 2, 3))
            argv += maybe("--fixture", fixtures, 0.4)
        argv += maybe("--class", _CLASSES, 0.05)
    elif command == "bundle":
        argv.append(value((("h0", "h1", "jump", "r-criterion"), ("h2",))))
        argv += maybe("--spec", _SPECS, 0.3)
        argv += maybe("--g", _INTS, 0.8)
        argv += maybe("--r", _INTS, 0.8)
        argv += maybe("--p", _POINTS, 0.5)
        argv += repeat("--torsion", _POINTS, (0, 0, 1, 2, 3))
        argv += maybe("--q", _POINTS, 0.5)
    elif command == "classify":
        argv += ["--sweep"] if rng.random() < 0.2 else []
        argv += maybe("--Qhalf", _CHARACTERS, 0.8)
        argv += maybe("--Q", _CHARACTERS, 0.4)
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)),
                    rng.choice(("--bogus", "--fixture", "--help", "-", "--")))
    if rng.random() < 0.5:
        argv.insert(rng.randint(0, len(argv)), "--json")
    return argv


def test_fuzzed_argv_keeps_the_exit_contract(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"basis_labels": ["a", "b"], "gram": [[0, 1], [1, 0]]}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"basis_labels": ["a", "a"], "gram": [[0, 1], [1, 0]]}')
    fixtures = (("pen6", str(good)), (str(bad), str(tmp_path / "none.json")))
    rng = random.Random(2014)
    for _ in range(200):
        argv = _draw_argv(rng, fixtures)
        try:
            code, _, err = run(capsys, *argv)
        except Exception as exc:
            pytest.fail("%r raised %r" % (argv, exc))
        assert code in (0, 2, 64, 65), argv
        assert "Traceback" not in err, argv


def test_classify_sweep_refuses_a_twist(capsys):
    for extra in (("--Qhalf", "garbage"), ("--Q", "chiA1"),
                  ("--Qhalf", "chiA1", "--Q", "trivial"), ("--Qhalf", "")):
        code, out, err = run(capsys, "classify", "--sweep", *extra)
        assert code == 64, extra
        assert out == "" and "usage error" in err, extra


@pytest.mark.parametrize("argv", [
    ("example", "pen-1", "--Q", ""), ("example", "pen-1", "--Qhalf", ""),
    ("example", "pen-1", "--Q", "chiA1"), ("example", "k26-d2", "--Qhalf", ""),
    ("example", "k26-d2", "--Q", ""), ("classify", "--Qhalf", ""),
    ("classify", "--Qhalf", "chiA1", "--Q", ""), ("classify", "--Q", "")])
def test_an_empty_or_misplaced_twist_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "") and "usage error" in err


@pytest.mark.parametrize("argv", [
    ("example", "pen-1", "--n", "5"), ("example", "family-fn", "--Q", "chiA1"),
    ("intersect", "--class", "2,2,2,2,1", "--class", "3,0,2,1,1", "--m", "7"),
    ("intersect", "--pq", "1,2", "--pq", "1,0", "--fixture", "x.json"),
    ("bundle", "h0", "--g", "3", "--r", "1", "--torsion", "1/3,0",
     "--q", "1/2,0")])
def test_a_flag_that_does_not_apply_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "") and "usage error" in err


_LONG = "9" * 2200  # its square and beyond exceed str()'s 4300 digits


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length")
@pytest.mark.parametrize("argv", [
    ("family-fn", "--n", _LONG), ("example", "family-fn", "--n", _LONG),
    ("slope", "--k2", "1", "--chi", "1", "--gc", _LONG, "--gf", _LONG),
    ("intersect", "--pq", "1," + _LONG, "--pq", _LONG + ",1"),
    ("intersect", "--class", "1,0,0,0," + _LONG,
     "--class", "0,0,0,0," + _LONG)], ids=lambda argv: " ".join(argv[:2]))
def test_a_result_too_long_to_print_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1


# --- the command table: the one parser against argparse ------------------

SRC = Path(__file__).resolve().parent.parent / "src"
TEXT_GOLDEN = Path(__file__).parent / "golden" / "cli-help-and-errors.json"

# the command forms of the README's "Command line" section
README_FORMS = (
    ("appendix",), ("appendix", "--corrupt"), ("example", "pen-1"),
    ("family-fn", "--n", "4"),
    ("slope", "--k2", "8", "--chi", "1", "--gc", "1", "--gf", "3"),
    ("bounds", "--k2", "6", "--chi", "1", "--ample", "true"),
    ("intersect", "--pq", "1,2", "--pq", "1,0", "--m", "2"),
    ("intersect", "--class", "2,2,2,2,1", "--class", "3,0,2,1,1"),
    ("bundle", "h0", "--g", "3", "--r", "1", "--torsion", "1/3,0"),
    ("bundle", "jump", "--g", "3", "--r", "1", "--torsion", "1/3,0",
     "--q", "2/3,0"),
    ("bundle", "r-criterion", "--g", "3", "--r", "2"),
    ("bundle", "h0", "--spec",
     '{"g": 3, "r": 1, "p": "generic", "torsion": ["1/3,0"]}'),
    ("classify", "--Qhalf", "chiA1"), ("classify", "--sweep"),
    ("classify", "--Qhalf", "chiA1", "--json"),
    ("slope", "--k2", "7", "--chi", "2", "--gc", "1", "--gf", "3", "--json"),
)


@functools.lru_cache(maxsize=None)
def _reference():
    """argparse, built from COMMANDS without abbreviations: the grammar
    parse_argv keeps. Help exits 0 and an error 64, both without text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            pass

        def error(self, message):
            self.exit(64)

        def _get_values(self, action, arg_strings):
            # "--chi=--" gives --chi no value, as the table reads it: argparse
            # before 3.13 strips the "--" and hands over an empty list, and
            # 3.13 takes "--" for the value
            if action.option_strings and arg_strings == ["--"]:
                self.error("expected one argument")
            return super()._get_values(action, arg_strings)

    parser = Parser(prog="irrfib", allow_abbrev=False)
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, _, arguments) in COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.set_defaults(handler=getattr(cli, handler))
    return parser


def _answer(argv):
    """parse_argv's answer: the namespace, or the exit code of -h (0) or of
    a usage error (64)."""
    try:
        args = parse_argv(argv)
    except UsageError:
        return 64
    return 0 if isinstance(args, str) else vars(args)


def _agrees(argv):
    """Whether parse_argv accepts argv; either way, it answers as argparse."""
    try:
        expected = vars(_reference().parse_args(argv))
    except SystemExit as exc:
        expected = exc.code
    assert _answer(argv) == expected, argv
    return isinstance(expected, dict)


def _differs_on_purpose(argv):
    """Whether argv holds what parse_argv refuses and argparse may read: a
    bare "--" (the end of flags), or -h run together with more ("-hh",
    "-h=x"), which argparse reads differently from one Python to the next.
    parse_argv must not accept such an argv."""
    if any(t == "--" or t.startswith("-h") and t != "-h" for t in argv):
        assert not isinstance(_answer(argv), dict), argv
        return True
    return False


def test_exact_parser_reads_every_documented_form():
    forms = [*README_FORMS, *(CASES[name] + ("--json",) for name in CASES)]
    for argv in forms:
        assert _agrees(list(argv)), argv
        assert _agrees(["--json", *argv]), argv


SLOPE = ("slope", "--k2", "8", "--chi", "1", "--gc", "1", "--gf", "3")


# Forms the table parser once passed on to argparse: help, errors, a
# negative number as a value, a repeated flag. Each now gets argparse's
# answer from parse_argv, but for the bare "--" and "-h x", which are refused.
@pytest.mark.parametrize("argv", [
    ("slope", "--k2", "-1", "--chi", "1", "--gc", "1", "--gf", "3"),
    ("intersect", "--pq=--", "--pq", "1,0"),
    ("bounds", "--k2", "7", "--chi=--"),
    (*SLOPE, "--"), ("--", *SLOPE), ("-", *SLOPE), (*SLOPE, "-h"),
    ("--help",), ("-h", "appendix"), ("classify", "--Qh", "chiA1"),
    ("family-fn", "--n", "2", "--n", "3"), ("appendix", "--corrupt=1"),
    ("--json=1", "appendix"), ("appendix", "--json=1"),
    SLOPE[:-2], ("slope", "--k2", "x", *SLOPE[3:]),
    ("bounds", "--k2", "1", "--chi", "1", "--ample", "maybe"),
    ("example",), ("example", "pen-2"), ("example", "pen-1", "pen-4"),
    ("appendix", "pen-1"), (), ("--json",), ("no-such-command",),
    ("--fixture", "pen6", "intersect", "--class", "1,0", "--class", "0,1"),
    ("classify", "--Qhalf", "-h x"),
])
def test_exact_parser_leaves_the_rest_to_argparse(argv):
    if not _differs_on_purpose(list(argv)):
        _agrees(list(argv))


@pytest.mark.parametrize("argv", [
    ("intersect", "--pq=-1,4", "--pq", "1,0"),
    ("intersect", "--pq=-3,4", "--pq=2,-3", "--m=-1"),
    ("intersect", "--class=-1,2,0,0,0", "--class", "0,1,0,0,0"),
    ("slope", "--k2=-1", "--chi", "1", "--gc", "1", "--gf=-2"),
    ("classify", "--Qhalf=-h"), ("bundle", "h0", "--g", "3", "--r=1", "--p=-"),
])
def test_exact_parser_reads_a_dash_value_after_equals(argv):
    # anything after "=" is the value, "-..." included
    assert _agrees(list(argv))


@pytest.mark.parametrize("argv", [
    ("classify", "--Qhalf", "-1", "--Q", "-2.5"),
    ("classify", "--Qhalf", "-x y", "--Q", "-.5"),
    ("slope", "--k2", "-7", "--chi", "-1", "--gc", "-0", "--gf", "3"),
])
def test_a_negative_number_or_a_spaced_token_is_a_value(argv):
    assert _agrees(list(argv))


@pytest.mark.parametrize("argv", [
    ("classify", "--Qh", "chiA1"), ("example", "--", "pen-1"),
    ("example", "pen-1", "--"), ("--js", "appendix")])
def test_abbreviations_and_a_bare_double_dash_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "") and err.startswith("usage error: ")


def test_exact_parser_matches_argparse_on_the_fuzz_corpus():
    fixtures = (("pen6", "good.json"), ("bad.json", "none.json"))
    rng = random.Random(2014)
    corpus = [_draw_argv(rng, fixtures) for _ in range(2500)]
    accepted = sum(_agrees(argv) for argv in corpus
                   if not _differs_on_purpose(argv))
    # a third of the corpus is well formed; far fewer would mean the parser
    # refuses forms it should read
    assert accepted > 600


def test_help_and_error_text_matches_its_golden(capsys):
    for case in json.loads(TEXT_GOLDEN.read_text())["cases"]:
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (
            case["code"], case["stdout"], case["stderr"]), case["argv"]


# A block-buffered stdout fails at the flush, an unbuffered one in print
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_keeps_the_exit_status(unbuffered):
    env = child_env(PYTHONUNBUFFERED=unbuffered)
    for argv, status in ((("example", "pen-5"), 0), (("appendix",), 0),
                         (("appendix", "--corrupt"), 2), (("-h",), 0)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "irrfib.cli", *argv], env=env,
                stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (status, b""), argv


# A stdout that is full or closed cannot take the text: exit 65 and one error
# line. A stderr that is full loses the error line and keeps the status; the
# status is then the witness, as a traceback would exit 1 and a failed flush
# at exit 120.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv, redirect, status", [
    (("appendix", "--json"), ">/dev/full", 65), (("-h",), ">/dev/full", 65),
    (("slope", "--k2", "x"), "2>/dev/full", 64),
    (("slope", "--k2", "8", "--chi", "2", "--gc", "2", "--gf", "3"),
     "2>/dev/full", 65),
    (SLOPE, ">&-", 65)])
def test_a_failed_write_keeps_the_exit_contract(unbuffered, argv, redirect,
                                                status):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" ' + redirect, "sh",
         sys.executable, "-m", "irrfib.cli", *argv],
        env=child_env(PYTHONUNBUFFERED=unbuffered), capture_output=True,
        timeout=120)
    assert (proc.returncode, proc.stdout) == (status, b"")
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr
    if redirect[0] == ">":  # stderr is ours to read
        assert proc.stderr.startswith(b"error: OSError: ")
        assert proc.stderr.count(b"\n") == 1


def test_a_failed_write_in_process_leaves_the_stream_to_its_host(
        monkeypatch, capsys):
    """main in a long-lived process: each stdout that refuses the report
    ends in status 65, and its descriptor still reads the file the host
    opened, so the host's own flush at close fails as it would have."""
    if not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")):
        pytest.skip("this system has no /dev/full or /proc/self/fd")
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        full = open("/dev/full", "w")
        monkeypatch.setattr(sys, "stdout", full)
        assert cli.main(list(SLOPE)) == 65
        assert os.readlink("/proc/self/fd/%d" % full.fileno()) == "/dev/full"
        assert len(os.listdir("/proc/self/fd")) == before + 1
        with pytest.raises(OSError):
            full.close()
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("error: OSError: ") == 5


# one argv for each exit status of the contract
STATUS_ARGV = {
    0: ("bounds", "--k2", "4", "--chi", "1"),
    2: ("appendix", "--corrupt"),
    64: ("example", "nope"),
    65: ("slope", "--k2", "8", "--chi", "2", "--gc", "2", "--gf", "3"),
}


@pytest.mark.parametrize("status", sorted(STATUS_ARGV))
def test_run_is_main_then_one_freeze(capsys, monkeypatch, status):
    # recorders stand in for gc.disable and gc.freeze: this process keeps
    # its collector on and is never frozen
    calls, main = [], cli.main
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main",
                        lambda: calls.append("main") or main())
    monkeypatch.setattr(sys, "argv", ["irrfib", *STATUS_ARGV[status]])
    assert cli.run() == status
    assert calls == ["disable", "main", "freeze"]
    printed = capsys.readouterr()
    assert run(capsys, *STATUS_ARGV[status]) == (status, *printed)


def test_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    for argv in STATUS_ARGV.values():
        main(list(argv))
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_a_command_runs_no_cyclic_collection():
    """Inside run(), with the collector off, a command's allocations
    trigger no collection; the hook counts from after the import."""
    code = ("import gc, io, sys, irrfib.cli; starts = []; "
            "gc.callbacks.append(lambda phase, info: starts.append(phase)); "
            "sys.argv = ['irrfib', 'appendix', '--json']; "
            "out, sys.stdout = sys.stdout, io.StringIO(); "
            "status = irrfib.cli.run(); sys.stdout = out; "
            "print(status, starts.count('start'))")
    assert _run(code) == "0 0\n"


def test_the_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(SRC.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"irrfib": "irrfib.cli:run"}


@pytest.mark.parametrize("status", sorted(STATUS_ARGV))
def test_a_process_prints_what_main_prints(capsys, tmp_path, status):
    # to a file, stdout is block-buffered
    with open(tmp_path / "out", "wb") as handle:
        proc = subprocess.run(
            [sys.executable, "-m", "irrfib.cli", *STATUS_ARGV[status]],
            env=child_env(), stdout=handle, stderr=subprocess.PIPE,
            timeout=120)
    code, out, err = run(capsys, *STATUS_ARGV[status])
    assert code == status
    assert (proc.returncode, (tmp_path / "out").read_bytes(), proc.stderr) \
        == (code, out.encode(), err.encode())


def test_atexit_hooks_run_after_the_entry(tmp_path):
    code = ("import atexit, runpy, sys; atexit.register(print, 'atexit ran'); "
            "sys.argv = ['irrfib', *%r]; "
            "runpy.run_module('irrfib.cli', run_name='__main__')"
            % (STATUS_ARGV[0],))
    with open(tmp_path / "out", "wb") as handle:
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              stdout=handle, stderr=subprocess.PIPE,
                              timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "out").read_text().endswith("\natexit ran\n")


def test_a_profiler_still_prints_its_stats():
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "irrfib.cli",
         *STATUS_ARGV[0]], env=child_env(), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert "function calls" in proc.stdout.decode()
    assert "Ordered by" in proc.stdout.decode()


def test_well_formed_commands_import_no_argparse():
    # nor does help or a malformed argv: irrfib has one parser, its own
    names = "{'argparse', 'gettext', 'locale'}"
    assert _run("import irrfib.cli, sys; print(sorted(%s & set(sys.modules)))"
                % names) == "[]\n"
    for argv in (["appendix", "--json"], ["classify", "--sweep"], [*SLOPE],
                 ["-h"], ["slope", "-h"], ["example", "nope"], ["--bogus"],
                 []):
        out = _run("import irrfib.cli, sys; sys.stderr = sys.stdout; "
                   "irrfib.cli.main(%r); "
                   "print(sorted(%s & set(sys.modules)))" % (argv, names))
        assert out.endswith("\n[]\n"), argv


# One argv per command form, then the malformed argv of the benchmark's
# queries stream that hold a rational, a zero denominator and an undefined
# slope: each with its exit status.
EVERY_COMMAND_FORM = (
    (("appendix", "--json"), 0),
    (("classify", "--sweep"), 0),
    (("intersect", "--pq=1,2", "--pq=3,-4", "--m", "50"), 0),
    (("intersect", "--class", "1,0,0,0,0", "--class", "0,1,0,0,0"), 0),
    (("bounds", "--k2", "6", "--chi", "1", "--ample", "true"), 0),
    (SLOPE, 0),
    (("slope", "--k2", "7", "--chi", "2", "--gc", "1", "--gf", "3"), 0),
    (("family-fn", "--n", "4"), 0),
    (("example", "pen-5"), 0),
    (("example", "family-fn", "--n", "2"), 0),
    (("example", "k26-d2", "--Qhalf", "chiA1"), 0),
    (("bundle", "h0", "--g", "3", "--r", "2", "--p", "generic"), 0),
    (("bundle", "h1", "--g", "4", "--r", "1", "--p", "1/2,1/3",
      "--torsion", "1/3,0", "--torsion", "0.5,-1/4"), 0),
    (("bundle", "jump", "--g", "3", "--r", "1", "--p", "generic:p",
      "--torsion", "1/3,0", "--q", "2/3,0"), 0),
    (("bundle", "r-criterion", "--spec",
      '{"g": 3, "r": 1, "p": "1/2,0", "torsion": ["1/3,0"]}'), 0),
    (("classify", "--Qhalf", "1/2,1/2,3/4,0"), 0),
    (("classify", "--Qhalf", "1/2,1/2,3/4,0", "--Q", "0,0,1/2,0"), 0),
    (("classify", "--Qhalf", "1/2,0,0"), 64),
    (("classify", "--Qhalf", "0,0,0,1/2", "--Q", "chiA1"), 65),
    (("bundle", "jump", "--g", "3", "--r", "1", "--torsion", "1/3,0"), 64),
    (("classify", "--Qhalf", "1/0,0,0,0"), 64),
    (STATUS_ARGV[65], 65),
)


def test_no_command_imports_fractions():
    """fractions costs ~3 ms and ~0.5 MB per process through decimal and
    numbers, and it imports re and enum: a command parses, keeps and prints
    its rationals on ints. json, with re and enum behind it, costs ~2.5 ms
    even where site has loaded re, and loads only to read a --spec."""
    names = "{'fractions', 'decimal', 'numbers', 'json', 're', 'enum'}"
    assert _run("import irrfib.cli, sys; print(sorted(%s & set(sys.modules)))"
                % names) == "[]\n"
    for argv, status in EVERY_COMMAND_FORM:
        out = _run("import irrfib.cli, sys; sys.stderr = sys.stdout; "
                   "print(irrfib.cli.main(%r), *sorted(%s & set(sys.modules)))"
                   % (list(argv), names))
        code, *loaded = out.splitlines()[-1].split()
        assert int(code) == status, argv
        if "--spec" in argv:  # json and what it imports, no more
            assert "json" in loaded and set(loaded) <= {"json", "re", "enum"}
        else:
            assert loaded == [], argv


def test_json_loads_only_to_read_spec_or_fixture(tmp_path):
    # a --json report is written without json
    out = _run("import irrfib.cli, sys; irrfib.cli.main(%r); "
               "print('json' in sys.modules)" % [*SLOPE, "--json"])
    assert out.endswith("\nFalse\n")
    # JSON input still parses, and JSON nested deeper than json can recurse
    # is still a usage error, inline and in a file
    spec = '{"g": 3, "r": 1, "torsion": ["1/3,0"]}'
    deep = '{"g": ' + "[" * 100_000
    (tmp_path / "spec.json").write_text(spec)
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "lat.json").write_text(
        '{"basis_labels": ["a", "b"], "gram": [[0, 1], [1, 0]]}')
    for argv, status in (
            (["bundle", "h0", "--spec", spec], 0),
            (["bundle", "h0", "--spec", str(tmp_path / "spec.json")], 0),
            (["intersect", "--fixture", str(tmp_path / "lat.json"),
              "--class", "1,0", "--class", "0,1"], 0),
            (["bundle", "h0", "--spec", str(tmp_path / "deep.json")], 64),
            (["bundle", "h0", "--spec", None], 64)):
        # None stands for the deep inline spec, read from stdin
        out = _run("import irrfib.cli, sys; sys.stderr = sys.stdout; "
                   "print(irrfib.cli.main([sys.stdin.read() if a is None "
                   "else a for a in %r]))" % argv, data=deep.encode())
        assert out.endswith("\n%d\n" % status), argv
        assert ("usage error: cannot load" in out) == (status == 64), argv


# The irrfib modules whose bodies a command runs: what it computes with,
# and what those modules import. Every command runs the first four, and
# invariants reaches bundles and intersection only through the records
# that compute with them: the family, pen-5's slope-4 splitting (bundles)
# and pen-6's lattice (intersection).
_BASE = {"cli", "errors", "record", "report"}
_INTERSECTION = _BASE | {"intersection"}
_BUNDLES = _BASE | {"bundles", "lattice", "linalg"}
_INVARIANTS = _BASE | {"invariants", "lattice", "linalg"}
_FAMILY = _INVARIANTS | {"bundles", "intersection"}
_TORUS = _BASE | {"characters", "lattice", "linalg", "polarization", "torus"}
MODULES_RUN = {"appendix": _TORUS, "classify": _TORUS,
               "intersect": _INTERSECTION, "bundle": _BUNDLES,
               "bounds": _INVARIANTS, "slope": _INVARIANTS,
               "family-fn": _FAMILY, "example": _INVARIANTS,
               "example family-fn": _FAMILY,
               "example pen-5": _INVARIANTS | {"bundles"},
               "example pen-6": _INVARIANTS | {"intersection"}}


def test_each_command_runs_only_the_modules_it_computes_with():
    # a registered module whose body has not run is still of LazyLoader's
    # module class; `example k26-d2 --Qhalf` also classifies on the torus
    examples = [(("example", ex_id), 0) for ex_id in EXAMPLE_IDS]
    for argv, status in (*EVERY_COMMAND_FORM, *examples, (("--bogus",), 64)):
        out = _run("import irrfib.cli, sys; sys.stderr = sys.stdout; "
                   "code = irrfib.cli.main(%r); print(code, *sorted("
                   "n[7:] for n, m in sys.modules.items() "
                   "if n.startswith('irrfib.') and type(m) is type(sys)))"
                   % (list(argv),))
        code, *ran = out.splitlines()[-1].split()
        assert int(code) == status, argv
        expected = MODULES_RUN.get(" ".join(argv[:2]),
                                   MODULES_RUN.get(argv[0], _BASE))
        if "--Qhalf" in argv:
            expected = expected | _TORUS
        assert set(ran) == expected, argv


def test_importing_the_cli_loads_every_module_of_the_package():
    """The traced benchmark imports irrfib.cli and then looks each layer's
    module up in sys.modules: every module of the package is registered
    there (its body runs on first use), or every traced request would
    crash."""
    out = _run("import irrfib.cli, pkgutil, sys; names = [m.name for m in "
               "pkgutil.iter_modules(irrfib.__path__, 'irrfib.')]; "
               "print(len(names), [n for n in names if n not in sys.modules])")
    count, missing = out.split(" ", 1)
    assert int(count) >= 12 and missing == "[]\n"


# --- what other files expect of the library ------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _traced_entry_points():
    """(module, name) of every entry point perfbench/tracer.py wraps, read
    from its source with ast: importing it would load argparse and json."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    entries = []
    for layer in values["LAYERS"].elts:
        module, names, _ = layer.elts
        if isinstance(names, ast.Name):  # a tuple named at module level
            names = values[names.id]
        entries += [(ast.literal_eval(module), name)
                    for name in ast.literal_eval(names)]
    return entries


# what the tracer wraps and the library no longer has: build_parser went
# with argparse, the pointwise routes to tests/pointwise.py, the two
# checked classification routes into torus.classify_pair, and the 2-torsion
# kernel and image to torus, which reads them off the surface's grid
GONE_ENTRY_POINTS = [("irrfib.cli", "build_parser"),
                     ("irrfib.torus", "classify_origin_singularity_oracle"),
                     ("irrfib.torus", "translation_points_for_twist"),
                     ("irrfib.torus", "classify_origin_singularity"),
                     ("irrfib.polarization", "phi_L_on_point"),
                     ("irrfib.polarization", "phi_two_torsion_data"),
                     ("irrfib.lattice", "torsion_subgroup"),
                     ("irrfib.invariants", "isotrivial_examples"),
                     ("irrfib.invariants", "nonisotrivial_examples")]


def test_the_tracer_wraps_only_entry_points_the_library_has():
    """A traced run only warns about an entry point that is gone, so the
    traced benchmark gate cannot catch one: the gone ones are listed."""
    entries = _traced_entry_points()
    missing = [(module, name) for module, name in entries
               if getattr(importlib.import_module(module), name, None) is None]
    assert missing == GONE_ENTRY_POINTS


def test_the_tracer_finds_every_entry_point_after_importing_the_cli():
    """The tracer reads each entry point as getattr(sys.modules[module],
    name) right after `import irrfib.cli`, in a fresh process; the first
    getattr on a registered module runs its body."""
    entries = [entry for entry in _traced_entry_points()
               if entry not in GONE_ENTRY_POINTS]
    out = _run("import irrfib.cli, sys; print([(m, n) for m, n in %r "
               "if getattr(sys.modules[m], n, None) is None])" % entries)
    assert out == "[]\n"


def test_the_appendix_builds_each_phi_L_grid_once():
    """appendix reads phi_L on 2- and 4-torsion off the surface's tables:
    in a fresh process, each grid is built once, through either alias."""
    out = _run("""if True:
        import contextlib, io, irrfib.cli
        import irrfib.polarization as p, irrfib.torus as t
        grid, built = p.phi_L_grid, []
        assert t.phi_L_grid is grid
        def counted(f, n):
            built.append(n)
            return grid(f, n)
        p.phi_L_grid = t.phi_L_grid = counted
        with contextlib.redirect_stdout(io.StringIO()):
            code = irrfib.cli.main(["appendix", "--json"])
        print(code, built)""")
    assert out == "0 [2, 4]\n"


# the public names of the package, its submodules but `cli`: what
# dir(irrfib) lists after `import irrfib`, and `from irrfib import *` binds
PUBLIC_NAMES = """
    bundles characters errors intersection invariants lattice linalg
    polarization record report torus
""".split()


def test_the_package_lists_and_binds_its_public_names():
    # each name resolves to a module, or to the object its module defines
    out = _run("""if True:
        import irrfib, sys
        print(*[n for n in dir(irrfib) if n[0] != "_"])
        names = {}
        exec("from irrfib import *", names)
        print(*sorted(n for n in names if n[0] != "_"))
        print(*[n for n, v in names.items() if n[0] != "_"
                and not isinstance(v, type(sys))
                and getattr(sys.modules[v.__module__], n, None) is not v])
        """)
    listed, bound, strays = out.split("\n")[:3]
    assert listed.split() == bound.split() == PUBLIC_NAMES
    assert strays == ""


def test_the_package_binds_its_modules_without_running_them():
    """A name lives only in its module: the star import binds the lazy
    submodules, and neither it nor dir() runs one."""
    out = _run("""if True:
        import sys
        from irrfib import *
        import irrfib
        dir(irrfib)
        print(*sorted(n[7:] for n, m in sys.modules.items()
                      if n.startswith("irrfib.") and type(m) is not type(sys)))
        try:
            irrfib.classify_pair
        except AttributeError:
            print("AttributeError")
        """)
    assert out.splitlines() == [" ".join(PUBLIC_NAMES), "AttributeError"]


def test_the_readme_library_block_runs_as_its_comments_say():
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    stated = [line.split("#", 1) for line in block.splitlines()
              if "#" in line and "=" not in line.split("#", 1)[0]]
    for code, comment in stated:
        assert comment.strip().startswith(repr(eval(code, namespace))), code
    assert [comment.strip() for _, comment in stated] == [
        "PolarizationType(d1=1, d2=2)", "4", "('node', 'node', 'Ib')",
        "'node'", "{'none': 50, 'smooth_point': 12, 'node': 1}",
        "[] when the two routes agree"]
