import functools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrfib import cli
from irrfib.bundles import (ample_part_is_line, generic_point,
                            pushforward_decomposition)
from irrfib.cli import (COMMANDS, EXAMPLE_IDS, MAX_FILE_BYTES, UsageError,
                        main, parse_argv)
from irrfib.errors import IrrfibError
from irrfib.intersection import pen6_lattice, serrano_canonical_pen6
from test_golden import CASES
from test_record import _run


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
    # so is a rational in exponent notation
    for argv in (("classify", "--Qhalf", "1/0,0,0,0"),
                 ("classify", "--Qhalf", "chiA1", "--Q", "0,0,0,1/0"),
                 ("example", "k26-d2", "--Qhalf", "1/0,0,0,0"),
                 ("classify", "--Qhalf", "1e5000,0,0,0"),
                 ("classify", "--Qhalf", "chiA1", "--Q", "0,0,1E5,0"),
                 ("example", "k26-d2", "--Qhalf", "0,1.5e3,0,0")):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "usage error" in err, argv


def test_classify_sweep(capsys):
    code, doc, _ = run_json(capsys, "classify", "--sweep")
    assert code == 0
    assert len(doc["results"]["pairs"]) == 63
    assert doc["results"]["verdict_counts"] == {
        "node": 1, "smooth_point": 12, "none": 50}
    assert all(c["pass"] for c in doc["checks"])


def test_classify_sweep_fails_when_the_routes_disagree(capsys, monkeypatch):
    import irrfib.torus
    oracle = irrfib.torus.classify_origin_singularity_oracle

    def flipped(s, Q, Qhalf):
        verdict = oracle(s, Q, Qhalf)
        return "none" if verdict == "node" else verdict

    monkeypatch.setattr(irrfib.torus, "classify_origin_singularity_oracle",
                        flipped)
    code, out, err = run(capsys, "classify", "--sweep")
    assert code == 2
    assert "FAIL classification routes agree" in out
    assert err == ""


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
    import irrfib.invariants
    derived = irrfib.invariants.derive_pen6_pairings()
    derived[("Y1", "Z1")] += 1
    monkeypatch.setattr(irrfib.invariants, "derive_pen6_pairings",
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
                "0,0,1/4,0", "1/2,0,0,0", "0,0,0,0", "1/4,1/4,1/4,1/4"),
               ("chiZ9", "1/0,0,0,0", "1e5,0,0,0", "a,b,c,d", "0,0,0", "",
                "1/3,0,0,0", "**"))
_PQ = (("1,0", "0,1", "1,2", "2,1", "3,-2", "-1,4", "1,1", "-1,0", "5,7"),
       ("2,4", "0,0", "1", "1,2,3", "a,b", "", "1.0,2"))
_M = (tuple(str(m) for m in range(2, 65)), ("1", "0", "-3", "65", "x", ""))
_CLASSES = (("2,2,2,2,1", "3,0,2,1,1", "-1,2,0,1,0", "0,3,1,2,1", "1,0",
             "0,1"),
            ("1,2", "a", "1,2,3,4,5,6", ""))
_POINTS = (("0", "generic", "generic:q", "1/2,0", "0,1/2", "1/2,1/2",
            "1/3,1/3", "1/4,0", "0,0"),
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


_VALUES = ("0", "1", "7", "10", " 3", "+2", "1_0", "x", "", "1,2", "1/2,0",
           "chiA1", "eps3", "true", "false", "maybe", "generic", "a=b",
           "h0", "jump", "pen-1", "k26-d2", "-1", "-1,4", "--", "-", "-h",
           "--json=1", "--Qh", "-x y", "-2.5")


def _occurrence(data, name, action, value):
    """One flag's tokens: one in ten in any form, else in a form it takes."""
    forms = ("flag",) if action == "store_true" else ("flag=", "flag value")
    if data.draw(st.integers(0, 9)) == 0:
        forms = ("flag", "flag=", "flag value")
    form = data.draw(st.sampled_from(forms))
    if form == "flag":
        return [name]
    if form == "flag=":
        return ["%s=%s" % (name, data.draw(value))]
    return [name, data.draw(value)]


# argparse's test for a token that is a negative number, not a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@given(st.one_of(st.text(st.sampled_from("-.019\n \u0663\u00b2\u2155e"),
                         max_size=8), st.text(max_size=6)))
@settings(max_examples=500, deadline=None)
@example("-\u0663")   # an Arabic-Indic digit is a decimal digit
@example("-5\n")      # $ matches before a final newline
@example("-5\n\n")
@example("-1.")
@example("-.5")
@example("-1.5.2")
@example("-1e3")
@example("-\u00b2")   # a superscript two is a digit, but not a decimal one
def test_negative_number_test_matches_argparse_pattern(token):
    assert cli._is_negative_number(token) \
        == bool(_NEGATIVE_NUMBER.match(token))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exact_parser_matches_argparse_on_the_table_grammar(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    value = st.one_of(st.sampled_from(_VALUES), st.text(max_size=4))
    groups, bare = [], []
    for name, kwargs in COMMANDS[command][2]:
        action = kwargs.get("action")
        if not name.startswith("-"):
            # the positional: mostly a choice, sometimes wrong or missing
            bare = data.draw(st.sampled_from(
                [[c] for c in kwargs["choices"]] + [["x"], []]))
            continue
        count = data.draw(st.integers(0, 3 if action == "append" else 1))
        if kwargs.get("required") and data.draw(st.booleans()):
            count = max(count, 1)
        groups += [_occurrence(data, name, action, value)
                   for _ in range(count)]
    groups = data.draw(st.permutations(groups))
    argv = [command] + [token for group in groups for token in group]
    for token in bare:  # the positional goes anywhere after the command
        argv.insert(data.draw(st.integers(1, len(argv))), token)
    for _ in range(data.draw(st.integers(0, 2))):
        argv.insert(data.draw(st.integers(0, len(argv))), "--json")
    if data.draw(st.integers(0, 9)) == 0:
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(value))
    if not _differs_on_purpose(argv):
        _agrees(argv)


def test_help_and_error_text_matches_its_golden(capsys):
    for case in json.loads(TEXT_GOLDEN.read_text())["cases"]:
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (
            case["code"], case["stdout"], case["stderr"]), case["argv"]


# A block-buffered stdout fails at the flush, an unbuffered one in print
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_keeps_the_exit_status(unbuffered):
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               PYTHONUNBUFFERED=unbuffered)
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


def test_verify_and_oracle_commands_import_no_fractions():
    # fractions costs ~3 ms and ~0.6 MB per process through decimal; these
    # commands print only integers and grid coordinates. json, with re and
    # enum behind it, costs ~2.5 ms even where site has loaded re, and they
    # read no JSON
    names = "{'fractions', 'decimal', 'json', 're', 'enum'}"
    assert _run("import irrfib.cli, sys; print(sorted(%s & set(sys.modules)))"
                % names) == "[]\n"
    for argv in (["appendix", "--json"], ["classify", "--sweep"],
                 ["intersect", "--pq=1,2", "--pq=3,-4", "--m", "50"]):
        out = _run("import irrfib.cli, sys; irrfib.cli.main(%r); "
                   "print(sorted(%s & set(sys.modules)))" % (argv, names))
        assert out.endswith("\n[]\n"), argv


def test_json_loads_only_to_read_spec_or_fixture(tmp_path):
    # slope's value is a Fraction, and fractions itself imports re and enum
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


def test_importing_the_cli_loads_every_module_of_the_package():
    """The traced benchmark imports irrfib.cli and then looks each layer's
    module up in sys.modules: a module loaded later would crash every traced
    request."""
    out = _run("import irrfib.cli, pkgutil, sys; names = [m.name for m in "
               "pkgutil.iter_modules(irrfib.__path__, 'irrfib.')]; "
               "print(len(names), [n for n in names if n not in sys.modules])")
    count, missing = out.split(" ", 1)
    assert int(count) >= 12 and missing == "[]\n"
