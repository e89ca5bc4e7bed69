import json

import pytest

from irrfib.cli import EXAMPLE_IDS, main


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
    # (Z/m)^4 is enumerated, so the modulus is capped at 64
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
    ]
    for text in bad:
        fixture.write_text(text)
        code, _, err = run(capsys, "intersect", "--fixture", str(fixture),
                           "--class", "1,0", "--class", "0,1")
        assert code == 64, text
        assert "cannot load lattice fixture" in err, text
    # --fixture belongs to intersect alone
    for argv in (("appendix", "--fixture", "nowhere.json"),
                 ("slope", "--k2", "8", "--chi", "1", "--gc", "2", "--gf", "3",
                  "--fixture", "x"),
                 ("--fixture", "pen6", "intersect", "--class", "2,2,2,2,1",
                  "--class", "3,0,2,1,1")):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "irrfib: error:" in err, argv


def test_bundle_cohomology(capsys):
    code, doc, _ = run_json(capsys, "bundle", "h0", "--g", "3", "--r", "1",
                            "--torsion", "1/3,0")
    assert code == 0
    assert doc["results"]["h0"] == 2
    code, doc, _ = run_json(capsys, "bundle", "h1", "--g", "3", "--r", "1",
                            "--torsion", "1/3,0")
    assert doc["results"]["h1"] == 1


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
                 '{"g": 3, "r": 1, "torsion": ["1/3,0"], "p": "1E5,0"}'):
        code, _, err = run(capsys, "bundle", "h0", "--spec", spec)
        assert code == 64, spec
        assert "usage error" in err, spec
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


def test_usage_without_command(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "no-such-command")[0] == 64


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
