import json
import sys
from fractions import Fraction

import pytest

from irrfib.intersection import KernelCurve
from irrfib.lattice import Rational
from irrfib.report import Check, Report, canonical_json, encode, render


def test_encode_scalars_and_containers():
    assert encode(Rational(1, 2)) == "1/2"
    assert encode(Rational(4)) == "4"
    assert encode(3) == 3
    assert encode(None) is None
    assert encode(True) is True
    assert encode({"a": (Rational(1, 3),)}) == {"a": ["1/3"]}
    assert encode({1, 2, 3}) == [1, 2, 3]
    assert encode(KernelCurve(1, 2)) == [1, 2]
    with pytest.raises(TypeError):
        encode(object())
    # a rational of the library is a Rational: a Fraction has no JSON form
    with pytest.raises(TypeError):
        encode(Fraction(1, 2))


def test_check_compares_encoded_values():
    assert Check("x", Rational(1, 2), Rational(2, 4)).passed
    assert Check("x", (1, 2), [1, 2]).passed
    assert not Check("x", 1, 2).passed
    # a Rational and the equal int encode differently on purpose
    assert not Check("x", Rational(4), 4).passed


def test_report_pass_fail_and_render():
    rep = Report("demo", inputs={"n": 1})
    assert rep.to_json()["checks"] == []  # passes vacuously
    rep.results["value"] = Rational(1, 2)
    rep.check("good", 4, 4)
    doc = rep.to_json()
    assert [c["pass"] for c in doc["checks"]] == [True]
    text = render(doc, as_json=False)
    assert text.splitlines() == ["command: demo", "input n = 1",
                                 'value = "1/2"', "ok   good (4)",
                                 "checks: 1/1 passed"]
    rep.check("bad", 4, 5)
    doc = rep.to_json()
    assert [c["pass"] for c in doc["checks"]] == [True, False]
    text = render(doc, as_json=False)
    assert "FAIL bad: expected 4, actual 5" in text
    assert "checks: 1/2 passed" in text


def test_report_json_round_trip():
    rep = Report("demo", inputs={"n": Rational(3, 2)})
    rep.results["curve"] = KernelCurve(2, 1)
    rep.check("name", [1], [1])
    out = render(rep.to_json(), as_json=True)
    doc = json.loads(out)
    assert doc == rep.to_json()
    assert doc["command"] == "demo"
    assert doc["inputs"]["n"] == "3/2"
    assert doc["results"]["curve"] == [2, 1]
    assert doc["checks"] == [
        {"name": "name", "expected": [1], "actual": [1], "pass": True}]
    assert out == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length")
def test_canonical_json_refuses_an_int_too_long_to_print():
    # past 4,300 digits, as json does: a command that renders one exits 65
    for value in (10 ** 4300, [1, {"n": -10 ** 4300}]):
        for indent in (None, 2):
            with pytest.raises(ValueError):
                json.dumps(value, indent=indent)
            with pytest.raises(ValueError):
                canonical_json(value, indent)
    assert canonical_json(10 ** 4299) == str(10 ** 4299)


def test_canonical_json_refuses_what_encode_never_returns():
    # encode writes sets and records as lists and dicts, and no report
    # holds a float: canonical_json has no text for any of them
    for value in (0.5, {1, 2}, KernelCurve(2, 1), [1, {"x": 0.5}]):
        for indent in (None, 2):
            with pytest.raises(TypeError):
                canonical_json(value, indent)
