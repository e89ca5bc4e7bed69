import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrfib.intersection import KernelCurve
from irrfib.report import Check, Report, canonical_json, encode, render


def test_encode_scalars_and_containers():
    assert encode(Fraction(1, 2)) == "1/2"
    assert encode(Fraction(4)) == "4"
    assert encode(3) == 3
    assert encode(None) is None
    assert encode(True) is True
    assert encode({"a": (Fraction(1, 3),)}) == {"a": ["1/3"]}
    assert encode({1, 2, 3}) == [1, 2, 3]
    assert encode(KernelCurve(1, 2)) == [1, 2]
    with pytest.raises(TypeError):
        encode(object())


def test_check_compares_encoded_values():
    assert Check("x", Fraction(1, 2), Fraction(2, 4)).passed
    assert Check("x", (1, 2), [1, 2]).passed
    assert not Check("x", 1, 2).passed
    # a Fraction and the equal int encode differently on purpose
    assert not Check("x", Fraction(4), 4).passed


def test_report_pass_fail_and_render():
    rep = Report("demo", inputs={"n": 1})
    assert rep.passed  # vacuous
    rep.results["value"] = Fraction(1, 2)
    rep.check("good", 4, 4)
    assert rep.passed
    text = render(rep, as_json=False)
    assert "command: demo" in text
    assert "ok   good (4)" in text
    assert "checks: 1/1 passed" in text
    rep.check("bad", 4, 5)
    assert not rep.passed
    text = render(rep, as_json=False)
    assert "FAIL bad: expected 4, actual 5" in text
    assert "checks: 1/2 passed" in text


def test_report_json_round_trip():
    rep = Report("demo", inputs={"n": Fraction(3, 2)})
    rep.results["curve"] = KernelCurve(2, 1)
    rep.check("name", [1], [1])
    out = render(rep, as_json=True)
    doc = json.loads(out)
    assert doc["command"] == "demo"
    assert doc["inputs"]["n"] == "3/2"
    assert doc["results"]["curve"] == [2, 1]
    assert doc["checks"] == [
        {"name": "name", "expected": [1], "actual": [1], "pass": True}]
    assert out == json.dumps(doc, sort_keys=True, indent=2)


# the characters json escapes: quote, backslash, the control characters and
# DEL, and with ensure_ascii all beyond ASCII, such as U+2028 and an astral
# character (written as a surrogate pair); lone surrogates are text too
SPECIAL_TEXT = ('"', "\\", *map(chr, range(32)), "\x7f", "\u2028",
                "\U0001f600", "\ud83d", "\ude00", "\xe9", "/")
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL_TEXT), st.characters()))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 4000, 10 ** 4000), TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4)), max_leaves=20)


@given(VALUES)
@settings(max_examples=150, deadline=None)
@example({"": [], "a": {}, "b": ((), [[]]), "\U0001f600": None})
@example("".join(SPECIAL_TEXT))
def test_canonical_json_is_json_dumps(value):
    """Byte for byte json.dumps(value, sort_keys=True), on one line and with
    indent=2, on everything encode can return."""
    assert canonical_json(value) == json.dumps(value, sort_keys=True)
    assert canonical_json(value, indent=2) == json.dumps(
        value, sort_keys=True, indent=2)


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
