"""Property tests of the CLI's exact parser: argparse's negative-number
test, and parse_argv against the argparse reference on argv drawn from the
command table.

The module is skipped when hypothesis is not installed, so the rest of the
CLI's tests run without it.
"""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrfib import cli
from irrfib.cli import COMMANDS
from test_cli import _agrees, _differs_on_purpose


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
