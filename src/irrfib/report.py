"""Check-carrying reports with a canonical JSON encoding.

Rationals are serialized as "p/q" strings so that reports are exact and
byte-stable: encoding the same report twice gives identical output.
"""

import json
from fractions import Fraction

from .record import Record, field


def encode(value):
    """Recursively convert to plain JSON types, rationals as strings."""
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((encode(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if hasattr(value, "to_json"):
        return encode(value.to_json())
    raise TypeError("cannot encode %r" % type(value))


class Check(Record):
    name: str
    expected: object
    actual: object

    @property
    def passed(self):
        return encode(self.expected) == encode(self.actual)

    def to_json(self):
        return {"name": self.name, "expected": encode(self.expected),
                "actual": encode(self.actual), "pass": self.passed}


class Report(Record, frozen=False):
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def check(self, name, expected, actual):
        self.checks.append(Check(name, expected, actual))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {"command": self.command, "inputs": encode(self.inputs),
                "results": encode(self.results),
                "checks": [c.to_json() for c in self.checks]}


def render(report, as_json):
    if as_json:
        return json.dumps(report.to_json(), sort_keys=True, indent=2)
    lines = ["command: %s" % report.command]
    for key in sorted(report.inputs):
        lines.append("input %s = %s" % (key, json.dumps(encode(report.inputs[key]), sort_keys=True)))
    for key in sorted(report.results):
        lines.append("%s = %s" % (key, json.dumps(encode(report.results[key]), sort_keys=True)))
    for c in report.checks:
        if c.passed:
            lines.append("ok   %s (%s)" % (c.name, json.dumps(encode(c.actual), sort_keys=True)))
        else:
            lines.append("FAIL %s: expected %s, actual %s"
                         % (c.name, json.dumps(encode(c.expected), sort_keys=True),
                            json.dumps(encode(c.actual), sort_keys=True)))
    if report.checks:
        n_ok = sum(1 for c in report.checks if c.passed)
        lines.append("checks: %d/%d passed" % (n_ok, len(report.checks)))
    return "\n".join(lines)
