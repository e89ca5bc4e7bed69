"""Check-carrying reports with a canonical JSON encoding.

encode (from record.py, re-exported here) writes rationals as "p/q" strings,
so that reports are exact and byte-stable: encoding the same report twice
gives identical output.
"""

import json

from .record import Record, encode


class Check(Record):
    name: str
    expected: object
    actual: object

    @property
    def passed(self):
        return encode(self.expected) == encode(self.actual)

    def to_json(self):
        return {**super().to_json(), "pass": self.passed}


class Report:
    def __init__(self, command, inputs=None):
        self.command, self.inputs = command, {} if inputs is None else inputs
        self.results, self.checks = {}, []

    def check(self, name, expected, actual):
        self.checks.append(Check(name, expected, actual))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return encode(vars(self))


def _dumps(value):
    return json.dumps(encode(value), sort_keys=True)


def render(report, as_json):
    if as_json:
        return json.dumps(report.to_json(), sort_keys=True, indent=2)
    lines = ["command: %s" % report.command]
    for key in sorted(report.inputs):
        lines.append("input %s = %s" % (key, _dumps(report.inputs[key])))
    for key in sorted(report.results):
        lines.append("%s = %s" % (key, _dumps(report.results[key])))
    for c in report.checks:
        if c.passed:
            lines.append("ok   %s (%s)" % (c.name, _dumps(c.actual)))
        else:
            lines.append("FAIL %s: expected %s, actual %s"
                         % (c.name, _dumps(c.expected), _dumps(c.actual)))
    if report.checks:
        n_ok = sum(1 for c in report.checks if c.passed)
        lines.append("checks: %d/%d passed" % (n_ok, len(report.checks)))
    return "\n".join(lines)
