"""Check-carrying reports with a canonical JSON encoding.

encode (from record.py, re-exported here) writes rationals as "p/q" strings,
so that reports are exact and byte-stable: encoding the same report twice
gives identical output. canonical_json writes the encoded value as text,
byte for byte as json.dumps(value, sort_keys=True[, indent=2]) would, without
importing json: with re and enum behind it, json cost ~2.5 ms of every
command, and only --spec and --fixture read JSON.
"""

from .record import Record, encode

# json's ensure_ascii escapes of the ASCII characters that need one
_ESCAPES = {code: "\\u%04x" % code for code in (*range(32), 127)}
_ESCAPES.update(zip(map(ord, '"\\\b\f\n\r\t'),
                    ('\\"', "\\\\", "\\b", "\\f", "\\n", "\\r", "\\t")))


def _escape_code(code):
    """A character beyond ASCII as json escapes it: astral ones as a
    UTF-16 surrogate pair."""
    if code < 0x10000:
        return "\\u%04x" % code
    code -= 0x10000
    return "\\u%04x\\u%04x" % (0xd800 | code >> 10, 0xdc00 | code & 0x3ff)


def _quote(text):
    # printable ASCII with no quote or backslash in it needs no escape
    if not (text.isascii() and text.isprintable()) or '"' in text \
            or "\\" in text:
        text = text.translate(_ESCAPES)
        if not text.isascii():
            text = "".join(c if c.isascii() else _escape_code(ord(c))
                           for c in text)
    return '"' + text + '"'


def canonical_json(value, indent=None):
    """value as json.dumps(value, sort_keys=True, indent=indent) writes it.

    value is what encode returns: None, bools, ints, strs, and lists, tuples
    and dicts with str keys. Ints print with int.__repr__, so one longer
    than the interpreter's digit limit raises ValueError, as in json.
    """
    if indent is None:
        return _text(value, ", ", "", "")
    return _text(value, ",", "\n", " " * indent)


def _text(value, comma, newline, step):
    # newline is "" on one line, else "\n" and the indent of value's line
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + step
        return "{%s%s%s}" % (inner, (comma + inner).join([
            _quote(key) + ": " + _text(item, comma, inner, step)
            for key, item in sorted(value.items())]), newline)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + step
        return "[%s%s%s]" % (inner, (comma + inner).join([
            _text(item, comma, inner, step) for item in value]), newline)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("cannot write %r as JSON" % type(value))


class Check(Record):
    name: str
    expected: object
    actual: object

    @property
    def passed(self):
        return self.to_json()["pass"]

    def to_json(self):
        doc = super().to_json()
        doc["pass"] = doc["expected"] == doc["actual"]
        return doc


class Report:
    def __init__(self, command, inputs=None):
        self.command, self.inputs = command, {} if inputs is None else inputs
        self.results, self.checks = {}, []

    def check(self, name, expected, actual):
        self.checks.append(Check(name, expected, actual))

    def to_json(self):
        return encode(vars(self))


def render(doc, as_json):
    """The text of doc, a report as Report.to_json() encodes it: the
    document itself with --json, else one line per input, result and check."""
    if as_json:
        return canonical_json(doc, indent=2)
    lines = ["command: %s" % doc["command"]]
    lines += ["input %s = %s" % (key, canonical_json(value))
              for key, value in sorted(doc["inputs"].items())]
    lines += ["%s = %s" % (key, canonical_json(value))
              for key, value in sorted(doc["results"].items())]
    checks = doc["checks"]
    for c in checks:
        name, actual = c["name"], canonical_json(c["actual"])
        if c["pass"]:
            lines.append("ok   %s (%s)" % (name, actual))
        else:
            lines.append("FAIL %s: expected %s, actual %s"
                         % (name, canonical_json(c["expected"]), actual))
    if checks:
        n_ok = sum(c["pass"] for c in checks)
        lines.append("checks: %d/%d passed" % (n_ok, len(checks)))
    return "\n".join(lines)
