"""Golden-output gate: each reference command's stdout, byte for byte.

The files under tests/golden/ are the exact stdout of `irrfib <argv> --json`
(NAME.json) and of `irrfib <argv>` (NAME.txt). A deliberate change to one of
them needs a CHANGES.md entry saying why.
"""

from pathlib import Path

import pytest

from irrfib.cli import EXAMPLE_IDS, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "appendix": ("appendix",),
    "classify-sweep": ("classify", "--sweep"),
    "classify-Qhalf-chiA1": ("classify", "--Qhalf", "chiA1"),
    "classify-Qhalf-eps1": ("classify", "--Qhalf", "eps1"),
    "family-fn-n3": ("family-fn", "--n", "3"),
}
CASES.update({"example-%s" % ex_id: ("example", ex_id)
              for ex_id in EXAMPLE_IDS})

MODES = {"json": ("--json",), "txt": ()}


@pytest.mark.parametrize("name, mode", [
    pytest.param(name, mode, id=name if mode == "json" else "%s-%s" % (name, mode))
    for name in sorted(CASES) for mode in MODES])
def test_json_body_matches_golden(name, mode, capsys):
    assert main([*CASES[name], *MODES[mode]]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / ("%s.%s" % (name, mode))).read_bytes()
