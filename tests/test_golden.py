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
    "classify-Qhalf-vector": ("classify", "--Qhalf", "1/2,1/2,3/4,0"),
    "slope-integral": ("slope", "--k2", "8", "--chi", "1", "--gc", "1",
                       "--gf", "3"),
    "slope-7-2": ("slope", "--k2", "7", "--chi", "2", "--gc", "1",
                  "--gf", "3"),
    "bundle-h0-rational": ("bundle", "h0", "--g", "5", "--r", "1",
                           "--p", "1/2,1/3", "--torsion", "5/6,1/6",
                           "--torsion", "0,3/4", "--torsion", "1/3,0"),
    "bundle-h1-generic": ("bundle", "h1", "--g", "4", "--r", "2",
                          "--p", "generic:p", "--torsion", "2/3,1/4"),
    "bundle-jump-rational": ("bundle", "jump", "--g", "4", "--r", "1",
                             "--p", "3/2,-1/4", "--torsion", "1/3,1/3",
                             "--torsion", "0,1/2", "--q", "2/3,2/3"),
    "bundle-r-criterion-spec": (
        "bundle", "r-criterion", "--spec", '{"g": 4, "r": 1, "p": "1/2,1/4", '
        '"torsion": ["1/3,0", "0,1/2"]}'),
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
