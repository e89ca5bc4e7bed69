"""Every cross-check runs as code, not as `assert`, so `python -O` keeps it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"


def test_no_assert_statements_in_the_library():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((SRC / "irrfib").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)]
    assert found == []


# One fresh process per golden: in process, every case shares one fibre
# table, so a cache that leaked between commands would not show there.
@pytest.mark.parametrize("golden", sorted(CASES))
def test_optimized_run_reports_the_same_checks(golden):
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "irrfib.cli", *CASES[golden], "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / ("%s.json" % golden)).read_text()
