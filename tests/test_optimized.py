"""Every cross-check runs as code, not as `assert`, so `python -O` keeps it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"


def test_no_assert_statements_in_the_library():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((SRC / "irrfib").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("argv, golden", [
    (("example", "pen-6"), "example-pen-6"),
    (("appendix",), "appendix"),
])
def test_optimized_run_reports_the_same_checks(argv, golden):
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "irrfib.cli", *argv, "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / ("%s.json" % golden)).read_text()
