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


def _defined_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_no_unused_imports_in_the_library():
    """A name a module imports is read somewhere in that module, and a
    private name a module defines at its top level is read somewhere in the
    library: what a deletion leaves behind is found here. __init__.py
    imports to export."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "irrfib").glob("*.py"))}
    reads = {name: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
                   | {n.attr for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute)}
             for name, tree in trees.items()}
    found = [
        "%s:%d %s" % (name, node.lineno, imported)
        for name, tree in trees.items() if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for imported in [(alias.asname or alias.name).partition(".")[0]]
        if imported not in reads[name]]
    read_anywhere = set().union(*reads.values())
    found += [
        "%s:%d %s" % (name, node.lineno, defined)
        for name, tree in trees.items() for node in tree.body
        for defined in _defined_names(node)
        if defined.startswith("_") and not defined.endswith("__")
        and defined not in read_anywhere]
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


# The torsion layer's sets and dicts are keyed by records whose hash mixes
# in the lattice's string labels, so their iteration order changes with the
# hash seed; no report may show it.
@pytest.mark.parametrize("seed", ["0", "4242"])
@pytest.mark.parametrize("golden", ["appendix", "classify-sweep"])
def test_output_does_not_depend_on_the_hash_seed(golden, seed):
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, "-m", "irrfib.cli", *CASES[golden], "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / ("%s.json" % golden)).read_text()
