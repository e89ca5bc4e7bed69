"""Every cross-check runs as code, not as `assert`, so `python -O` keeps it."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_golden import CASES
from test_record import child_env

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"


def test_no_assert_statements_in_the_library():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((SRC / "irrfib").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_of_the_library_imports_fractions():
    """A torsion value is held only as int numerators, and a rational as a
    Rational: no module imports fractions, at its top or inside a function,
    nor names it to import it or look it up in sys.modules."""
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((SRC / "irrfib").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(
            alias.name.partition(".")[0] == "fractions"
            for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "fractions"
        or isinstance(node, ast.Constant) and node.value == "fractions"]
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


def _exported(tree):
    """The names a module lists in its __all__."""
    return {elt.value for node in tree.body
            if "__all__" in _defined_names(node) for elt in node.value.elts}


def test_no_unused_imports_in_the_library():
    """A name a module imports is read as a name in that module, not only
    as some object's attribute, or listed in its __all__; and a private
    name a module defines at its top level is read somewhere in the
    library: what a deletion leaves behind is found here."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "irrfib").glob("*.py"))}
    names = {name: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)} | _exported(tree)
             for name, tree in trees.items()}
    found = [
        "%s:%d %s" % (name, node.lineno, imported)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for imported in [(alias.asname or alias.name).partition(".")[0]]
        if imported not in names[name]]
    read_anywhere = set().union(*names.values(), *(
        {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for tree in trees.values()))
    found += [
        "%s:%d %s" % (name, node.lineno, defined)
        for name, tree in trees.items() for node in tree.body
        for defined in _defined_names(node)
        if defined.startswith("_") and not defined.endswith("__")
        and defined not in read_anywhere]
    assert found == []


# The public functions, methods and properties that no library code reads,
# each kept for its reason; any other is a path that lost its last caller.
UNREAD_PUBLIC = {
    "characters.Character.pm_vector": "acceptance criterion 3 reads it",
    "bundles.twist": "ROADMAP item 11 gives it its library caller",
    "report.Check.passed": "the verdict of the checks that example_record "
                           "and unbounded_family return",
    "lattice.TorsionPoint.is_origin": "the tests' test of a torsion point; "
                                      "the library asks it of EllipticPoint",
    "lattice.FiniteAbelianGroup.order": "the README's Library block reads "
                                        "|K(L)| = 4 off it",
}

# A read of a name that two definitions carry cannot tell which one it
# reaches: each public function, method or property whose name another
# definition of the library carries names here the library function that
# reads it, checked by hand, or UNREAD_PUBLIC lists it.
SHARED_NAME_READERS = {
    "bundles.EllipticPoint.scale": "bundles.EllipticPoint.__neg__",
    "bundles.EllipticPoint.is_origin": "bundles.h0",
    "bundles.EllipticPoint.order": "bundles.pushforward_decomposition",
    "bundles.BundleDecomposition.rank":
        "invariants.FibrationRecord.__post_init__",
    "intersection.IntersectionLattice.rank":
        "intersection.DivisorClass.__post_init__",
    "lattice.OnGrid.order": "lattice.FiniteAbelianGroup.__post_init__",
    "lattice.OnGrid.scale": "bundles.EllipticPoint.scale",
    "report.Report.to_json": "cli.main",
    **dict.fromkeys((
        "bundles.EllipticPoint.to_json", "intersection.DivisorClass.to_json",
        "intersection.KernelCurve.to_json",
        "invariants.ExampleSurface.to_json", "lattice.Rational.to_json",
        "lattice.TorsionPoint.to_json",
        "polarization.PolarizationType.to_json", "record.Record.to_json",
        "report.Check.to_json"), "record.encode"),
}


def _definitions(node, prefix):
    """(qualified name, statement) of each name a module body defines, and
    each one that the body of its classes, nested classes too, defines."""
    for child in node.body:
        for name in _defined_names(child):
            yield "%s.%s" % (prefix, name), child
        if isinstance(child, ast.ClassDef):
            yield from _definitions(child, "%s.%s" % (prefix, child.name))


def _reads(node, local=frozenset()):
    """(name, node) of each read under node: a name that is no local of an
    enclosing function, an attribute, or a string."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
        local = local | {p.arg for p in params if p} | {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in local:
        yield node.id, node
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, node
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, node
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, local)


def test_every_public_name_is_read_in_the_library():
    """A public function, method or property is read somewhere in the
    library outside its own body, as a name, an attribute or a string (a
    COMMANDS handler name), or UNREAD_PUBLIC lists it with its reason. One
    whose name another definition carries is read where SHARED_NAME_READERS
    says: that function exists and reads the name."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SRC / "irrfib").glob("*.py"))}
    readers = {}  # name -> the ids of the nodes that read it
    for tree in trees.values():
        for name, node in _reads(tree):
            readers.setdefault(name, set()).add(id(node))
    defs = dict(pair for module, tree in trees.items()
                for pair in _definitions(tree, module))
    carriers = Counter(qualname.rpartition(".")[2] for qualname in defs)
    public = {qualname: node for qualname, node in defs.items()
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    unread = [
        qualname for qualname, node in public.items()
        if qualname not in SHARED_NAME_READERS and (
            carriers[node.name] > 1
            or readers.get(node.name, set()) <= set(map(id, ast.walk(node))))]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)
    stale = [
        qualname for qualname, reader in SHARED_NAME_READERS.items()
        if qualname not in public or reader == qualname or reader not in defs
        or carriers[public[qualname].name] == 1
        or public[qualname].name not in {n for n, _ in _reads(defs[reader])}]
    assert stale == []


# the methods that change a list, dict or set in place
_MUTATORS = frozenset(("add", "append", "clear", "discard", "extend",
                       "insert", "pop", "popitem", "remove", "setdefault",
                       "update"))


def _module_level_writes(tree):
    """(line, name) of each write by a function to a module-level name: a
    store or deletion through its subscript, a call of one of its mutating
    methods, or a `global` statement that lets the function rebind it."""
    top = {name for node in tree.body for name in _defined_names(node)}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        shared = top - {node.arg for node in ast.walk(func.args)
                        if isinstance(node, ast.arg)} - {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Load)}
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield from ((node.lineno, name) for name in node.names)
                continue
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx,
                                                                  ast.Load):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                yield node.lineno, target.id


def test_the_library_keeps_no_module_level_cache():
    """No function of the library writes to a module-level name: what it
    derives is returned, or kept on the record it derives it for, so
    nothing outlives the values it was computed from."""
    found = sorted({
        "%s:%d %s" % (path.name, line, name)
        for path in sorted((SRC / "irrfib").glob("*.py"))
        for line, name in _module_level_writes(ast.parse(path.read_text()))})
    assert found == []


def _is_state(node):
    """`<x>.__dict__` or `vars(<x>)`: an object's own attribute dict."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def _state_writes_after_construction(tree):
    """(line, Class.method) of each write to an object's state by a method
    other than __init__ or __post_init__, nested functions included: a
    store or deletion through a subscript of its dict, a call of the dict's
    update or setdefault, or a call of setattr or __setattr__."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, ast.FunctionDef) or func.name in (
                    "__init__", "__post_init__"):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Subscript)
                        and not isinstance(node.ctx, ast.Load)
                        and _is_state(node.value)
                        or isinstance(node, ast.Call) and (
                            isinstance(node.func, ast.Name)
                            and node.func.id == "setattr"
                            or isinstance(node.func, ast.Attribute) and (
                                node.func.attr == "__setattr__"
                                or node.func.attr in ("update", "setdefault")
                                and _is_state(node.func.value)))):
                    yield node.lineno, "%s.%s" % (cls.name, func.name)


def test_no_record_keeps_state_after_its_constructor():
    """A record's attributes are final once its constructor returns: only
    __init__ and __post_init__ write them, so no method keeps a memo on
    the record (a kept hash, say) that a copy or an equal record lacks."""
    found = sorted(
        "%s:%d %s" % (path.name, line, name)
        for path in sorted((SRC / "irrfib").glob("*.py"))
        for line, name in _state_writes_after_construction(
            ast.parse(path.read_text())))
    assert found == []


# One fresh process per golden, as a command runs: state that one command
# left behind for the next in the same process would not show in process.
@pytest.mark.parametrize("golden", sorted(CASES))
def test_optimized_run_reports_the_same_checks(golden):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "irrfib.cli", *CASES[golden], "--json"],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / ("%s.json" % golden)).read_text()


# The torsion layer's sets and dicts are keyed by records whose hash mixes
# in the lattice's string labels, so their iteration order changes with the
# hash seed; no report may show it.
@pytest.mark.parametrize("seed", ["0", "4242"])
@pytest.mark.parametrize("golden", ["appendix", "classify-sweep"])
def test_output_does_not_depend_on_the_hash_seed(golden, seed):
    proc = subprocess.run(
        [sys.executable, "-m", "irrfib.cli", *CASES[golden], "--json"],
        capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed),
        timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / ("%s.json" % golden)).read_text()
