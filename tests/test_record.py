"""The record contract every irrfib value type keeps.

Records are frozen, compare and hash by their fields, never equal an
instance of another class, encode to JSON by those same fields, and cost no
`dataclasses` import.
"""

import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import irrfib
from irrfib.bundles import (BundleDecomposition, EllipticPoint,
                            IndecomposableBundle, atiyah_bundle,
                            elliptic_origin, generic_point, xiao_structure)
from irrfib.intersection import KernelCurve, pen6_lattice
from irrfib.invariants import FibrationRecord, example_record, slope
from irrfib.characters import Character
from irrfib.lattice import OnGrid, Rational, SublatticeEmbedding
from irrfib.polarization import kernel_K_L, polarization_type
from irrfib.record import Record, encode
from irrfib.report import Check, Report
from irrfib.torus import (SpecialAbelianSurface, Sweep,
                          build_reference_surface, classification_sweep)

SRC = Path(__file__).resolve().parent.parent / "src"

RECORD_CLASSES = {
    obj
    for info in pkgutil.iter_modules(irrfib.__path__)
    for obj in vars(importlib.import_module("irrfib." + info.name)).values()
    if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record}

UNHASHABLE = (Sweep,)  # a Sweep holds dicts
# what a constructor derives and keeps beside the fields: a surface its
# tables, an embedding its index; every other record keeps only its fields
SURFACE_TABLES = {"form_A", "_grids", "_periods", "_halves"}
DERIVED = {SpecialAbelianSurface: SURFACE_TABLES,
           SublatticeEmbedding: {"index"}}


def _samples():
    """One instance of every record class, built by the library."""
    s = build_reference_surface()
    sweep = classification_sweep(s)
    k_l = kernel_K_L(s.form_A)
    pen6 = pen6_lattice()
    example, checks = example_record("k26-d2")
    p = generic_point("p")
    return [
        s.embedding.sub, s.embedding, s.form_A, polarization_type(s.form_A),
        s, k_l, k_l.generators[0], sweep.rows[0].Q, sweep.rows[0], sweep,
        pen6, pen6.basis_class(pen6.basis_labels[0]), KernelCurve(1, 2),
        p, atiyah_bundle(2, p),
        BundleDecomposition((IndecomposableBundle(1, 0, elliptic_origin()),
                             atiyah_bundle(2, p))),
        xiao_structure(3, Fraction(4), 2, 1),
        example, example.invariants, example.fibrations[0], checks[0],
        slope(7, 2, 1, 3),
    ]


def _rebuilt(record):
    """A second record of the same class, from the same field values."""
    return type(record)(*(getattr(record, n) for n in record._fields))


def _unreduced(record):
    """Field values that the class's __post_init__ must bring back to the
    record's own: a torsion element over twice its order, a rational with
    both terms doubled; any other record's own values."""
    values = {name: getattr(record, name) for name in record._fields}
    if isinstance(record, OnGrid):
        values.update(n=2 * record.n, nums=tuple(2 * k for k in record.nums))
    if isinstance(record, Rational):
        values.update(numerator=2 * record.numerator,
                      denominator=2 * record.denominator)
    return values


def _built_three_ways(cls, values):
    """cls built from values positionally, by keyword, and mixed."""
    first, *rest = values
    return (cls(*values.values()), cls(**values),
            cls(values[first], **{name: values[name] for name in rest}))


def test_samples_cover_every_record_class():
    assert len(RECORD_CLASSES) == 22
    assert {type(r) for r in _samples()} == RECORD_CLASSES


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records(record):
    twin = _rebuilt(record)
    assert twin is not record
    assert twin == record and not twin != record
    # every way of calling the constructor normalises through __post_init__
    for built in _built_three_ways(type(record), _unreduced(record)):
        assert built == record
    name, fields = type(record).__name__, record._fields
    with pytest.raises(TypeError, match=r"^%s\(\) got unexpected arguments$"
                       % name):
        type(record)(*(getattr(record, n) for n in fields), None)
    if fields[0] not in record._defaults:
        with pytest.raises(TypeError, match=r"^%s\(\) is missing argument %r$"
                           % (name, fields[0])):
            type(record)()
    if not isinstance(record, UNHASHABLE):
        assert hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    # a record stores exactly its declared fields and what its constructor
    # derives, whatever has been read or hashed since
    for name in dir(record):
        getattr(record, name)
    assert set(vars(record)) == set(record._fields) | DERIVED.get(
        type(record), set())
    if isinstance(record, OnGrid):
        assert b"fractions" not in pickle.dumps(record)


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment_and_deletion(record):
    for name in (*record._fields, "unknown"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name, None) is before


def test_different_classes_never_compare_equal():
    for a, b in permutations(_samples(), 2):
        assert a.__eq__(b) is NotImplemented
        assert a != b

    class Twin(Record):
        p: int
        q: int

    assert Twin(1, 2) != KernelCurve(1, 2)
    assert Twin(1, 2) == Twin(1, 2)


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_json_form_is_the_compared_fields(record):
    doc = json.loads(json.dumps(encode(record)))
    assert doc == record.to_json()
    if isinstance(doc, dict):
        names = set(record._fields)
        if isinstance(record, Check):
            names.add("pass")
        if isinstance(record, EllipticPoint):  # n and nums print as coords
            names = names - {"n", "nums"} | {"coords"}
        assert set(doc) == names


def test_the_records_that_override_the_json_form():
    overriding = {c.__name__ for c in RECORD_CLASSES if "to_json" in vars(c)}
    assert overriding == {"TorsionPoint", "DivisorClass", "KernelCurve",
                          "PolarizationType", "ExampleSurface", "Check",
                          "EllipticPoint", "Rational"}


def test_reports_are_mutable_and_unshared():
    """A Report is a plain class, not a record: each one gets fresh
    containers, and its JSON form is its four attributes."""
    a, b = Report("x"), Report("x")
    assert not isinstance(a, Record)
    assert a.inputs is not b.inputs
    assert a.results is not b.results
    assert a.checks is not b.checks
    a.check("n", 1, 1)
    a.results["r"] = 2
    assert (len(a.checks), b.checks, b.results) == (1, [], {})
    a.command = "y"
    assert a.to_json() == {"command": "y", "inputs": {}, "results": {"r": 2},
                           "checks": [{"name": "n", "expected": 1,
                                       "actual": 1, "pass": True}]}
    inputs = {"n": 1}
    assert Report("z", inputs).inputs is inputs


def test_constructor_arguments():
    lat = build_reference_surface().embedding.sub
    for chi in _built_three_ways(Character, {"lattice": lat, "n": 4,
                                             "nums": (2, 0, 4, 6)}):
        assert (chi.n, chi.nums) == (2, (1, 0, 0, 1))
    assert FibrationRecord(1, 4) == FibrationRecord(gF=4, gC=1)
    assert FibrationRecord(1, 4).annotations == ()
    assert FibrationRecord(1, 4).r is None
    for args, kwargs in (((1, 2, 3), {}), ((1,), {"p": 1}), ((1,), {"r": 2}),
                         ((1,), {})):
        with pytest.raises(TypeError):
            KernelCurve(*args, **kwargs)
    assert repr(KernelCurve(1, 2)) == "KernelCurve(p=1, q=2)"


def child_env(**extra):
    """The environment of a child process: this checkout's src first on
    PYTHONPATH, then the inherited path."""
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def _run(code, data=b"", seed="0"):
    env = child_env(PYTHONHASHSEED=seed)
    # -S: no site hooks, so only irrfib's own imports are seen
    proc = subprocess.run([sys.executable, "-S", "-c", code], input=data,
                          env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout.decode()


def test_import_pulls_in_no_dataclasses():
    code = ("import irrfib.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert _run(code) == "[]\n"


def test_a_pickled_record_hashes_by_its_fields_in_another_process():
    lattice = build_reference_surface().embedding.sub
    hash(lattice)  # string labels: the hash depends on the process's seed
    code = ("import pickle, sys; from irrfib.torus import reference_lattice_a; "
            "print(pickle.loads(sys.stdin.buffer.read()) in "
            "{reference_lattice_a()})")
    for seed in ("1", "2"):
        assert _run(code, pickle.dumps(lattice), seed) == "True\n"
