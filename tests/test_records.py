"""The package's records and its import surface.

The records are ``NamedTuple`` classes.  Each keeps keyword
construction, defaults, the ``Name(field=value, ...)`` repr and
read-only fields; those that hold arrays compare by identity.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlresolvent
from nlresolvent import (
    TRUNCATION_NOTE,
    ArrayForms,
    ClassificationReport,
    DefectEstimate,
    Exhaustion,
    PathCriterionReport,
    Potential,
    ResidualReport,
    ResolventEstimate,
    SolveOptions,
    SolveResult,
    StepRecord,
    Thresholds,
    ValidationReport,
    VertexFunction,
    classify,
    lattice_z,
    make_exhaustion,
    odd_power,
    path_criterion,
    residual,
    solve_dirichlet,
    validate,
)
from nlresolvent import cli, completeness, families, graphs, nonlinearity, resolvent, solver
from nlresolvent.completeness import _DefectRows

# the records that hold arrays themselves; the others reach one only through these
BY_IDENTITY = (Exhaustion, ResolventEstimate)


@pytest.fixture(scope="module")
def records():
    """One instance of every record, from a small run on the lattice, by type."""
    g, W, nl = lattice_z(), Potential.constant(1.0), odd_power(3.0)
    ex = make_exhaustion(g, 0, [2, 4])
    report = classify(g, W, nl, ex, alpha_grid=[0.5, 1.0], probes=[0, 1])
    est = report.estimates[0]
    f = VertexFunction.delta(0)
    res = solve_dirichlet(g, W, nl, f, [-1, 0, 1])
    made = [
        nl.arrays, W, SolveOptions(), res, residual(g, W, nl, f, res.u, [-1, 0, 1]),
        validate(g, [0]), ex, est.resolvent.steps[0], est.resolvent, Thresholds(), est,
        _DefectRows(report.estimates), report, path_criterion(g, W, nl, range(6), 0.5, 4),
    ]
    return {type(r): r for r in made}


def test_every_record_is_a_named_tuple(records):
    assert set(records) == {
        ArrayForms, Potential, SolveOptions, SolveResult, ResidualReport, ValidationReport,
        Exhaustion, StepRecord, ResolventEstimate, Thresholds, DefectEstimate, _DefectRows,
        ClassificationReport, PathCriterionReport}
    for r in records.values():
        assert isinstance(r, tuple) and r._fields


def test_records_rebuild_from_keywords_with_the_same_repr(records):
    for r in records.values():
        fields = r._asdict()
        copy = type(r)(**fields)
        assert repr(copy) == repr(r)
        inside = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(r) == f"{type(r).__name__}({inside})"


@pytest.mark.parametrize("cls, required, defaults", [
    (SolveOptions, {}, dict(sweep_tol=1e-10, residual_tol=1e-9, max_sweeps=100_000)),
    (Thresholds, {}, dict(complete_tol=1e-4, stabilization_tol=1e-6, incomplete_floor=1e-2)),
    (SolveResult, dict(u=VertexFunction.zero(), residual_inf=0.0, sweeps_used=0, converged=True),
     dict(max_decrease=0.0, range_violations=())),
    (ResidualReport, dict(values={}, sup=0.0), dict(range_violations=())),
])
def test_record_defaults(cls, required, defaults):
    r = cls(**required)
    assert {k: getattr(r, k) for k in defaults} == defaults
    assert cls(**required, **defaults) == r


def test_classification_report_defaults(records):
    fields = records[ClassificationReport]._asdict()
    del fields["note"], fields["reason"]
    bare = ClassificationReport(**fields)
    assert (bare.note, bare.reason) == (TRUNCATION_NOTE, "")


def test_validated_records_check_keyword_construction():
    assert SolveOptions(max_sweeps=5).max_sweeps == 5
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        SolveOptions(max_sweeps=0)
    with pytest.raises(ValueError, match="complete_tol 0.1 must sit below incomplete_floor 0.01"):
        Thresholds(complete_tol=0.1)
    with pytest.raises(ValueError, match="W0 must be a positive real, got -1.0"):
        Potential(fn=len, W0=-1.0)


@pytest.mark.parametrize("record, change, message", [
    (SolveOptions(), dict(max_sweeps=0), "max_sweeps must be >= 1"),
    (Thresholds(), dict(complete_tol=-1), "complete_tol must be positive, got -1"),
    (Potential.constant(1.0), dict(W0=-2.0), "W0 must be a positive real, got -2.0"),
], ids=["SolveOptions", "Thresholds", "Potential"])
def test_validated_records_check_replace_and_make(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    # a valid change still goes through, and keeps the class
    same = record._replace(**{k: getattr(record, k) for k in change})
    assert type(same) is type(record) and same == record


def test_record_fields_are_read_only(records):
    for r in records.values():
        for name in (*r._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)


def test_exhaustion_length_counts_its_radii(records):
    ex = records[Exhaustion]
    assert len(ex) == len(ex.radii) == 2


def test_array_holders_compare_by_identity(records):
    for cls in BY_IDENTITY:
        r = records[cls]
        # equal fields, the arrays copied: a tuple's comparison would ask their truth value
        twin = cls(*(v.copy() if isinstance(v, np.ndarray) else v for v in r))
        assert r == r and not r != r
        assert r != twin and not r == twin
        assert hash(r) == object.__hash__(r)
        with pytest.raises(TypeError):
            r < twin  # noqa: B015


def test_other_records_compare_by_value_without_reading_arrays(records):
    for cls, r in records.items():
        if cls not in BY_IDENTITY:
            assert r == cls(**r._asdict())
    est = records[DefectEstimate]
    # an equal resolvent in another record: unequal, and no array truth value read
    other = est._replace(resolvent=ResolventEstimate(**est.resolvent._asdict()))
    assert est != other and not est == other


def test_package_classes_other_than_two_are_not_dataclasses():
    modules = (graphs, nonlinearity, solver, resolvent, completeness, families, cli,
               nlresolvent.testkit)
    classes = {cls for mod in modules for cls in vars(mod).values()
               if inspect.isclass(cls) and cls.__module__ == mod.__name__}
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == {
        "Nonlinearity", "RunConfig"}


def test_cli_import_loads_neither_the_oracles_nor_decimal():
    src = str(Path(nlresolvent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, nlresolvent.cli; "
            "print(sorted(m for m in sys.modules if 'testkit' in m or 'decimal' in m))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["[]"]
    # the names stay reachable: the first access loads the module
    assert nlresolvent.linear_oracle is nlresolvent.testkit.linear_oracle
