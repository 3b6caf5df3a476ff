"""jmqubit's record types: named tuples, the read-only POVM value classes,
and the two dataclasses that remain."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import jmqubit
from jmqubit import (
    AppliedRelabeling,
    BinaryQubitPovm,
    Effect,
    FeasibilityVerdict,
    JmStructure,
    OracleParams,
    PlanarSymmetricFamily,
    SymmetryElement,
    realize_n_cycle,
)
from jmqubit.oracle import SweepMismatch
from jmqubit.povm import ValidationReport
from jmqubit.realizer import VerificationReport


@pytest.fixture(scope="module")
def cert():
    return realize_n_cycle(4)


RECORDS = {
    "Effect": (lambda c: Effect(1.0, [0.0, 0.0, 0.5]), "alpha"),
    "BinaryQubitPovm": (lambda c: BinaryQubitPovm(0.0, [0.5, 0.0, 0.0]), "bias"),
    "ValidationReport": (lambda c: ValidationReport(True), "ok"),
    "OracleParams": (lambda c: OracleParams(), "max_iter"),
    "SweepMismatch": (lambda c: SweepMismatch(0.5, "compatible", "feasible"), "eta"),
    "CompatEvidence": (lambda c: c.compatible[0], "joint"),
    "IncompatEvidence": (lambda c: c.incompatible[0], "margin"),
    "RealizationCertificate": (lambda c: c, "eta"),
    "VerificationReport": (lambda c: VerificationReport(True), "ok"),
    "AppliedRelabeling": (lambda c: AppliedRelabeling((0, 1), (False, True)), "order"),
    "PlanarSymmetricFamily": (lambda c: PlanarSymmetricFamily(3, 0.5), "eta"),
    "SymmetryElement": (lambda c: SymmetryElement(1, True), "reflection"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(cert, name):
    make, field = RECORDS[name]
    record = make(cert)
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "make",
    [
        lambda: PlanarSymmetricFamily(0, 0.5),
        lambda: PlanarSymmetricFamily(3, math.nan),
        lambda: PlanarSymmetricFamily(3, 0.5)._replace(n=0),
        lambda: SymmetryElement(-1, False),
        lambda: SymmetryElement(1, False)._replace(rotation_steps=-1),
    ],
    ids=["family-n", "family-eta", "family-replace", "element", "element-replace"],
)
def test_checked_records_still_reject_bad_fields(make):
    with pytest.raises(ValueError):
        make()


def test_only_two_dataclasses_remain():
    found = set()
    for info in pkgutil.iter_modules(jmqubit.__path__):
        module = importlib.import_module(f"jmqubit.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(obj)
    assert found == {FeasibilityVerdict, JmStructure}
