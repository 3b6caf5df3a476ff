"""Guards for the benchmark's fixed inputs and its tracer.

perfbench/decide_golden.json holds the closed-form answers of the decide
pool, and perfbench/spans.py patches named attributes of jmqubit's modules.
Both are read here, never changed.
"""

import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from jmqubit import closed_form_decider, povms_from_json_dict, structure_of, triple_unbiased
from jmqubit import cli, criteria, oracle, povm, realizer, structures, surgery

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def golden():
    sets = json.loads((PERFBENCH / "decide_golden.json").read_text())["sets"]
    return [(entry, povms_from_json_dict(entry)) for entry in sets]


def test_golden_pool_structures_unchanged(golden):
    assert len(golden) == 240
    for entry, povms in golden:
        struct = structure_of(povms, closed_form_decider(povms))
        assert struct.to_json_dict() == entry["structure"], entry["id"]
        assert sorted(map(sorted, struct.undecided)) == entry["undecided"], entry["id"]


def _array_units(sub) -> np.ndarray:
    """Unit Bloch rows as numpy divides them, (1, 0, 0) for a zero vector."""
    return np.array([p.bloch / p.eta if p.eta > 0 else [1.0, 0.0, 0.0] for p in sub])


def test_triple_ft_margins_match_the_array_input_bit_for_bit(golden):
    # these margins are stored in certificates as triple-ft evidence
    count = 0
    for _, povms in golden:
        for sub in itertools.combinations(povms, 3):
            v = realizer._triple_ft(list(sub))
            if v is None:
                continue
            ref = triple_unbiased(np.array([p.eta for p in sub]), _array_units(sub))
            assert v.decision == ref.decision
            assert v.margin == ref.margin or (math.isnan(v.margin) and math.isnan(ref.margin))
            count += 1
    assert count == 3900


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = {
        "cli": cli,
        "criteria": criteria,
        "oracle": oracle,
        "povm": povm,
        "realizer": realizer,
        "structures": structures,
        "surgery": surgery,
        "JointPovm": povm.JointPovm,
    }
    for owner, attr, _ in spans.TARGETS:
        # the tracer reads vars(owner)[attr]
        assert attr in vars(owners[owner]), (owner, attr)
    assert "closed_form_decider" in vars(realizer)  # wrapped outside TARGETS
