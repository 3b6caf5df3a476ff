"""Guards for the benchmark's fixed inputs and its tracer.

perfbench/decide_golden.json holds the closed-form answers of the decide
pool, perfbench/workloads.py builds the oracle problems, and
perfbench/spans.py patches named attributes of jmqubit's modules. All are
read here, never changed.
"""

import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import jmqubit
from jmqubit import closed_form_decider, povms_from_json_dict, structure_of, triple_unbiased
from jmqubit import cli, criteria, oracle, povm, realizer, structures, surgery

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ORACLE_RUNS = Path(__file__).resolve().parent / "data" / "oracle_runs.json"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


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


def test_oracle_workload_answers_unchanged():
    # statuses and Newton steps on the oracle workload's seeds 1-3 as stored;
    # every answer checks, and the steps may only fall
    stored = json.loads(ORACLE_RUNS.read_text())["seeds"]
    workloads = _perfbench_module("workloads")
    steps = stored_steps = 0
    for seed, runs in stored.items():
        problems = workloads.oracle_problems(jmqubit, int(seed))
        assert [label for label, _, _ in problems] == [label for label, _, _ in runs]
        for (label, povms, _), (_, status, newton_steps) in zip(problems, runs):
            res = oracle.decide(povms)
            assert res.status == status, (seed, label)
            assert oracle.checked_decision(res, povms) is not None, (seed, label)
            steps += res.newton_steps
            stored_steps += newton_steps
    assert sum(map(len, stored.values())) == 168
    assert steps <= stored_steps


def test_tracer_targets_exist():
    spans = _perfbench_module("spans")
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
