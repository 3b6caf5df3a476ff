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
from jmqubit import UNKNOWN, closed_form_decider, povms_from_json_dict, structure_of, triple_unbiased
from jmqubit import cli, criteria, oracle, povm, realizer, structures, surgery
from conftest import triple_chain_failure

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


def test_chain_failures_are_inherited_on_the_golden_pool(golden, monkeypatch):
    # the decider scores the chain on a set of four or more only when no
    # one-smaller subset failed it: one it answered Unknown by biased-chain,
    # or an unbiased triple whose three chain values clear 4 by the guard.
    # Per walk over the pool that is 1,194 ordering searches and no N = 7
    # stable-order score, where scoring every set takes 2,540 and 7 (and the
    # rule without triples 1,344). Each inherited verdict is the failing
    # subset's, and scoring the set itself fails the chain too.
    order, stable = realizer.best_chain_ordering, realizer.general_binary_sufficient
    calls = {order: 0, stable: 0}

    def counted(f):
        def run(sub):
            calls[f] += 1
            return f(sub)

        return run

    monkeypatch.setattr(realizer, "best_chain_ordering", counted(order))
    monkeypatch.setattr(realizer, "general_binary_sufficient", counted(stable))
    inherited = []
    for entry, povms in golden:
        decide, seen = closed_form_decider(povms), {}

        def recording(combo):
            scored = sum(calls.values())
            v = seen[combo] = decide(combo)
            if v.criterion_id != "biased-chain" or sum(calls.values()) > scored:
                return v
            assert v.decision == UNKNOWN and len(combo) >= 4, (entry["id"], combo)
            smaller = [combo[:j] + combo[j + 1:] for j in range(len(combo))]
            failing = [seen.get(s) for s in smaller]
            failing += [triple_chain_failure([povms[i - 1] for i in s]) for s in smaller]
            assert repr(v) in map(repr, failing), (entry["id"], combo)
            sub = [povms[i - 1] for i in combo]
            own = order(sub)[1] if len(sub) <= 6 else stable(sub)
            assert own.decision == UNKNOWN and own.margin <= v.margin + 1e-14, (entry["id"], combo)
            inherited.append(combo)
            return v

        structure_of(povms, recording)
    assert (calls[order], calls[stable]) == (1194, 0)
    assert len(inherited) == 2540 + 7 - 1194


def test_triple_anchor_settles_triples_as_triple_ft_does(golden):
    # triple-anchor is the FT objective at triple_unbiased's four data
    # points, an upper bound on its minimum: its margin is at most
    # triple-ft's, and the decider's answer is triple-ft's, bit for bit
    # wherever triple-anchor leaves the triple to it
    count = anchored = 0
    for _, povms in golden:
        decide = closed_form_decider(povms)
        for combo in itertools.combinations(range(1, len(povms) + 1), 3):
            sub = [povms[i - 1] for i in combo]
            ft = realizer._triple_ft(sub)
            if ft is None:
                continue
            anchor, v = realizer._triple_anchor(sub), decide(combo)
            assert anchor.margin <= ft.margin + 1e-12, combo
            assert v.decision == ft.decision, combo
            if v.criterion_id == "triple-anchor":
                assert v == anchor
                anchored += 1
            else:
                assert repr(v) == repr(ft), combo  # the same bits, NaN included
            count += 1
    assert count == 3900 and anchored > 0


def test_triple_anchor_spares_most_ft_solves_on_the_golden_pool(golden, monkeypatch):
    # per walk over the pool, 934 of the 1,629 all-unbiased triples are
    # settled at a data point and 695 reach the Fermat-Torricelli solve
    calls = {"triple": 0, "ft": 0}

    def counted(key, f):
        def run(*args):
            calls[key] += 1
            return f(*args)

        return run

    monkeypatch.setattr(realizer, "triple_unbiased", counted("triple", triple_unbiased))
    monkeypatch.setattr(criteria, "fermat_torricelli", counted("ft", criteria.fermat_torricelli))
    anchored = 0
    for _, povms in golden:
        decide = closed_form_decider(povms)

        def recording(combo):
            nonlocal anchored
            v = decide(combo)
            anchored += v.criterion_id == "triple-anchor"
            return v

        structure_of(povms, recording)
    assert (calls["triple"], calls["ft"], anchored) == (695, 695, 934)


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
        for (label, povms, _), (_, status, iterations) in zip(problems, runs):
            res = oracle.decide(povms)
            assert res.status == status, (seed, label)
            assert oracle.checked_decision(res, povms) is not None, (seed, label)
            steps += res.iterations
            stored_steps += iterations
    assert sum(map(len, stored.values())) == 168
    assert steps <= stored_steps


def _oracle_workload():
    """The POVMs of the oracle workload's seeds 1-3."""
    workloads = _perfbench_module("workloads")
    return [povms for seed in (1, 2, 3) for _, povms, _ in workloads.oracle_problems(jmqubit, seed)]


def test_lift_pretest_skips_only_candidates_that_fail(monkeypatch):
    # the pre-test is made to let every Farkas candidate through to the full
    # lift, so the runs are those without it; each candidate it would have
    # skipped must fail verify_dual once lifted
    pretest, lift = oracle._lift_can_pass, oracle._lift
    pending, candidates = [], []

    def recording_pretest(worst, tY):
        pending.append(pretest(worst, tY))
        return True

    def recording_lift(Y, scale, worst):
        assert len(pending) == 1, "every lift follows one pre-test"
        D = lift(Y, scale, worst)
        candidates.append((pending.pop(), D))
        return D

    problems = _oracle_workload()
    answers = [oracle.decide(povms) for povms in problems]
    monkeypatch.setattr(oracle, "_lift_can_pass", recording_pretest)
    monkeypatch.setattr(oracle, "_lift", recording_lift)
    skipped = passed = 0
    for povms, answer in zip(problems, answers):
        del candidates[:]
        res = oracle.decide(povms)
        assert (res.status, res.iterations, res.residual) == (answer.status, answer.iterations, answer.residual)
        for ok, D in candidates:
            if ok:
                passed += oracle.verify_dual(D, povms)
            else:
                skipped += 1
                assert not oracle.verify_dual(D, povms)
    assert skipped > 0 and passed == sum(res.status == oracle.LIKELY_INFEASIBLE for res in answers)


def test_oracle_witnesses_match_the_checked_constructor(monkeypatch):
    # each feasible answer's joint is built without JointPovm.__init__'s
    # copies and scans; it must hold what __init__ would have made of the
    # same arrays, read-only, and pass verify_witness
    witness_from, made = oracle._witness_from, []
    monkeypatch.setattr(
        oracle, "_witness_from", lambda V, keep, n: made.append((V, keep, n, witness_from(V, keep, n))) or made[-1][3]
    )
    feasible = 0
    for povms in _oracle_workload():
        del made[:]
        res = oracle.decide(povms)
        if res.status != oracle.FEASIBLE:
            assert not made
            continue
        ((V, keep, n, joint),) = made
        assert (keep == oracle._support(V)).all()  # the mask the accepted step computed
        ref = povm.JointPovm(n, np.flatnonzero(keep), V[keep])
        assert res.witness is joint and joint.n == ref.n
        for got, want in ((joint.masks, ref.masks), (joint.rows, ref.rows)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert not got.flags.writeable
        assert oracle.verify_witness(joint, povms, res.params.witness_tol)
        feasible += 1
    assert feasible == 84


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
