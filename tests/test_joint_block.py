"""Certificate joints are built, loaded, checked and digested as one block.

The references below are the one-joint-at-a-time code that the block code
replaced: the chain joint built row by row from normalized POVM objects, the
loader, validate and marginal_error of one joint, and the digest through
json.dumps. The block code must give the same bytes, digests and issues.
"""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from jmqubit import (
    BinaryQubitPovm,
    JointPovm,
    RealizationCertificate,
    build_general_binary_joint,
    realize_misc,
    realize_n_cycle,
    verify_certificate,
)
from jmqubit import realizer
from jmqubit.criteria import _chain_form
from jmqubit.povm import _marginal_system
from jmqubit.realizer import REGISTRY, joint_digest
from jmqubit.surgery import AppliedRelabeling

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# references: one joint at a time


def reference_normalize_for_chain(povms):
    order = _chain_form(povms)[2]
    chain = [povms[i] for i in order]
    flips = tuple(p.bias < 0 for p in chain)
    flipped = [BinaryQubitPovm(-p.bias, -p.bloch) if f else p for p, f in zip(chain, flips)]
    return flipped, tuple(order), flips


def reference_chain_joint(povms):
    ps, order, flips = reference_normalize_for_chain(povms)
    N = len(ps)
    a = [p.bloch for p in ps]
    b = [p.bias for p in ps]
    if N == 1:
        masks, rows = [1, 0], [(1.0 + b[0], *a[0]), (1.0 - b[0], *-a[0])]
    else:
        masks, rows = [], []
        half_sum = 0.0
        for p in range(1, N):
            t = 0.5 * (a[p - 1] - a[p])
            nt = float(np.linalg.norm(t))
            half_sum += nt
            plus = (1 << p) - 1
            masks += [plus, plus ^ ((1 << N) - 1)]
            rows += [(nt, *t), (nt + (b[p] - b[p - 1]), *-t)]
        s = 0.5 * (a[0] + a[N - 1])
        masks += [(1 << N) - 1, 0]
        rows += [(1.0 + b[0] - half_sum, *s), (1.0 - b[N - 1] - half_sum, *-s)]
    masks = [sum(1 << order[i] for i in range(N) if (m >> i & 1) ^ flips[i]) for m in masks]
    return JointPovm(N, masks, rows), AppliedRelabeling(order, flips)


def reference_validate(joint, tol):
    alpha, bloch = joint.rows[:, 0], joint.rows[:, 1:]
    with np.errstate(over="ignore"):
        min_eig = 0.5 * (alpha - np.sqrt((bloch * bloch).sum(axis=1)))
        comp = float(np.max(np.abs(joint.rows.sum(axis=0) - (2.0, 0.0, 0.0, 0.0))))
    violations = [(f"effect[{joint.masks[i]}] PSD", -float(min_eig[i])) for i in np.flatnonzero(min_eig < -tol)]
    if comp > tol:
        violations.append(("completeness", comp))
    return tuple(violations)


def reference_marginal_error(joint, povms):
    M, T = _marginal_system(joint.n, joint.masks, povms)
    return float(np.max(np.abs(M[1:] @ joint.rows - T[1:])))


def reference_from_json(d, tol):
    entries = d["effects"]
    if not isinstance(entries, dict):
        raise ValueError("joint effects must be a JSON object of outcome masks")
    rows = np.array([[e["alpha"], *e["bloch"]] for e in entries.values()], dtype=float)
    joint = JointPovm(int(d["n"]), [int(mask) for mask in entries], rows)
    violations = reference_validate(joint, tol)
    if violations:
        raise ValueError(f"invalid joint POVM: {violations}")
    return joint


def reference_digest(joint):
    return hashlib.sha256(json.dumps(joint.to_json_dict(), sort_keys=True).encode()).hexdigest()


def reference_verify_issues(cert):
    """verify_certificate's closed-form issues, checking one joint at a time."""
    issues = []
    povms = list(cert.povms)
    lo, hi = cert.eta_window
    if not lo < cert.eta <= hi:
        issues.append(f"eta {cert.eta} outside window ({lo}, {hi}]")
    covered = {frozenset(e.subset) for e in cert.compatible}
    if covered != {frozenset(m) for m in cert.claimed.maximal if len(m) >= 2}:
        issues.append("compatible evidence does not cover the maximal sets")
    for e in cert.compatible:
        if reference_digest(e.joint) != e.digest:
            issues.append(f"digest mismatch for subset {list(e.subset)}")
        violations = reference_validate(e.joint, 1e-11)
        if violations:
            issues.append(f"witness for {list(e.subset)} invalid: {violations}")
        err = reference_marginal_error(e.joint, [povms[k - 1] for k in e.subset])
        if err > 1e-11:
            issues.append(f"witness for {list(e.subset)} marginals off by {err:.2e}")
    if set(map(frozenset, cert.claimed.minimal_non_faces())) != {frozenset(e.subset) for e in cert.incompatible}:
        issues.append("incompatible evidence does not cover the minimal sets")
    for e in cert.incompatible:
        criterion = REGISTRY.get(e.criterion)
        v = criterion([povms[i - 1] for i in e.subset]) if criterion else None
        if v is None or v.criterion_id != e.criterion or not v.is_incompatible:
            issues.append(f"criterion {e.criterion} does not prove {list(e.subset)} incompatible")
        elif abs(v.margin - e.margin) > 1e-9:
            issues.append(f"margin mismatch for {list(e.subset)}: {v.margin} vs {e.margin}")
    return tuple(issues)


def assert_same_joint(joint, ref):
    assert joint.n == ref.n
    assert joint.masks.dtype == ref.masks.dtype and joint.masks.tobytes() == ref.masks.tobytes()
    assert joint.rows.dtype == ref.rows.dtype and joint.rows.tobytes() == ref.rows.tobytes()


# ---------------------------------------------------------------------------
# the named certificates


def test_named_certificates_match_the_per_joint_build_load_and_digest(named_certificates):
    for cert in named_certificates:
        d = json.loads(json.dumps(cert.to_json_dict()))
        loaded = RealizationCertificate.from_json_dict(d)
        for e, back, entry in zip(cert.compatible, loaded.compatible, d["evidence"]["compatible"]):
            ref, _ = reference_chain_joint([cert.povms[k - 1] for k in e.subset])
            assert_same_joint(e.joint, ref)
            assert e.digest == joint_digest(e.joint) == reference_digest(ref), cert.label
            assert_same_joint(back.joint, reference_from_json(entry["joint"], 1e-8))
            assert back.joint.rows.base is loaded.compatible[0].joint.rows.base  # views of one block
            assert not back.joint.rows.flags.writeable and not back.joint.masks.flags.writeable


_bias = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-0.3, 0.3))
_povm = st.builds(
    lambda b, x, y, z: BinaryQubitPovm(b, [x, y, z]), _bias, *[st.floats(-0.1, 0.1)] * 3
)


@given(st.lists(_povm, min_size=1, max_size=6))
@example([BinaryQubitPovm(-0.0, [0.1, 0.0, 0.0])])
@example([BinaryQubitPovm(-0.0, [0.1, 0.0, 0.0]), BinaryQubitPovm(0.0, [0.0, 0.1, 0.0])])
@example([BinaryQubitPovm(-0.2, [0.1, 0.0, 0.0]), BinaryQubitPovm(0.2, [0.0, 0.1, 0.0])])
def test_general_chain_joint_matches_the_per_joint_build(povms):
    try:
        joint, relabel = build_general_binary_joint(povms)
    except ValueError:  # the chain inequality fails: nothing is built
        assume(False)
    ref, ref_relabel = reference_chain_joint(povms)
    assert_same_joint(joint, ref)
    assert relabel == ref_relabel
    assert joint_digest(joint) == reference_digest(ref)


_entry = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, -1e-7]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.integers(4, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1))
), st.data())
@example((4, {2, 10, 3}), None)
def test_digest_matches_json_dumps(n_masks, data):
    n, masks = n_masks
    masks = sorted(masks, reverse=True)  # keys sort as strings, not in storage order
    if data is None:
        rows = [(-0.0, 5e-324, 1e16, 1e-7)] * len(masks)
    else:
        rows = data.draw(st.lists(st.tuples(*[_entry] * 4), min_size=len(masks), max_size=len(masks)))
    joint = JointPovm(n, masks, rows)
    assert joint_digest(joint) == reference_digest(joint)


# ---------------------------------------------------------------------------
# tampered joints verify with the same issues


def _psd(entry):
    # the effect with the least PSD slack loses 1e-9 of its alpha
    rows = entry["joint"]["effects"].values()
    worst = min(rows, key=lambda r: r["alpha"] - float(np.linalg.norm(r["bloch"])))
    worst["alpha"] -= 1e-9


def _completeness(entry):
    # the all-minus effect is in no marginal, so only completeness moves
    effects = entry["joint"]["effects"]
    effects.get("0", next(iter(effects.values())))["alpha"] += 1e-9


def _marginal(entry):
    # weight moves from the all-minus effect to the all-plus one
    effects = entry["joint"]["effects"]
    keys = sorted(effects, key=int)
    effects[keys[0]]["alpha"] -= 1e-9
    effects[keys[-1]]["alpha"] += 1e-9


def _moved_row(entry):
    effects = entry["joint"]["effects"]
    row = effects[max(effects, key=int)]  # an effect in some marginal
    row["alpha"] += 2e-11
    row["bloch"] = [x + 2e-11 for x in row["bloch"]]


TAMPERS = {"psd": _psd, "completeness": _completeness, "marginal": _marginal, "moved-row": _moved_row}


@pytest.fixture(scope="module")
def stored_certificates():
    certs = [json.loads(p.read_text()) for p in sorted(DATA.glob("5-*.json"))]
    certs.append(realize_misc("6-triples-antipodal-pairs").to_json_dict())
    certs += [c.to_json_dict() for c in realizer.atlas_certificates().values()]
    return [json.loads(json.dumps(d)) for d in certs]


@pytest.mark.parametrize("kind", sorted(TAMPERS))
def test_tampered_joints_verify_with_the_per_joint_issues(stored_certificates, kind):
    mixed = [d for d in stored_certificates if len({len(e["subset"]) for e in d["evidence"]["compatible"]}) > 1]
    assert mixed  # a certificate whose joints differ in n
    failed = 0
    for d in stored_certificates:
        for j in range(len(d["evidence"]["compatible"])):
            for fresh_digest in (True, False):
                t = copy.deepcopy(d)
                entry = t["evidence"]["compatible"][j]
                TAMPERS[kind](entry)
                ref_joint = reference_from_json(entry["joint"], 1e-8)
                if fresh_digest:
                    entry["digest"] = reference_digest(ref_joint)
                cert = RealizationCertificate.from_json_dict(t)
                assert_same_joint(cert.compatible[j].joint, ref_joint)
                ref_cert = cert._replace(compatible=tuple(
                    e._replace(joint=reference_from_json(x["joint"], 1e-8))
                    for e, x in zip(cert.compatible, t["evidence"]["compatible"])
                ))
                rep = verify_certificate(cert)
                assert rep.issues == reference_verify_issues(ref_cert), (t["label"], j)
                failed += not rep.ok
    assert failed  # the tampers are seen


def test_verify_checks_certificates_without_compatible_evidence():
    cert = realizer.realize_four_vertex(1)
    assert not cert.compatible
    back = RealizationCertificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
    assert verify_certificate(back).ok


def test_loader_rejects_an_empty_joint_among_others():
    d = realize_n_cycle(5).to_json_dict()
    d["evidence"]["compatible"][2]["joint"]["effects"] = {}
    with pytest.raises(ValueError, match="joint effects must be a non-empty JSON object"):
        RealizationCertificate.from_json_dict(d)
