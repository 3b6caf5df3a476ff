import inspect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jmqubit import (
    BinaryQubitPovm,
    Effect,
    JointPovm,
    apply_orthogonal,
    povms_from_json_dict,
    povms_to_json_dict,
    relabel_outcomes,
    unbiased_povm,
    validate_povm,
)
from conftest import random_orthogonal

finite = st.floats(-1.0, 1.0, allow_nan=False)


def test_effect_eigenvalues_match_matrix():
    e = Effect(0.9, [0.3, -0.2, 0.1])
    w = np.linalg.eigvalsh(e.to_matrix())
    assert math.isclose(e.min_eigenvalue(), w[0], abs_tol=1e-14)
    assert math.isclose(e.max_eigenvalue(), w[1], abs_tol=1e-14)


def test_effect_validity_boundaries():
    assert Effect(0.5, [0.5, 0, 0]).is_valid()  # rank one, PSD
    assert not Effect(0.4, [0.5, 0, 0]).is_valid()  # negative eigenvalue
    assert not Effect(1.8, [0.4, 0, 0]).is_valid()  # exceeds identity
    assert Effect(2.0, [0, 0, 0]).is_valid()  # twice the maximally mixed state


def test_povm_effects_and_completeness():
    p = BinaryQubitPovm(0.2, [0.3, 0.4, 0.0])
    plus, minus = p.effect(1), p.effect(-1)
    assert plus.alpha == pytest.approx(1.2)
    assert minus.alpha == pytest.approx(0.8)
    np.testing.assert_allclose(plus.bloch + minus.bloch, 0.0)
    assert validate_povm(p).ok
    with pytest.raises(ValueError):
        p.effect(0)


def test_validate_povm_flags_bias_bound():
    rep = validate_povm(BinaryQubitPovm(0.5, [0.7, 0, 0]))
    assert not rep.ok
    assert any("bias" in name or "PSD" in name for name, _ in rep.violations)


def _validate_via_effects(p, tol=1e-12):
    """Reference: the checks spelled out on the two Effect objects."""
    violations = []
    if abs(p.bias) - (1.0 - p.eta) > tol:
        violations.append(("bias-bound |b| <= 1-|a|", abs(p.bias) - (1.0 - p.eta)))
    for out in (1, -1):
        e = p.effect(out)
        if e.min_eigenvalue() < -tol:
            violations.append((f"effect({out:+d}) PSD", -e.min_eigenvalue()))
        if e.max_eigenvalue() > 1.0 + tol:
            violations.append((f"effect({out:+d}) <= I", e.max_eigenvalue() - 1.0))
    plus, minus = p.effect(1), p.effect(-1)
    comp = max(abs(plus.alpha + minus.alpha - 2.0), float(np.max(np.abs(plus.bloch + minus.bloch))))
    if comp > tol:
        violations.append(("completeness", comp))
    return tuple(violations)


@given(st.floats(-1.5, 1.5), st.floats(-1.2, 1.2), finite, finite)
def test_validate_povm_matches_effect_reference(b, x, y, z):
    # the bias bound binds: any violation of the reference breaks it first,
    # and validate_povm reports that one only
    p = BinaryQubitPovm(b, [x, y, z])
    rep = validate_povm(p)
    ref = _validate_via_effects(p)
    assert rep.ok == (not ref)
    assert rep.violations == ref[:1]


def test_unbiased_povm_normalizes_direction():
    p = unbiased_povm(0.5, [2.0, 0.0, 0.0])
    assert p.eta == pytest.approx(0.5)
    assert p.is_unbiased
    with pytest.raises(ValueError):
        unbiased_povm(0.5, [0, 0, 0])


def _product_joint(p1, p2):
    # product of commuting-by-construction effect pairs is a valid joint when
    # both POVMs share an axis; here we use the trivial tensor-like split
    masks, rows = [], []
    for x1 in (1, -1):
        for x2 in (1, -1):
            e1, e2 = p1.effect(x1), p2.effect(x2)
            # (1/2)(alpha1 I + a1.sigma)(same axis) composes in closed form
            alpha = 0.5 * (e1.alpha * e2.alpha + float(e1.bloch @ e2.bloch))
            bl = 0.5 * (e1.alpha * e2.bloch + e2.alpha * e1.bloch)
            masks.append((x1 == 1) | ((x2 == 1) << 1))
            rows.append((alpha, *bl))
    return JointPovm(2, masks, rows)


def test_marginals_of_product_joint():
    p1 = BinaryQubitPovm(0.1, [0.5, 0, 0])
    p2 = BinaryQubitPovm(-0.2, [0.3, 0, 0])
    j = _product_joint(p1, p2)
    assert j.validate(1e-12).ok
    for k, p in ((1, p1), (2, p2)):
        m = j.marginal_povm(k)
        assert m.bias == pytest.approx(p.bias, abs=1e-12)
        np.testing.assert_allclose(m.bloch, p.bloch, atol=1e-12)


def reference_marginal_error(joint, povms):
    """marginal_error as it was first written: one marginalize([k]) per
    measurement, effects added one at a time."""
    err = 0.0
    for k, p in enumerate(povms, start=1):
        m = joint.marginal_povm(k)
        err = max(err, abs(m.bias - p.bias), float(np.max(np.abs(m.bloch - p.bloch))))
    return err


def test_marginal_error_matches_marginalize(rng):
    for n in range(1, 7):
        for _ in range(5):
            # sparse: about a quarter of the outcome masks carry no effect
            masks = [m for m in range(1 << n) if rng.random() > 0.25]
            rows = [(rng.uniform(0.0, 1.0), *rng.normal(size=3)) for _ in masks]
            joint = JointPovm(n, masks, rows)
            povms = [BinaryQubitPovm(rng.uniform(-0.3, 0.3), rng.normal(size=3)) for _ in range(n)]
            err = joint.marginal_error(povms)
            assert abs(err - reference_marginal_error(joint, povms)) <= 1e-14
    p1, p2 = BinaryQubitPovm(0.1, [0.5, 0, 0]), BinaryQubitPovm(-0.2, [0.3, 0, 0])
    assert _product_joint(p1, p2).marginal_error([p1, p2]) <= 1e-15
    assert JointPovm(2, [], np.empty((0, 4))).marginal_error([p1, p2]) == reference_marginal_error(
        JointPovm(2, [], np.empty((0, 4))), [p1, p2]
    )


def reference_validate(joint, tol):
    """The per-effect check: one PSD violation per effect in insertion
    order, then completeness from running sums."""
    violations = []
    total_alpha, total_bloch = 0.0, np.zeros(3)
    for mask, eff in joint.effects.items():
        if eff.min_eigenvalue() < -tol:
            violations.append((f"effect[{mask}] PSD", -eff.min_eigenvalue()))
        total_alpha += eff.alpha
        total_bloch = total_bloch + eff.bloch
    comp = max(abs(total_alpha - 2.0), float(np.max(np.abs(total_bloch))))
    if comp > tol:
        violations.append(("completeness", comp))
    return not violations, violations


def test_validate_matches_per_effect_reference(rng):
    for n in range(1, 7):
        for _ in range(5):
            # shuffled sparse masks, about half the effects not PSD
            masks = [int(m) for m in rng.permutation(1 << n) if rng.random() > 0.25]
            rows = [(rng.uniform(0.0, 1.0), *(0.4 * rng.normal(size=3))) for _ in masks]
            joint = JointPovm(n, masks, rows)
            for tol in (1e-12, 0.05):
                report = joint.validate(tol)
                ok, violations = reference_validate(joint, tol)
                assert report.ok == ok and isinstance(report.violations, tuple)
                assert [name for name, _ in report.violations] == [name for name, _ in violations]
                np.testing.assert_allclose(
                    [v for _, v in report.violations], [v for _, v in violations], rtol=1e-13, atol=1e-15
                )
    # a valid product joint, and the empty joint (completeness only)
    p1, p2 = BinaryQubitPovm(0.1, [0.5, 0, 0]), BinaryQubitPovm(-0.2, [0, 0.3, 0])
    assert _product_joint(p1, p2).validate().ok
    assert JointPovm(2, [], np.empty((0, 4))).validate().violations == (("completeness", 2.0),)


def test_constructor_rejects_malformed_arrays():
    rows = [(1.0, 0.1, 0.0, 0.0), (1.0, -0.1, 0.0, 0.0)]
    JointPovm(1, [0, 1], rows)  # well formed
    for masks, bad_rows in (
        ([0, 2], rows),  # mask 2 needs two measurements
        ([0, 2**70], rows),  # past int64
        ([-1, 0], rows),
        ([1, 1], rows),
        ([0, 1], [(1.0, 0.1, 0.0, 0.0), (math.nan, -0.1, 0.0, 0.0)]),
        ([0, 1], [(1.0, 0.1, 0.0, 0.0), (1.0, -0.1, math.inf, 0.0)]),
        ([0, 1], [(1.0, 0.1, 0.0), (1.0, -0.1, 0.0)]),
        ([0], rows),
    ):
        with pytest.raises(ValueError):
            JointPovm(1, masks, bad_rows)


def test_joint_arrays_are_read_only_and_shared():
    masks = np.array([0, 1])
    rows = np.array([(1.0, 0.1, 0.0, 0.0), (1.0, -0.1, 0.0, 0.0)])
    j = JointPovm(1, masks, rows)
    rows[0, 0] = 5.0  # the caller's array is not the joint's
    assert j.rows[0, 0] == 1.0
    with pytest.raises(ValueError):
        j.rows[0, 0] = 5.0
    assert apply_orthogonal(j, np.eye(3)).masks is j.masks


def _random_sparse_joint(rng, n):
    # shuffled storage order, about a quarter of the outcome masks absent
    masks = [int(m) for m in rng.permutation(1 << n) if rng.random() > 0.25]
    rows = [(rng.uniform(0.0, 1.0), *rng.normal(size=3)) for _ in masks]
    return JointPovm(n, masks, np.reshape(rows, (-1, 4)))


def reference_marginalize(joint, keep):
    """marginalize as it was first written: a dict of effects, each one
    added to its kept outcome in storage order."""
    bits = [k - 1 for k in keep]
    out = {}
    for mask, eff in joint.effects.items():
        sub = 0
        for j, b in enumerate(bits):
            if mask >> b & 1:
                sub |= 1 << j
        if sub in out:
            out[sub] = Effect(out[sub].alpha + eff.alpha, out[sub].bloch + eff.bloch)
        else:
            out[sub] = eff
    return out


def test_marginalize_matches_per_effect_reference(rng):
    for n in range(1, 7):
        for _ in range(3):
            joint = _random_sparse_joint(rng, n)
            for m in range(1, n + 1):
                for keep in itertools.combinations(range(1, n + 1), m):
                    got = joint.marginalize(keep)
                    ref = reference_marginalize(joint, keep)
                    assert got.n == m and set(got.effects) == set(ref)
                    for mask, eff in got.effects.items():
                        assert abs(eff.alpha - ref[mask].alpha) <= 1e-15
                        assert np.max(np.abs(eff.bloch - ref[mask].bloch)) <= 1e-15


def test_marginalize_argument_checks():
    j = _product_joint(BinaryQubitPovm(0, [0.4, 0, 0]), BinaryQubitPovm(0, [0.2, 0, 0]))
    with pytest.raises(ValueError):
        j.marginalize([])
    with pytest.raises(ValueError):
        j.marginalize([2, 1])
    with pytest.raises(IndexError):
        j.marginalize([3])


def test_relabel_outcomes_and_joint_agree():
    p1 = BinaryQubitPovm(0.1, [0.5, 0, 0])
    p2 = BinaryQubitPovm(-0.2, [0.3, 0, 0])
    j = _product_joint(p1, p2)
    rj = JointPovm(2, j.masks ^ 0b01, j.rows)  # measurement 1's outcomes swapped
    rp = relabel_outcomes(p1, True)
    m = rj.marginal_povm(1)
    assert m.bias == pytest.approx(rp.bias, abs=1e-12)
    np.testing.assert_allclose(m.bloch, rp.bloch, atol=1e-12)
    m2 = rj.marginal_povm(2)
    np.testing.assert_allclose(m2.bloch, p2.bloch, atol=1e-12)


def test_apply_orthogonal_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        apply_orthogonal(Effect(1.0, [0.1, 0, 0]), np.eye(3) * 1.1)


@given(st.floats(-0.3, 0.3), finite, finite, finite, st.integers(0, 2**32 - 1))
def test_orthogonal_preserves_validity_and_norm(b, x, y, z, seed):
    a = np.array([x, y, z]) * 0.5
    if abs(b) > 1.0 - np.linalg.norm(a):
        return
    p = BinaryQubitPovm(b, a)
    O = random_orthogonal(np.random.default_rng(seed))
    q = apply_orthogonal(p, O)
    assert q.eta == pytest.approx(p.eta, abs=1e-12)
    assert validate_povm(q).ok == validate_povm(p).ok


def test_json_roundtrips_bit_exact():
    povms = [BinaryQubitPovm(1 / 3, [0.1, 0.2, -0.3]), BinaryQubitPovm(0, [1 / 7, 0, 0])]
    d = povms_to_json_dict(povms)
    back = povms_from_json_dict(json.loads(json.dumps(d)))
    for p, q in zip(povms, back):
        assert p.bias == q.bias
        assert np.array_equal(p.bloch, q.bloch)

    j = _product_joint(
        BinaryQubitPovm(1 / 3, [0.1, 0, 0]), BinaryQubitPovm(0, [1 / 7, 0, 0])
    )
    j2 = JointPovm.from_json_dict(json.loads(json.dumps(j.to_json_dict())))
    assert j2.n == j.n
    for mask, eff in j.effects.items():
        assert j2.effect(mask).alpha == eff.alpha
        assert np.array_equal(j2.effect(mask).bloch, eff.bloch)


def test_eta_is_cached_and_not_a_field(rng):
    assert list(inspect.signature(BinaryQubitPovm).parameters) == ["bias", "bloch"]
    p = BinaryQubitPovm(0.25, [0.5, 0, 0])
    p.eta, p.direction  # cached values are not fields either
    assert repr(p) == "BinaryQubitPovm(bias=0.25, bloch=array([0.5, 0. , 0. ]))"
    for bloch in rng.normal(size=(20, 3)) * 0.3:
        p = BinaryQubitPovm(0.1, bloch)
        assert "eta" not in vars(p)
        assert p.eta == float(np.linalg.norm(p.bloch))  # bit for bit
        assert type(p.eta) is float and vars(p)["eta"] is p.eta  # computed once
    p = BinaryQubitPovm(0.25, [0.3, -0.4, 0.0])
    assert p.eta == 0.5
    assert json.dumps(povms_to_json_dict([p])) == (
        '{"povms": [{"bias": 0.25, "bloch": [0.3, -0.4, 0.0]}]}'
    )


def test_components_are_cached_python_floats(rng):
    for bloch in [*rng.normal(size=(20, 3)) * 0.3, [0.1, -2, 0.3], (0.25, 0.5, -0.125)]:
        p = BinaryQubitPovm(-0.1, bloch)
        components = vars(p)["components"]  # set at construction
        assert p.components is components
        assert components == tuple(p.bloch) == tuple(np.array(bloch, dtype=float))  # bit for bit
        assert all(type(x) is float for x in components)
        assert p.bloch.dtype == np.float64 and p.bloch.shape == (3,)
        assert not p.bloch.flags.writeable


def test_bloch_is_a_read_only_copy():
    a = np.array([0.5, 0.0, 0.0])
    p = BinaryQubitPovm(0.0, a)
    assert p.eta == 0.5
    a[0] = 0.9  # the caller's array is not the POVM's
    assert p.bloch[0] == 0.5 and p.eta == 0.5
    with pytest.raises(ValueError):
        p.bloch[0] = 0.9


@given(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3))
def test_eta_is_numpy_norm_bit_for_bit(bloch):
    p = BinaryQubitPovm(0.0, bloch)
    assert p.eta == float(np.linalg.norm(np.array(bloch)))
    assert p.components == tuple(bloch)


@pytest.mark.parametrize(
    "bloch", [[0.1, 0.2], [[0.1, 0.2, 0.3]], 0.5, [0.1, math.nan, 0.0], [math.inf, 0.0, 0.0], ["x", 0, 0]]
)
def test_povm_rejects_bad_bloch_vectors(bloch):
    with pytest.raises(ValueError):
        BinaryQubitPovm(0.0, bloch)


def test_validate_measures_each_joint_once(rng):
    rows = [(rng.uniform(0.0, 1.0), *(0.4 * rng.normal(size=3))) for _ in range(8)]
    joint = JointPovm(3, range(8), rows)
    assert "_spectrum" not in vars(joint)
    loose = joint.validate(0.5)
    spectrum = vars(joint)["_spectrum"]
    strict = joint.validate(1e-12)
    assert vars(joint)["_spectrum"] is spectrum  # computed once per joint
    for report, tol in ((loose, 0.5), (strict, 1e-12)):
        ok, violations = reference_validate(joint, tol)
        assert report.ok == ok
        assert [name for name, _ in report.violations] == [name for name, _ in violations]
