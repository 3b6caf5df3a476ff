import math

import numpy as np
import pytest

from jmqubit import (
    BinaryQubitPovm,
    PlanarSymmetricFamily,
    build_coplanar_same_purity_joint,
    coplanar_chain_bound,
    build_general_binary_joint,
    build_planar_symmetric_joint,
    chain_margin,
    planar_nwise_bound,
    planar_subset_bound,
    surgery_mtuple,
    unbiased_povm,
)
from jmqubit.surgery import BOUND_SLACK
from conftest import random_unit


def assert_marginals(joint, povms, tol=1e-12):
    rep = joint.validate(tol)
    assert rep.ok, rep.violations
    for k, p in enumerate(povms, start=1):
        m = joint.marginal_povm(k)
        assert abs(m.bias - p.bias) <= tol
        assert np.max(np.abs(m.bloch - p.bloch)) <= tol


def test_family_directions():
    fam = PlanarSymmetricFamily(4, 0.6)
    np.testing.assert_allclose(fam.direction(1), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(
        fam.direction(2), [math.cos(math.pi / 4), math.sin(math.pi / 4), 0], atol=1e-15
    )
    with pytest.raises(IndexError):
        fam.direction(5)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
def test_planar_symmetric_joint_marginals(N):
    eta = 0.9 * planar_nwise_bound(N)
    fam = PlanarSymmetricFamily(N, eta)
    joint = build_planar_symmetric_joint(fam)
    assert len(joint.effects) == 2 * N
    assert_marginals(joint, fam.povms())


def test_planar_symmetric_outcome_rule():
    # N=4, direction e at angle pi/8 lands between lines 1 and 2: the outcome
    # string must be (+1, +1, +1, -1) relative to lines at 0, 45, 90, 135 deg
    joint = build_planar_symmetric_joint(PlanarSymmetricFamily(4, 0.5))
    mask = 0b0111
    eff = joint.effect(mask)
    assert eff.alpha > 0
    ang = math.atan2(eff.bloch[1], eff.bloch[0])
    assert ang == pytest.approx(math.pi / 8, abs=1e-12)


def test_planar_symmetric_rank_one_at_bound():
    for N in (3, 4, 5):
        joint = build_planar_symmetric_joint(
            PlanarSymmetricFamily(N, planar_nwise_bound(N))
        )
        for eff in joint.effects.values():
            assert abs(eff.min_eigenvalue()) <= 1e-12
    with pytest.raises(ValueError):
        build_planar_symmetric_joint(PlanarSymmetricFamily(4, planar_nwise_bound(4) + 1e-9))


def test_coplanar_chain_joint_random(rng):
    for _ in range(30):
        m = rng.integers(2, 6)
        angles = np.sort(rng.uniform(0.05, math.pi * 0.95, size=m - 1))
        while np.any(np.diff(angles) < 1e-3):
            angles = np.sort(rng.uniform(0.05, math.pi * 0.95, size=m - 1))
        from jmqubit import coplanar_chain_bound

        eta = rng.uniform(0.2, 1.0) * coplanar_chain_bound(angles)
        joint = build_coplanar_same_purity_joint(angles, eta)
        alphas = [0.0] + list(angles)
        povms = [
            unbiased_povm(eta, [math.cos(a), math.sin(a), 0.0]) for a in alphas
        ]
        assert_marginals(joint, povms, tol=1e-11)
        assert len(joint.effects) == 2 * m


def test_coplanar_chain_keys_are_runs():
    angles = [0.4, 0.9, 1.4, 2.1, 2.8]
    from jmqubit import coplanar_chain_bound

    joint = build_coplanar_same_purity_joint(angles, 0.9 * coplanar_chain_bound(angles))
    n = 6
    expected = set()
    for p in range(1, n):
        plus = (1 << p) - 1
        expected |= {plus, plus ^ ((1 << n) - 1)}
    expected |= {0, (1 << n) - 1}
    assert set(joint.effects) == expected
    assert len(expected) == 2 * n  # N=6: the 12 run strings


def test_coplanar_chain_rank_one_at_bound():
    angles = [0.7, 1.5]
    from jmqubit import coplanar_chain_bound

    joint = build_coplanar_same_purity_joint(angles, coplanar_chain_bound(angles))
    mins = [abs(e.min_eigenvalue()) for e in joint.effects.values()]
    assert min(mins) <= 1e-12  # the all-equal effects collapse to rank one


def test_surgery_mtuple_random_subsets(rng):
    for _ in range(30):
        N = int(rng.integers(3, 9))
        m = int(rng.integers(2, min(N, 5) + 1))
        ks = sorted(rng.choice(np.arange(1, N + 1), size=m, replace=False).tolist())
        eta = rng.uniform(0.2, 1.0) * planar_subset_bound(N, ks)
        fam = PlanarSymmetricFamily(N, eta)
        joint = surgery_mtuple(N, ks, eta)
        assert_marginals(joint, fam.povms(ks), tol=1e-11)
        # the caller's POVMs give the same joint, bit for bit
        again = surgery_mtuple(N, ks, eta, fam.povms(ks))
        assert again.masks.tolist() == joint.masks.tolist()
        assert again.rows.tolist() == joint.rows.tolist()


def test_planar_certificate_builds_its_povms_once(monkeypatch):
    calls = []
    povm = PlanarSymmetricFamily.povm
    monkeypatch.setattr(PlanarSymmetricFamily, "povm", lambda self, k: calls.append(k) or povm(self, k))
    from jmqubit import realize_n_cycle, realize_n_specker

    for realize, N in ((realize_n_cycle, 9), (realize_n_specker, 6)):
        calls.clear()
        realize(N)
        assert calls == list(range(1, N + 1))  # the family's POVMs, and no witness rebuilds them


def closed_form_coplanar_joint(thetas, eta):
    """The paper's closed-form joint for unbiased purity-eta POVMs on lines at
    increasing angles thetas (span below pi), as mask -> (alpha, bloch): for
    each gap p a rank-one pair (w, +-w t_p), w = eta sin(gap/2) and t_p =
    (sin m_p, -cos m_p, 0) with m_p the gap's midpoint, and the all-equal pair
    (1 - eta sum sin(gap/2), +-eta cos(span/2) s), s along the mean line."""
    N = len(thetas)
    full = (1 << N) - 1
    effects = {}
    sin_total = 0.0
    for p in range(1, N):
        half_gap = (thetas[p] - thetas[p - 1]) / 2.0
        mean = (thetas[p] + thetas[p - 1]) / 2.0
        w = eta * math.sin(half_gap)
        sin_total += math.sin(half_gap)
        t = np.array([math.sin(mean), -math.cos(mean), 0.0])
        plus = (1 << p) - 1
        effects[plus] = (w, w * t)
        effects[plus ^ full] = (w, -w * t)
    mid = (thetas[0] + thetas[-1]) / 2.0
    g = eta * math.cos((thetas[-1] - thetas[0]) / 2.0)
    s = np.array([math.cos(mid), math.sin(mid), 0.0])
    effects[full] = (1.0 - eta * sin_total, g * s)
    effects[0] = (1.0 - eta * sin_total, -g * s)
    return effects


def assert_matches_closed_form(joint, thetas, eta, tol=1e-15):
    ref = closed_form_coplanar_joint(thetas, eta)
    assert set(joint.effects) == set(ref)
    for mask, (alpha, bloch) in ref.items():
        eff = joint.effects[mask]
        assert abs(eff.alpha - alpha) <= tol
        assert np.max(np.abs(eff.bloch - bloch)) <= tol


def test_chain_constructors_match_closed_form(rng):
    for _ in range(200):
        m = int(rng.integers(2, 7))
        angles = np.sort(rng.uniform(0.0, math.pi, size=m - 1))
        if angles[0] <= 0.0 or np.any(np.diff(angles) <= 0.0):
            continue
        bound = coplanar_chain_bound(angles)
        eta = rng.uniform(0.1, 1.0) * bound
        thetas = [0.0] + list(angles)
        assert_matches_closed_form(build_coplanar_same_purity_joint(angles, eta), thetas, eta)

        N = int(rng.integers(2, 13))
        ks = sorted(rng.choice(np.arange(1, N + 1), size=min(m, N), replace=False).tolist())
        eta = rng.uniform(0.1, 1.0) * planar_subset_bound(N, ks)
        thetas = [(k - 1) * math.pi / N for k in ks]
        assert_matches_closed_form(surgery_mtuple(N, ks, eta), thetas, eta)


def test_chain_constructors_bound_slack(rng):
    for _ in range(50):
        m = int(rng.integers(2, 6))
        angles = np.sort(rng.uniform(0.05, math.pi * 0.95, size=m - 1))
        bound = coplanar_chain_bound(angles)
        build_coplanar_same_purity_joint(angles, bound + 0.5 * BOUND_SLACK)
        with pytest.raises(ValueError):
            build_coplanar_same_purity_joint(angles, bound + 2e-12)

        N = int(rng.integers(m, 13))
        ks = sorted(rng.choice(np.arange(1, N + 1), size=m, replace=False).tolist())
        bound = planar_subset_bound(N, ks)
        surgery_mtuple(N, ks, bound + 0.5 * BOUND_SLACK)
        with pytest.raises(ValueError):
            surgery_mtuple(N, ks, bound + 2e-12)


def test_surgery_bound_enforced():
    with pytest.raises(ValueError):
        surgery_mtuple(6, [1, 2], planar_subset_bound(6, [1, 2]) + 1e-9)


@pytest.mark.parametrize("eta", [-0.9, -1e-12, 0.0])
def test_chain_constructors_reject_nonpositive_eta(eta):
    # a negative eta passes every bound check, and the chain joint built
    # from it is not a POVM
    with pytest.raises(ValueError):
        build_coplanar_same_purity_joint([2.0], eta)
    with pytest.raises(ValueError):
        surgery_mtuple(4, [1, 3], eta)
    assert_marginals(build_coplanar_same_purity_joint([2.0], 1e-12), [
        unbiased_povm(1e-12, [1.0, 0.0, 0.0]),
        unbiased_povm(1e-12, [math.cos(2.0), math.sin(2.0), 0.0]),
    ])


def test_general_chain_random_biased(rng):
    built = 0
    while built < 30:
        n = int(rng.integers(1, 5))
        ps = []
        for _ in range(n):
            b = rng.uniform(-0.15, 0.15)
            a = rng.uniform(0.05, 0.4) * random_unit(rng)
            ps.append(BinaryQubitPovm(b, a))
        if chain_margin(ps) < 0:
            continue
        joint, relab = build_general_binary_joint(ps)
        assert_marginals(joint, ps, tol=1e-11)
        assert sorted(relab.order) == list(range(n))
        built += 1


def test_general_chain_rejects_violations():
    ps = [unbiased_povm(0.9, [1, 0, 0]), unbiased_povm(0.9, [0, 1, 0])]
    with pytest.raises(ValueError):
        build_general_binary_joint(ps)


def test_general_chain_relabeling_roundtrip():
    # mixed biases force both a flip and a reordering
    ps = [BinaryQubitPovm(0.1, [0.2, 0, 0]), BinaryQubitPovm(-0.05, [0.1, 0.1, 0])]
    joint, relab = build_general_binary_joint(ps)
    assert any(relab.flips) or relab.order != (0, 1)
    assert_marginals(joint, ps, tol=1e-12)
