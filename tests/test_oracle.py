import math
import time

import numpy as np
import pytest

from jmqubit import (
    BinaryQubitPovm,
    FEASIBLE,
    INCONCLUSIVE,
    LIKELY_INFEASIBLE,
    OracleParams,
    PlanarSymmetricFamily,
    agreement_sweep,
    pair_unbiased,
    planar_nwise_bound,
    unbiased_povm,
    verify_dual,
    verify_witness,
)
from jmqubit import oracle
from jmqubit.oracle import ORACLE_N_CAP, _marginal_system, _project_psd, _psd_jacobian, decide
from conftest import random_unit

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def reference_project_psd(V):
    """Row by row: clip the eigenvalues of (alpha I + bloch . sigma)/2 at
    zero and read (alpha, bloch) back off the rebuilt matrix."""
    out = np.empty_like(V)
    for i, row in enumerate(V):
        H = 0.5 * (row[0] * np.eye(2) + np.einsum("k,kij->ij", row[1:], PAULI))
        w, U = np.linalg.eigh(H)
        P = (U * np.maximum(w, 0.0)) @ U.conj().T
        out[i] = [np.trace(P).real] + [np.trace(P @ s).real for s in PAULI]
    return out


def reference_decide(povms, params=OracleParams()):
    """The Dykstra loop as written before the branchless PSD clipping and the
    folded affine projector: masked clipping, and (M M^T)^-1 applied to the
    marginal residual at every step. Returns (status, iterations, residual)."""

    def project_psd(V):
        alpha, bloch = V[:, 0], V[:, 1:]
        nb = np.linalg.norm(bloch, axis=1)
        lam_plus = 0.5 * (alpha + nb)
        lam_minus = 0.5 * (alpha - nb)
        out = V.copy()
        neg = lam_minus < 0.0
        dead = lam_plus <= 0.0
        fix = neg & ~dead
        if np.any(fix):
            lp = lam_plus[fix]
            out[fix, 0] = lp
            safe = np.where(nb[fix] > 0.0, nb[fix], 1.0)
            out[fix, 1:] = (lp / safe)[:, None] * bloch[fix]
        if np.any(dead):
            out[dead] = 0.0
        return out

    N = len(povms)
    idx = np.arange(1 << N)
    M = np.ones((N + 1, 1 << N))
    for k in range(N):
        M[k + 1] = (idx >> k) & 1
    T = np.zeros((N + 1, 4))
    T[0, 0] = 2.0
    for k, p in enumerate(povms):
        T[k + 1, 0] = 1.0 + p.bias
        T[k + 1, 1:] = p.bloch
    K = np.linalg.inv(M @ M.T)

    def proj(V):
        return V - M.T @ (K @ (M @ V - T))

    V = np.zeros((1 << N, 4))
    V[:, 0] = 2.0 / (1 << N)
    x = proj(V)
    p_corr = np.zeros_like(x)
    best = np.inf
    check_best = np.inf
    next_check = params.plateau
    for it in range(1, params.max_iter + 1):
        y = project_psd(x + p_corr)
        p_corr = x + p_corr - y
        x = proj(y)
        best = min(best, float(np.max(np.abs(y - x))))
        if best <= params.eps_feasible:
            return FEASIBLE, it, best
        if it >= next_check:
            if (
                best > params.eps_infeasible
                and best > check_best * (1.0 - params.plateau_rel_improvement)
            ):
                return LIKELY_INFEASIBLE, it, best
            check_best = best
            next_check = it + params.plateau
    return INCONCLUSIVE, params.max_iter, best


def test_psd_projection_properties(rng):
    V = rng.normal(size=(16, 4))
    P = _project_psd(V)
    # projected rows are PSD
    assert np.all(P[:, 0] - np.linalg.norm(P[:, 1:], axis=1) >= -1e-12)
    # idempotent
    np.testing.assert_allclose(_project_psd(P), P, atol=1e-12)
    # PSD rows are fixed points
    W = np.abs(V[:, :1]) * 2 + np.linalg.norm(V[:, 1:], axis=1, keepdims=True)
    V2 = np.hstack([W[:, :1], V[:, 1:]])
    np.testing.assert_allclose(_project_psd(V2), V2, atol=1e-12)


def test_psd_projection_matches_eigh_reference(rng):
    V = rng.normal(size=(200, 4))
    edge = np.array([
        [1.3, 0.0, 0.0, 0.0],  # |bloch| = 0, alpha of either sign
        [-0.7, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.25, 0.75, 0.0, -1.0],  # alpha = +|bloch| exactly
        [-1.25, 0.0, -1.0, 0.75],  # alpha = -|bloch| exactly
        [0.5, 0.0, 0.0, 0.5],
        [-0.5, 0.5, 0.0, 0.0],
        [-2.0, 0.3, -0.4, 0.5],  # alpha < -|bloch|
        [1e-300, 0.0, 0.0, 1e-300],
    ])
    for rows in (V, edge, 1e-6 * V):
        np.testing.assert_allclose(_project_psd(rows), reference_project_psd(rows), rtol=0, atol=1e-12)
    assert np.all(_project_psd(edge)[[1, 2, 4, 6, 7]] == 0.0)


def test_psd_jacobian_matches_finite_differences(rng):
    rows = rng.normal(size=(300, 4))
    nb = np.linalg.norm(rows[:, 1:], axis=1)
    # keep clear of the two cone boundaries, where the projection has a kink
    far = np.abs(np.abs(rows[:, 0]) - nb) > 1e-3
    rows, nb = rows[far], nb[far]
    # 2 inside the cone, 0 between, -2 in the polar cone
    regions = np.sign(rows[:, 0] - nb) + np.sign(rows[:, 0] + nb)
    assert set(regions) == {-2.0, 0.0, 2.0}
    J = _psd_jacobian(rows)
    h = 1e-6
    for q in range(4):
        dq = np.zeros(4)
        dq[q] = h
        fd = (_project_psd(rows + dq) - _project_psd(rows - dq)) / (2 * h)
        np.testing.assert_allclose(J[:, :, q], fd, rtol=0, atol=1e-7)
    np.testing.assert_array_equal(J[regions == 2.0], np.broadcast_to(np.eye(4), (np.sum(regions == 2.0), 4, 4)))
    assert np.all(J[regions == -2.0] == 0.0)


def biased_pair(eta):
    return [BinaryQubitPovm(0.15, [0.0, 0.0, eta]), BinaryQubitPovm(-0.1, [eta, 0.0, 0.0])]


@pytest.fixture(scope="module")
def reference_runs():
    """(povms, reference_decide(povms)) on both sides of several boundaries."""
    problems = [
        PlanarSymmetricFamily(N, planar_nwise_bound(N) * f).povms()
        for N in (3, 4, 5, 6)
        for f in (0.88, 0.98, 1.02, 1.12)
    ]
    problems += [biased_pair(0.65), biased_pair(0.75)]  # either side of its boundary
    rng = np.random.default_rng(8)
    problems.append([unbiased_povm(0.4, random_unit(rng)) for _ in range(8)])
    return [(povms, reference_decide(povms)) for povms in problems]


def test_iteration_matches_reference_loop(reference_runs, monkeypatch):
    # with the dual check out of reach the loop is the reference loop
    monkeypatch.setattr(oracle, "DUAL_EVERY", OracleParams().max_iter + 1)
    statuses = set()
    for povms, (status, iterations, residual) in reference_runs:
        res = decide(povms)
        assert (res.status, res.iterations) == (status, iterations)
        assert abs(res.residual - residual) <= 1e-12
        assert res.dual is None
        statuses.add(status)
    assert statuses == {FEASIBLE, LIKELY_INFEASIBLE}


def test_dual_exit_against_reference_loop(reference_runs):
    # default settings: feasible runs may end early at a Newton-polished
    # witness, infeasible runs at a Farkas dual
    infeasible = 0
    for povms, (status, iterations, residual) in reference_runs:
        res = decide(povms)
        assert res.iterations <= iterations
        if status == FEASIBLE:
            assert res.status == FEASIBLE
            assert verify_witness(res.witness, povms, res.params.witness_tol)
            assert res.dual is None
        else:
            assert res.status == LIKELY_INFEASIBLE
            assert res.dual is not None and verify_dual(res.dual, povms)
            infeasible += 1
    assert infeasible > 0


def test_failed_polish_leaves_the_loop_unchanged(reference_runs, monkeypatch):
    # the polish still runs at every checkpoint, but its joints are thrown
    # away: the Dykstra iterates must be the reference loop's
    polish = oracle._AffineProjector.polish
    monkeypatch.setattr(oracle._AffineProjector, "polish", lambda *args: polish(*args) and None)
    feasible = 0
    for povms, (status, iterations, residual) in reference_runs:
        res = decide(povms)
        if status == FEASIBLE:
            assert (res.status, res.iterations) == (status, iterations)
            assert abs(res.residual - residual) <= 1e-12
            feasible += 1
        else:  # the dual is tried before the polish
            assert res.status == LIKELY_INFEASIBLE and verify_dual(res.dual, povms)
    assert feasible > 0


def test_polish_witnesses_near_boundaries():
    rng = np.random.default_rng(8)
    problems = [PlanarSymmetricFamily(N, 0.995 * planar_nwise_bound(N)).povms() for N in (3, 4, 5, 6)]
    problems.append(biased_pair(0.65))
    problems.append([unbiased_povm(0.4, random_unit(rng)) for _ in range(8)])
    rng = np.random.default_rng(0)  # the N = 12 set of test_feasible_at_n_cap
    problems.append([unbiased_povm(0.3, random_unit(rng)) for _ in range(ORACLE_N_CAP)])
    for povms in problems:
        status, iterations, _ = reference_decide(povms)
        res = decide(povms)
        assert status == res.status == FEASIBLE
        assert res.iterations <= iterations
        assert verify_witness(res.witness, povms, res.params.witness_tol)
        assert res.residual <= res.params.witness_tol


def test_verify_dual_rejects_bad_duals():
    # biased, so no two rows of M^T Y tie on their cone slack
    bad = biased_pair(0.75)
    Y = decide(bad).dual
    assert verify_dual(Y, bad)
    assert not verify_dual(-Y, bad)
    # lower Y[0,0] until the tightest row of M^T Y leaves the cone;
    # <T, Y> only falls, so the cone test alone must reject it
    M, T = _marginal_system(bad)
    W = M.T @ Y
    slack = W[:, 0] - np.linalg.norm(W[:, 1:], axis=1)
    out = Y.copy()
    out[0, 0] -= np.min(slack) + 1e-9
    W_out = M.T @ out
    assert np.sum(W_out[:, 0] < np.linalg.norm(W_out[:, 1:], axis=1)) == 1
    assert np.vdot(T, out) < np.vdot(T, Y) < 0
    assert not verify_dual(out, bad)
    # a valid dual proves nothing about a feasible problem
    assert not verify_dual(Y, biased_pair(0.65))
    assert not verify_dual(Y[:-1], bad)


def test_feasible_at_n_cap(rng):
    # 2^12 rows: the affine step must stay two thin products
    povms = [unbiased_povm(0.3, random_unit(rng)) for _ in range(ORACLE_N_CAP)]
    res = decide(povms)
    assert res.status == FEASIBLE
    assert verify_witness(res.witness, povms)
    # the marginals of all 4096 effects are summed in one array pass
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        verify_witness(res.witness, povms)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.05


def test_feasible_pair_with_witness():
    povms = [unbiased_povm(0.6, EX), unbiased_povm(0.6, EY)]
    res = decide(povms)
    assert res.status == FEASIBLE
    assert res.residual <= 1e-9
    assert verify_witness(res.witness, povms)


def test_infeasible_pair():
    povms = [unbiased_povm(0.9, EX), unbiased_povm(0.9, EY)]
    res = decide(povms)
    assert res.status == LIKELY_INFEASIBLE
    assert res.residual > 1e-7
    assert res.witness is None
    assert verify_dual(res.dual, povms)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_commuting_pair():
    # projective plus an aligned noisy POVM: compatible with zero margin;
    # two rows of the polish's start sit exactly on the cone boundary,
    # where the Jacobian has a kink
    povms = [unbiased_povm(0.8, EX), unbiased_povm(1.0, EX)]
    res = decide(povms)
    assert res.status == FEASIBLE
    assert verify_witness(res.witness, povms)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polish_with_singular_hessian():
    # an infeasible triple whose dual needs four checkpoints: the failed
    # polishes run Newton steps into an H with zero eigenvalues (rows in
    # the polar cone), which NEWTON_RIDGE keeps solvable and quiet
    dirs = [
        [-0.5107937436299098, 0.8528742729182628, 0.10814446847937462],
        [-0.82950496324043, -0.040081410318072545, -0.5570592396742082],
        [-0.5886162667637395, -0.456465279681728, -0.667210865428764],
    ]
    povms = [unbiased_povm(0.6909, d) for d in dirs]
    res = decide(povms)
    assert res.status == LIKELY_INFEASIBLE and res.iterations > oracle.DUAL_EVERY
    assert verify_dual(res.dual, povms)


def test_biased_povms_supported():
    povms = [BinaryQubitPovm(0.2, [0.3, 0, 0]), BinaryQubitPovm(-0.1, [0, 0.3, 0])]
    res = decide(povms)
    assert res.status == FEASIBLE
    assert verify_witness(res.witness, povms)


def test_trine_both_sides():
    fam_ok = PlanarSymmetricFamily(3, 2 / 3 - 5e-3)
    fam_bad = PlanarSymmetricFamily(3, 2 / 3 + 5e-3)
    ok, bad = decide(fam_ok.povms()), decide(fam_bad.povms())
    assert ok.status == FEASIBLE and ok.dual is None
    assert bad.status == LIKELY_INFEASIBLE
    assert verify_dual(bad.dual, fam_bad.povms())


def test_n_cap_enforced():
    povms = [unbiased_povm(0.1, EX)] * (ORACLE_N_CAP + 1)
    with pytest.raises(ValueError):
        decide(povms)


def test_decide_rejects_empty_input():
    with pytest.raises(ValueError, match=f"1..{ORACLE_N_CAP}"):
        decide([])


def test_max_iter_inconclusive():
    povms = [unbiased_povm(0.9, EX), unbiased_povm(0.9, EY)]
    res = decide(povms, OracleParams(max_iter=3, plateau=10))
    assert res.status == INCONCLUSIVE


def test_witness_verification_rejects_wrong_marginals():
    povms = [unbiased_povm(0.6, EX), unbiased_povm(0.6, EY)]
    res = decide(povms)
    wrong = [unbiased_povm(0.6, EX), unbiased_povm(0.7, EY)]
    assert not verify_witness(res.witness, wrong)


def test_agreement_sweep_small_grid():
    def gen(eta):
        povms = [unbiased_povm(eta, EX), unbiased_povm(eta, EY)]
        return povms, pair_unbiased(eta, EX, eta, EY)

    etas = np.linspace(0.5, 0.9, 21)
    assert agreement_sweep(gen, etas) == []


def test_agreement_sweep_needs_a_dual(monkeypatch):
    # a plateau without a Farkas dual does not agree with an incompatible verdict
    def gen(eta):
        povms = [unbiased_povm(eta, EX), unbiased_povm(eta, EY)]
        return povms, pair_unbiased(eta, EX, eta, EY)

    etas = [0.6, 0.8, 0.9]  # 1/sqrt(2) is the boundary
    monkeypatch.setattr(oracle, "DUAL_EVERY", OracleParams().max_iter + 1)
    assert [(m.eta, m.oracle_status) for m in agreement_sweep(gen, etas)] == [
        (0.8, LIKELY_INFEASIBLE),
        (0.9, LIKELY_INFEASIBLE),
    ]


def test_agreement_sweep_requires_iff():
    from jmqubit import general_binary_sufficient

    def gen(eta):
        povms = [unbiased_povm(eta, random_unit(np.random.default_rng(i))) for i in range(3)]
        return povms, general_binary_sufficient(povms)

    with pytest.raises(ValueError):
        agreement_sweep(gen, [0.5])
