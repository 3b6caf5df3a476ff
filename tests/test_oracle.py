import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

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
from jmqubit.oracle import ORACLE_N_CAP, _flat_jacobian, _project_psd, checked_decision, decide
from jmqubit.povm import JointPovm, _marginal_system
from conftest import random_unit

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "decide_golden.json"
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def no_newton(monkeypatch):
    """Leave decide to Dykstra and its checkpoint duals: the polish, at the
    warm start and at every checkpoint, settles nothing."""
    monkeypatch.setattr(oracle._AffineProjector, "polish", lambda *args: None)


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
    for it in range(1, params.max_iter + 1):
        y = project_psd(x + p_corr)
        p_corr = x + p_corr - y
        x = proj(y)
        best = min(best, float(np.max(np.abs(y - x))))
        if best <= params.eps_feasible:
            return FEASIBLE, it, best
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


# Rows on which the projection or its Jacobian has a case of its own:
# |bloch| = 0 with alpha of either sign and zero, alpha = +-|bloch| exactly,
# strictly polar, and between the cones
EDGE_ROWS = np.array([
    [1.3, 0.0, 0.0, 0.0],
    [-0.7, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [1.25, 0.75, 0.0, -1.0],
    [-1.25, 0.0, -1.0, 0.75],
    [0.5, 0.0, 0.0, 0.5],
    [-0.5, 0.5, 0.0, 0.0],
    [-2.0, 0.3, -0.4, 0.5],
    [0.1, 0.3, -0.4, 0.5],
    [-0.1, 0.3, -0.4, 0.5],
    [0.0, 0.0, 1.0, 0.0],
])


def scaled_rows(rng):
    """Random and edge rows at scale 1, near 1e-150 and near 1e150: the
    powers of two keep alpha = +-|bloch| exact."""
    rows = np.vstack([rng.normal(size=(300, 4)), EDGE_ROWS])
    return [rows, 2.0**-500 * rows, 2.0**500 * rows]


def test_psd_projection_matches_eigh_reference(rng):
    V = rng.normal(size=(200, 4))
    for rows in (V, EDGE_ROWS, 1e-6 * V, np.array([[1e-300, 0.0, 0.0, 1e-300]])):
        np.testing.assert_allclose(_project_psd(rows), reference_project_psd(rows), rtol=0, atol=1e-12)
    for rows in scaled_rows(rng):
        scale = np.max(np.abs(rows))
        np.testing.assert_allclose(_project_psd(rows) / scale, reference_project_psd(rows / scale), rtol=0, atol=1e-12)
    assert np.all(_project_psd(EDGE_ROWS)[[1, 2, 4, 6, 7]] == 0.0)


def reference_psd_jacobian(V):
    """(rows, 4, 4) Jacobians of the PSD projection at each row (alpha, bloch),
    built with masks: I inside the cone (alpha >= |bloch|), 0 in the polar
    cone (alpha <= -|bloch|), and between them
    (1/2) [[1, u^T], [u, (1 + s) I - s u u^T]], u = bloch / |bloch|,
    s = alpha / |bloch|."""
    alpha = V[:, 0]
    nb = np.sqrt(np.einsum("ij,ij->i", V[:, 1:], V[:, 1:]))
    safe = np.where(nb > 0.0, nb, 1.0)  # |bloch| = 0 is never between
    u = V[:, 1:] / safe[:, None]
    s = alpha / safe
    J = np.empty((len(V), 4, 4))
    J[:, 0, 0] = 0.5
    J[:, 0, 1:] = J[:, 1:, 0] = 0.5 * u
    J[:, 1:, 1:] = (-0.5 * s)[:, None, None] * (u[:, :, None] * u[:, None, :])
    J[:, 1:, 1:] += (0.5 * (1.0 + s))[:, None, None] * np.eye(3)
    J[nb <= alpha] = np.eye(4)
    J[nb <= -alpha] = 0.0
    return J


def kernel_jacobian(V):
    return _flat_jacobian(_project_psd(V, True)[1]).reshape(-1, 4, 4)


def test_fused_kernel_matches_references(rng):
    # its projection is _project_psd's, and its Jacobian the masked
    # reference's, which does not change when a row is scaled
    for rows in scaled_rows(rng):
        np.testing.assert_array_equal(_project_psd(rows, True)[0], _project_psd(rows))
        np.testing.assert_allclose(kernel_jacobian(rows), reference_psd_jacobian(rows), rtol=0, atol=1e-12)
    J = kernel_jacobian(EDGE_ROWS)
    np.testing.assert_array_equal(J[[0, 3, 5]], np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert np.all(J[[1, 2, 4, 6, 7]] == 0.0)


@pytest.mark.parametrize("N", [3, 7])
def test_hessian_matches_the_reference_jacobian(rng, N):
    # N = 7 has 128 rows: H sums two 64-row blocks
    proj = oracle._AffineProjector([unbiased_povm(0.5, random_unit(rng)) for _ in range(N)])
    edge = EDGE_ROWS[rng.integers(len(EDGE_ROWS), size=(1 << N) // 2)]
    W = rng.permutation(np.vstack([rng.normal(size=(len(edge), 4)), edge]))
    J = reference_psd_jacobian(W)
    H = sum(np.kron(np.outer(m, m), J_i) for m, J_i in zip(proj.M.T, J))
    H += oracle.NEWTON_RIDGE * np.eye(len(H))
    np.testing.assert_allclose(proj.hessian(_project_psd(W, True)[1]), H, rtol=0, atol=1e-12)


def test_psd_jacobian_matches_finite_differences(rng):
    # the fused kernel's Jacobian, not the masked reference
    rows = rng.normal(size=(300, 4))
    nb = np.linalg.norm(rows[:, 1:], axis=1)
    # keep clear of the two cone boundaries, where the projection has a kink
    far = np.abs(np.abs(rows[:, 0]) - nb) > 1e-3
    rows, nb = rows[far], nb[far]
    # 2 inside the cone, 0 between, -2 in the polar cone
    regions = np.sign(rows[:, 0] - nb) + np.sign(rows[:, 0] + nb)
    assert set(regions) == {-2.0, 0.0, 2.0}
    J = kernel_jacobian(rows)
    h = 1e-6
    for q in range(4):
        dq = np.zeros(4)
        dq[q] = h
        fd = (_project_psd(rows + dq) - _project_psd(rows - dq)) / (2 * h)
        np.testing.assert_allclose(J[:, :, q], fd, rtol=0, atol=1e-7)
    np.testing.assert_array_equal(J[regions == 2.0], np.broadcast_to(np.eye(4), (np.sum(regions == 2.0), 4, 4)))
    assert np.all(J[regions == -2.0] == 0.0)


def test_system_cache_is_read_only():
    for N in (1, 3, 7):
        arrays = oracle._system(N)
        assert arrays is oracle._system(N)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
    proj = oracle._AffineProjector(PlanarSymmetricFamily(3, 0.5).povms())
    assert proj.M is oracle._system(3)[0] and proj.x0 is not oracle._system(3)[-1]


def summary(res):
    """What an answer holds, with floats exact."""
    witness = None if res.witness is None else [res.witness.masks.tolist(), res.witness.rows.tolist()]
    dual = None if res.dual is None else res.dual.tolist()
    return [res.status, res.iterations, res.newton_steps, repr(res.residual), witness, dual]


def test_cached_system_gives_a_fresh_process_answer():
    # one feasible and one infeasible set of the same N, decided one after the
    # other on one cached system, and each in a process of its own
    problems = [PlanarSymmetricFamily(4, f * planar_nwise_bound(4)) for f in (0.95, 1.05)]
    here = [summary(decide(fam.povms())) for fam in problems]
    assert [s[0] for s in here] == [FEASIBLE, LIKELY_INFEASIBLE]
    paths = [str(Path(oracle.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for fam, answer in zip(problems, here):
        code = (
            "import json; from test_oracle import summary; from jmqubit import PlanarSymmetricFamily, decide;"
            f"print(json.dumps(summary(decide(PlanarSymmetricFamily(4, {fam.eta!r}).povms()))))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == answer


def biased_pair(eta):
    return [BinaryQubitPovm(0.15, [0.0, 0.0, eta]), BinaryQubitPovm(-0.1, [eta, 0.0, 0.0])]


# Reference runs are bounded: without a dual or a polish an infeasible run
# goes on to max_iter, and so do the feasible ones at 0.98 x bound for
# N = 5 and N = 6, which need 1,578 and 5,016 Dykstra iterations.
REFERENCE_PARAMS = OracleParams(max_iter=1000)


@pytest.fixture(scope="module")
def reference_runs():
    """(povms, compatible, reference_decide(povms, REFERENCE_PARAMS)) on both
    sides of several boundaries. compatible is the problem's true side, known
    from its closed-form bound."""
    problems = [
        (PlanarSymmetricFamily(N, planar_nwise_bound(N) * f).povms(), f < 1.0)
        for N in (3, 4, 5, 6)
        for f in (0.88, 0.98, 1.02, 1.12)
    ]
    problems += [(biased_pair(0.65), True), (biased_pair(0.75), False)]  # either side of its boundary
    rng = np.random.default_rng(8)
    problems.append(([unbiased_povm(0.4, random_unit(rng)) for _ in range(8)], True))
    return [(povms, ok, reference_decide(povms, REFERENCE_PARAMS)) for povms, ok in problems]


def test_iteration_matches_reference_loop(reference_runs, monkeypatch):
    # with the polish off and the dual check out of reach the loop is the
    # reference loop
    no_newton(monkeypatch)
    monkeypatch.setattr(oracle, "DUAL_EVERY", REFERENCE_PARAMS.max_iter + 1)
    statuses = set()
    for povms, _, (status, iterations, residual) in reference_runs:
        res = decide(povms, REFERENCE_PARAMS)
        assert (res.status, res.iterations) == (status, iterations)
        assert abs(res.residual - residual) <= 1e-12
        assert res.dual is None
        statuses.add(status)
    assert statuses == {FEASIBLE, INCONCLUSIVE}


def test_dual_exit_against_reference_loop(reference_runs):
    # default settings: every run ends at the warm start's Newton polish, at a
    # witness or a Farkas dual, before any Dykstra iteration
    for povms, compatible, _ in reference_runs:
        res = decide(povms)
        assert res.iterations == res.newton_steps and 1 <= res.newton_steps <= oracle.NEWTON_STEPS
        if compatible:
            assert res.status == FEASIBLE
            assert verify_witness(res.witness, povms, res.params.witness_tol)
            assert res.dual is None
        else:
            assert res.status == LIKELY_INFEASIBLE
            assert res.dual is not None and verify_dual(res.dual, povms)


def test_failed_polish_leaves_the_loop_unchanged(reference_runs, monkeypatch):
    # the polish still runs, from the warm start and at every checkpoint, but
    # its answers are thrown away: the Dykstra iterates must be the
    # reference loop's
    polish = oracle._AffineProjector.polish
    monkeypatch.setattr(oracle._AffineProjector, "polish", lambda *args: polish(*args) and None)
    for povms, compatible, (status, iterations, residual) in reference_runs:
        res = decide(povms, REFERENCE_PARAMS)
        if compatible:
            assert (res.status, res.iterations - res.newton_steps) == (status, iterations)
            assert abs(res.residual - residual) <= 1e-12
        else:  # the dual is tried before the polish
            assert res.status == LIKELY_INFEASIBLE and verify_dual(res.dual, povms)


@pytest.mark.parametrize(
    "dual_every, params",
    [
        (oracle.DUAL_EVERY, OracleParams()),
        (REFERENCE_PARAMS.max_iter + 1, REFERENCE_PARAMS),
    ],
    ids=["default", "no-checkpoint"],
)
def test_infeasible_answer_carries_a_checked_dual(reference_runs, monkeypatch, dual_every, params):
    monkeypatch.setattr(oracle, "DUAL_EVERY", dual_every)
    for povms, _, _ in reference_runs:
        res = decide(povms, params)
        if res.status == LIKELY_INFEASIBLE:
            assert res.dual is not None and verify_dual(res.dual, povms)
        else:
            assert res.dual is None


def test_dual_for_a_subset_that_stalls(monkeypatch):
    # POVMs 2, 3, 4 and 6 of the golden-pool set biased-6-04: the Newton
    # polish proves it infeasible at the warm start, while Dykstra's gap
    # stalls for thousands of iterations before a checkpoint's dual checks
    povms = [
        BinaryQubitPovm(-0.27988786387693304, [0.4000776855528253, 0.04657500876588716, -0.432205164020495]),
        BinaryQubitPovm(0.11566298719722184, [0.471032631614286, -0.3202163753742009, 0.19737122761690384]),
        BinaryQubitPovm(0.23014871669558173, [0.10919989326995379, 0.5309992377524111, -0.3350727292556686]),
        BinaryQubitPovm(0.16013474309424225, [-0.05642599097952158, -0.4892736461828743, 0.1519694971947038]),
    ]
    res = decide(povms)
    assert res.status == LIKELY_INFEASIBLE and res.iterations == res.newton_steps
    assert verify_dual(res.dual, povms) and math.isfinite(res.residual)
    no_newton(monkeypatch)
    res = decide(povms)
    assert res.status == LIKELY_INFEASIBLE and res.iterations > 2500
    assert verify_dual(res.dual, povms)


# Golden-pool subsets that Dykstra, with a polish at each checkpoint, left
# inconclusive at 50,000 iterations
FORMERLY_INCONCLUSIVE = {
    "mixed-purity-6-06": [(1, 3, 4, 5)],
    "mixed-purity-7-04": [(1, 2, 4, 6, 7)],
    "same-purity-3d-6-10": [(1, 4, 5, 6), (2, 3, 4, 5)],
    "same-purity-3d-7-05": [(1, 3, 4, 6, 7)],
    "same-purity-3d-7-10": [(1, 2, 4, 7)],
    "coplanar-same-purity-7-00": [(1, 2, 3, 4, 5, 6), (1, 3, 4, 5, 6)],
    "biased-7-06": [(1, 2, 3), (1, 2, 3, 5)],
    "biased-7-17": [(1, 4, 7)],
}


def test_formerly_inconclusive_golden_subsets_settle():
    sets = {s["id"]: s["povms"] for s in json.loads(GOLDEN.read_text())["sets"]}
    for name, subsets in FORMERLY_INCONCLUSIVE.items():
        povms = [BinaryQubitPovm(p["bias"], p["bloch"]) for p in sets[name]]
        for subset in subsets:
            sub = [povms[i - 1] for i in subset]
            res = decide(sub)
            assert res.iterations - res.newton_steps <= 2 * oracle.DUAL_EVERY, (name, subset)
            assert checked_decision(res, sub) is not None, (name, subset)
            assert math.isfinite(res.residual)


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
        assert res.iterations - res.newton_steps <= iterations
        assert verify_witness(res.witness, povms, res.params.witness_tol)
        assert res.residual <= res.params.witness_tol


def check_rejects_bad_duals(Y, bad, leaving_rows):
    assert verify_dual(Y, bad)
    assert not verify_dual(-Y, bad)
    # lower Y[0,0] until the tightest row of M^T Y leaves the cone;
    # <T, Y> only falls, so the cone test alone must reject it
    M, T = _marginal_system(2, np.arange(4), bad)
    W = M.T @ Y
    slack = W[:, 0] - np.linalg.norm(W[:, 1:], axis=1)
    out = Y.copy()
    out[0, 0] -= np.min(slack) + 1e-9
    W_out = M.T @ out
    assert np.sum(W_out[:, 0] < np.linalg.norm(W_out[:, 1:], axis=1)) == leaving_rows
    assert np.vdot(T, out) < np.vdot(T, Y) < 0
    assert not verify_dual(out, bad)
    # a valid dual proves nothing about a feasible problem
    assert not verify_dual(Y, biased_pair(0.65))
    assert not verify_dual(Y[:-1], bad)


def test_verify_dual_rejects_bad_duals():
    # the Newton dual of the warm start lies on the cone boundary in every
    # row of M^T Y, so all four leave it together
    bad = biased_pair(0.75)
    check_rejects_bad_duals(decide(bad).dual, bad, leaving_rows=4)


def test_verify_dual_rejects_bad_checkpoint_duals(monkeypatch):
    # biased, so no two rows of the Dykstra checkpoint's M^T Y tie on their
    # cone slack
    no_newton(monkeypatch)
    bad = biased_pair(0.75)
    check_rejects_bad_duals(decide(bad).dual, bad, leaving_rows=1)


def test_witnesses_reload_at_eps_marg(rng):
    # what `joint --constructor oracle` writes must load back through
    # JointPovm.from_json_dict at its default tolerance, EPS_MARG
    problems = [
        [unbiased_povm(0.3, random_unit(rng)) for _ in range(ORACLE_N_CAP)],  # test_feasible_at_n_cap's
        [unbiased_povm(0.6, EX), unbiased_povm(0.6, EY)],  # the pair CI runs
    ]
    problems += [PlanarSymmetricFamily(8, f * planar_nwise_bound(8)).povms() for f in (0.9, 0.98, 0.995)]
    for povms in problems:
        res = decide(povms)
        assert res.status == FEASIBLE
        joint = JointPovm.from_json_dict(json.loads(json.dumps(res.witness.to_json_dict())))
        assert joint.marginal_error(povms) <= res.params.witness_tol


def test_dykstra_exit_witness_reloads_at_eps_marg(monkeypatch):
    # the polish is off at the warm start and no checkpoint comes, so the run
    # ends at Dykstra's eps_feasible exit, whose joint is PSD only to about
    # 1e-9 until the exit's own polish takes it to rounding level
    polish = oracle._AffineProjector.polish
    monkeypatch.setattr(
        oracle._AffineProjector, "polish", lambda *args: polish(*args) if args[-1] > 0 else None
    )
    monkeypatch.setattr(oracle, "DUAL_EVERY", OracleParams().max_iter + 1)
    for N in (3, 4):
        povms = PlanarSymmetricFamily(N, 0.9 * planar_nwise_bound(N)).povms()
        res = decide(povms)
        assert res.status == FEASIBLE and res.iterations > res.newton_steps > 0
        joint = JointPovm.from_json_dict(res.witness.to_json_dict())
        assert joint.marginal_error(povms) <= res.params.witness_tol


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
def test_polish_with_singular_hessian(monkeypatch):
    # an infeasible triple (its Dykstra dual needs four checkpoints): the
    # Newton steps from the warm start run into an H with zero eigenvalues
    # (rows in the polar cone), which NEWTON_RIDGE keeps solvable and quiet
    dirs = [
        [-0.5107937436299098, 0.8528742729182628, 0.10814446847937462],
        [-0.82950496324043, -0.040081410318072545, -0.5570592396742082],
        [-0.5886162667637395, -0.456465279681728, -0.667210865428764],
    ]
    povms = [unbiased_povm(0.6909, d) for d in dirs]
    smallest = []
    solve = np.linalg.solve

    def recording_solve(H, g):
        smallest.append(np.linalg.eigvalsh(H)[0])
        return solve(H, g)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    res = decide(povms)
    assert min(smallest) <= 2 * oracle.NEWTON_RIDGE
    assert res.status == LIKELY_INFEASIBLE and res.iterations == res.newton_steps
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


def test_max_iter_inconclusive(monkeypatch):
    povms = [unbiased_povm(0.9, EX), unbiased_povm(0.9, EY)]
    no_newton(monkeypatch)
    res = decide(povms, OracleParams(max_iter=3))
    assert res.status == INCONCLUSIVE and res.iterations == 3


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
    # a run that ends without a Farkas dual does not agree with an
    # incompatible verdict
    def gen(eta):
        povms = [unbiased_povm(eta, EX), unbiased_povm(eta, EY)]
        return povms, pair_unbiased(eta, EX, eta, EY)

    etas = [0.6, 0.8, 0.9]  # 1/sqrt(2) is the boundary
    no_newton(monkeypatch)
    monkeypatch.setattr(oracle, "DUAL_EVERY", REFERENCE_PARAMS.max_iter + 1)
    monkeypatch.setattr(oracle, "decide", lambda povms: decide(povms, REFERENCE_PARAMS))
    assert [(m.eta, m.oracle_status) for m in agreement_sweep(gen, etas)] == [
        (0.8, INCONCLUSIVE),
        (0.9, INCONCLUSIVE),
    ]


def test_agreement_sweep_requires_iff():
    from jmqubit import general_binary_sufficient

    def gen(eta):
        povms = [unbiased_povm(eta, random_unit(np.random.default_rng(i))) for i in range(3)]
        return povms, general_binary_sufficient(povms)

    with pytest.raises(ValueError):
        agreement_sweep(gen, [0.5])
