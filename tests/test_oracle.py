import itertools
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
    COMPATIBLE,
    UNKNOWN,
    BinaryQubitPovm,
    closed_form_decider,
    FEASIBLE,
    INCOMPATIBLE,
    INCONCLUSIVE,
    LIKELY_INFEASIBLE,
    OracleParams,
    PlanarSymmetricFamily,
    agreement_sweep,
    pair_general,
    pair_unbiased,
    planar_nwise_bound,
    unbiased_povm,
    verify_dual,
    verify_witness,
)
from jmqubit import oracle
from jmqubit.cli import _decider_for_mode
from jmqubit.oracle import ORACLE_N_CAP, _jacobian, _project_psd, checked_decision, decide
from jmqubit.povm import JointPovm, _marginal_system, _marginal_targets
from jmqubit.structures import structure_of
from conftest import random_unit

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "decide_golden.json"
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


def reference_decide(povms, max_iter=50000, tol=1e-9):
    """An independent reference: Dykstra's alternating projections with
    masked PSD clipping and (M M^T)^-1 applied to the marginal residual at
    every step, run until the gap between the two projections is at most tol.
    Returns (status, iterations, residual)."""

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
    for it in range(1, max_iter + 1):
        y = project_psd(x + p_corr)
        p_corr = x + p_corr - y
        x = proj(y)
        best = min(best, float(np.max(np.abs(y - x))))
        if best <= tol:
            return FEASIBLE, it, best
    return INCONCLUSIVE, max_iter, best


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
    return _jacobian(*_project_psd(V, True)[1]).reshape(-1, 4, 4)


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
    # N = 7 has 128 rows: H sums two 64-row blocks before its layout
    M, _, mm, layout, ridge, _ = oracle._system(N)
    edge = EDGE_ROWS[rng.integers(len(EDGE_ROWS), size=(1 << N) // 2)]
    W = rng.permutation(np.vstack([rng.normal(size=(len(edge), 4)), edge]))
    J = reference_psd_jacobian(W)
    H = sum(np.kron(np.outer(m, m), J_i) for m, J_i in zip(M.T, J))
    H += oracle.NEWTON_RIDGE * np.eye(len(H))
    np.testing.assert_allclose(oracle._hessian(mm, layout, ridge, _project_psd(W, True)[1]), H, rtol=0, atol=1e-12)


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


def reference_lift(Y, W):
    """The Farkas lift as a pass of its own over W = M^T Y: raise Y[0,0] in
    place by the worst cone violation among W's rows, plus DUAL_SLACK |Y|."""
    nb = np.sqrt(np.einsum("ij,ij->i", W[:, 1:], W[:, 1:]))
    Y[0, 0] += max(float(np.max(nb - W[:, 0])), 0.0) + oracle.DUAL_SLACK * float(np.linalg.norm(Y))
    return Y


def test_shared_norm_pass_matches_per_row_reference(rng):
    # the witness gate reads the upper half of the buffer, the Farkas
    # pre-test's worst row the lower half
    for rows in scaled_rows(rng):
        scale = np.max(np.abs(rows))
        pairs = [(rows, rng.permutation(rows)), (EDGE_ROWS, EDGE_ROWS[::-1]), (EDGE_ROWS, rng.normal(size=EDGE_ROWS.shape))]
        for x, W in pairs:
            gap, worst = oracle._cone_gaps(np.vstack([x, W]))
            want_gap = max(np.linalg.norm(row[1:]) - abs(row[0]) for row in x)
            want_worst = max(np.linalg.norm(row[1:]) + row[0] for row in W)
            assert type(gap) is type(worst) is float
            for got, want in ((gap, want_gap), (worst, want_worst)):
                assert abs(got - want) <= 1e-15 * max(scale, np.max(np.abs(W))), (got, want)
    # rows exactly on the cone's boundary and at bloch = 0 give exact gaps
    assert oracle._cone_gaps(np.vstack([EDGE_ROWS[[3, 5]], EDGE_ROWS[[4, 6]]])) == (0.0, 0.0)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_lift_from_the_pretest_matches_the_reference_lift(rng, N):
    M = oracle._system(N)[0]
    for k in range(60):
        Y = rng.normal(size=(N + 1, 4)) * 10.0 ** rng.integers(-3, 11)
        if k % 3 == 0:  # every row of M^T Y strictly inside the polar cone
            Y[0, 0] -= 100.0 * np.linalg.norm(Y)
        MtY = M.T @ Y
        if MtY[:, 0].sum() > 0.0:
            Y, MtY = -Y, -MtY
        scale = -float(MtY[:, 0].sum())
        _, worst = oracle._cone_gaps(np.vstack([MtY, MtY]))
        D = oracle._lift(Y, scale, worst)
        want = reference_lift(Y / -scale, MtY / -scale)
        rest = np.ones(D.shape, dtype=bool)
        rest[0, 0] = False
        assert np.array_equal(D[rest], want[rest])
        assert abs(D[0, 0] - want[0, 0]) <= oracle.DUAL_SLACK * np.linalg.norm(D)
        # lifted, every row of M^T D lies in the cone
        W = M.T @ D
        assert np.all(W[:, 0] >= np.linalg.norm(W[:, 1:], axis=1))


def test_system_cache_is_read_only():
    for N in (1, 3, 7):
        arrays = oracle._system(N)
        assert arrays is oracle._system(N)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
    # a call reads the cached system of its N and leaves it as it was
    before = [a.copy() for a in oracle._system(3)]
    for eta in (0.5, 0.7):
        decide(PlanarSymmetricFamily(3, eta).povms())
    for a, b in zip(oracle._system(3), before):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def summary(res):
    """What an answer holds, with floats exact."""
    witness = None if res.witness is None else [res.witness.masks.tolist(), res.witness.rows.tolist()]
    dual = None if res.dual is None else res.dual.tolist()
    return [res.status, res.iterations, repr(res.residual), witness, dual]


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


@pytest.fixture(scope="module")
def boundary_problems():
    """(povms, compatible) on both sides of several boundaries. compatible is
    the problem's true side, known from its closed-form bound."""
    problems = [
        (PlanarSymmetricFamily(N, planar_nwise_bound(N) * f).povms(), f < 1.0)
        for N in (3, 4, 5, 6)
        for f in (0.88, 0.98, 1.02, 1.12)
    ]
    problems += [(biased_pair(0.65), True), (biased_pair(0.75), False)]  # either side of its boundary
    rng = np.random.default_rng(8)
    problems.append(([unbiased_povm(0.4, random_unit(rng)) for _ in range(8)], True))
    return problems


def test_dual_exit_against_reference_loop(boundary_problems):
    # every run ends at a checked witness or a checked Farkas dual, within
    # the 14 steps that the undamped steps took on these problems
    for povms, compatible in boundary_problems:
        res = decide(povms)
        assert 1 <= res.iterations <= 14
        if compatible:
            assert res.status == FEASIBLE
            assert verify_witness(res.witness, povms, res.params.witness_tol)
            assert res.dual is None
        else:
            assert res.status == LIKELY_INFEASIBLE
            assert res.dual is not None and verify_dual(res.dual, povms)


def test_infeasible_answer_carries_a_checked_dual(boundary_problems):
    for povms, _ in boundary_problems:
        res = decide(povms)
        if res.status == LIKELY_INFEASIBLE:
            assert res.dual is not None and verify_dual(res.dual, povms)
        else:
            assert res.dual is None


def test_dual_for_a_subset_that_stalls():
    # POVMs 2, 3, 4 and 6 of the golden-pool set biased-6-04: the Newton
    # steps prove it infeasible, while a first-order method's gap stalls for
    # thousands of iterations before its dual checks
    povms = [
        BinaryQubitPovm(-0.27988786387693304, [0.4000776855528253, 0.04657500876588716, -0.432205164020495]),
        BinaryQubitPovm(0.11566298719722184, [0.471032631614286, -0.3202163753742009, 0.19737122761690384]),
        BinaryQubitPovm(0.23014871669558173, [0.10919989326995379, 0.5309992377524111, -0.3350727292556686]),
        BinaryQubitPovm(0.16013474309424225, [-0.05642599097952158, -0.4892736461828743, 0.1519694971947038]),
    ]
    res = decide(povms)
    assert res.status == LIKELY_INFEASIBLE and res.iterations <= 14
    assert verify_dual(res.dual, povms) and math.isfinite(res.residual)


# Golden-pool subsets that a Dykstra fallback, with undamped Newton steps
# every 50 iterations, left inconclusive at 50,000 iterations; the damped
# steps prove each infeasible in 10 to 13 steps
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
            assert res.iterations <= 14, (name, subset)
            assert checked_decision(res, sub) is not None, (name, subset)
            assert math.isfinite(res.residual)


@pytest.mark.parametrize(
    "name, subset", [("biased-7-12", (4, 5, 7)), ("biased-7-19", (2, 4, 7))], ids=["biased-7-12", "biased-7-19"]
)
def test_damped_steps_on_golden_subsets(name, subset):
    # the two golden-pool subsets on which full steps fail Armijo's test:
    # undamped, {4, 5, 7} of biased-7-12 took 14 steps without an answer and
    # {2, 4, 7} of biased-7-19 took 11 steps to its dual
    sets = {s["id"]: s["povms"] for s in json.loads(GOLDEN.read_text())["sets"]}
    povms = [BinaryQubitPovm(p["bias"], p["bloch"]) for p in sets[name]]
    sub = [povms[i - 1] for i in subset]
    res = decide(sub)
    assert (res.status, res.iterations) == (LIKELY_INFEASIBLE, 5)
    assert checked_decision(res, sub) == INCOMPATIBLE


def test_golden_pool_in_both_mode():
    # check --mode both's decider on every golden set: the oracle settles
    # each subset closed form leaves Unknown, and no subset that closed form
    # decides changes its decision in the structure
    sets = json.loads(GOLDEN.read_text())["sets"]
    assert len(sets) == 240
    settled = 0
    for entry in sets:
        povms = [BinaryQubitPovm(p["bias"], p["bloch"]) for p in entry["povms"]]
        both, closed = _decider_for_mode(povms, "both"), {}

        def recording(combo):
            v = both(combo)
            if v.criterion_id != "oracle":
                closed[combo] = v.decision
            return v

        struct = structure_of(povms, recording)
        assert not struct.undecided, entry["id"]
        for combo, decision in closed.items():
            assert struct.is_compatible(combo) == (decision == COMPATIBLE), (entry["id"], combo)
        for m in entry["structure"]["maximal"]:  # closed form's own structure
            assert struct.is_compatible(m), (entry["id"], m)
        settled += len(entry["undecided"])
    assert settled > 0


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


def extremal_family(seed):
    """Seeded problems at N = 2..4, each holding a POVM on the boundary of
    validity, |b| + |a| = 1, so that one effect has a zero eigenvalue and the
    feasible set no interior. The other POVMs are noisy, but at N = 2 they
    are extremal too half of the time, and every fourth pair holds a sharp
    unbiased POVM (b = 0, |a| = 1). At N = 3 and 4, where a sharp POVM would
    leave no compatible pair, a set is kept only when closed form leaves it
    Unknown while its pairs are compatible."""
    rng = np.random.default_rng(seed)
    problems = []
    for N, count in ((2, 40), (3, 15), (4, 15)):
        while count:
            b = 0.0 if N == 2 and count % 4 == 0 else float(rng.uniform(-0.35, 0.35))
            povms = [BinaryQubitPovm(b, (1.0 - abs(b)) * random_unit(rng))]
            for _ in range(N - 1):
                b = float(rng.uniform(-0.35, 0.35))
                a = 1.0 if N == 2 and rng.random() < 0.5 else float(rng.uniform(0.3, 0.75))
                povms.append(BinaryQubitPovm(b, a * (1.0 - abs(b)) * random_unit(rng)))
            decider, full = closed_form_decider(povms), tuple(range(1, N + 1))
            pairs = itertools.combinations(full, 2)
            if N > 2 and (decider(full).decision != UNKNOWN or any(decider(c).decision != COMPATIBLE for c in pairs)):
                continue
            problems.append(povms)
            count -= 1
    return problems


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_extremal_family_is_decided(seed):
    sides = set()
    for povms in extremal_family(seed):
        start = time.perf_counter()
        res = decide(povms)
        seconds = time.perf_counter() - start
        decision = checked_decision(res, povms)
        assert decision is not None, (res.status, res.iterations, povms)
        assert seconds < 0.05, (seconds, res.iterations)
        if len(povms) == 2:
            verdict = pair_general(*povms)
            if abs(verdict.margin) > 1e-9:
                assert decision == verdict.decision, (verdict.margin, povms)
        sides.add((len(povms), decision))
    assert sides == {(N, d) for N in (2, 3, 4) for d in (COMPATIBLE, INCOMPATIBLE)}


def check_rejects_bad_duals(Y, bad, leaving_rows):
    assert verify_dual(Y, bad)
    assert not verify_dual(-Y, bad)
    # lower Y[0,0] until the tightest row of M^T Y leaves the cone;
    # <T, Y> only falls, so the cone test alone must reject it
    M, T = _marginal_system(2, np.arange(4)), _marginal_targets(2, bad)
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
    # an infeasible triple: the Newton steps from the warm start run into an
    # H with zero eigenvalues (rows in the polar cone), which NEWTON_RIDGE
    # keeps solvable and quiet
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
    assert res.status == LIKELY_INFEASIBLE
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
    # a feasible pair that takes 5 steps, cut at 3
    res = decide(biased_pair(0.65), OracleParams(max_iter=3))
    assert res.status == INCONCLUSIVE and res.iterations == 3
    assert res.witness is None and res.dual is None and math.isfinite(res.residual)


def test_stopped_line_search_is_inconclusive(monkeypatch):
    # theta made to fall at every trial point: the halving stops once the
    # rise it asks for is below theta's rounding, and the run ends there
    point, calls = oracle._point, []

    def falling_point(M, T, x0, Y):
        calls.append(Y)
        *rest, theta = point(M, T, x0, Y)
        return (*rest, theta - len(calls))

    monkeypatch.setattr(oracle, "_point", falling_point)
    res = decide(biased_pair(0.65))
    assert res.status == INCONCLUSIVE and res.iterations == 1
    assert 2 < len(calls) < 100


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
    # incompatible verdict: with 2 steps the compatible pair is proven and
    # the two incompatible ones, which take 3, are not
    def gen(eta):
        povms = biased_pair(eta)
        return povms, pair_general(*povms)

    etas = [0.6, 0.7, 0.72]  # the boundary lies near 0.695
    monkeypatch.setattr(oracle, "decide", lambda povms: decide(povms, OracleParams(max_iter=2)))
    assert [(m.eta, m.oracle_status) for m in agreement_sweep(gen, etas)] == [
        (0.7, INCONCLUSIVE),
        (0.72, INCONCLUSIVE),
    ]


def test_agreement_sweep_requires_iff():
    from jmqubit import general_binary_sufficient

    def gen(eta):
        povms = [unbiased_povm(eta, random_unit(np.random.default_rng(i))) for i in range(3)]
        return povms, general_binary_sufficient(povms)

    with pytest.raises(ValueError):
        agreement_sweep(gen, [0.5])
