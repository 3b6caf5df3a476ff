"""Criterion-independent joint-measurability oracle.

Joint measurability of N binary qubit POVMs is a convex feasibility problem:
find 2^N PSD effects (each a 2x2 Hermitian, stored as an (alpha, bloch)
4-vector, PSD iff alpha >= |bloch|) with M V = T, where row 0 of M is
completeness and row k the x_k = +1 marginal indicator. Both answers carry a
witness checkable in a few lines:

- Feasible carries the joint POVM (`verify_witness`).
- LikelyInfeasible carries a Farkas dual Y of shape (N+1) x 4
  (`verify_dual`): every row of M^T Y lies in the Lorentz cone and
  <T, Y> < 0. For any feasible V, <T, Y> = <M V, Y> = <V, M^T Y> >= 0,
  because the cone is self-dual, so no feasible V exists. The status keeps
  the string "likely-infeasible", which callers key on, although every such
  answer is proven by its `dual`.

A run that finds neither in max_iter Newton steps is Inconclusive. The steps
ascend the smooth concave dual of projecting the warm start x0 onto the
feasible set (P the row-wise PSD projection, Y an (N+1) x 4 multiplier):

    theta(Y) = <T, Y> - |P(x0 + M^T Y)|^2 / 2,  grad = T - M P(x0 + M^T Y).

From Y = 0 each step is semismooth Newton (as for the nearest correlation
matrix: Qi and Sun, SIMAX 28, 2006), d = H^-1 grad with H = sum_i m_i m_i^T
(x) J_i (m_i the i-th column of M, J_i the Jacobian of P at row i), on
4(N+1) unknowns, damped by Armijo backtracking: Y <- Y + t d, t halved from 1
until theta rises by ARMIJO t <grad, d> (ARMIJO states the stop rule). Each
step ends with two tests:

- The cone point P(x0 + M^T Y), projected onto M V = T, is a witness once it
  meets verify_witness's tolerances; one more step, if the budget allows,
  and the better of the two is kept. Where the feasible set has an interior
  that step takes it to rounding level, and the joint also reloads at
  EPS_MARG. On extremal input (a POVM with |b| + |a| = 1, an effect with a
  zero eigenvalue) there is no interior: the joint is proven within
  witness_tol only (residuals of 1e-9 to 1e-8) and reloads at that tolerance.
- On an infeasible problem theta is unbounded above and the steps run off
  along a ray (|Y| near 1e10) on which -Y is a Farkas direction. -Y, scaled
  to sum_i (M^T (-Y))_i0 = 1 and lifted into the cone, is accepted only
  through verify_dual.

The problems are small (2^N <= 4096 rows, mostly 8 to 64), so a step costs
what its numpy calls cost. What depends on N alone is built once per N and
kept read-only (`_system`). A trial point is one branchless pass over the
rows for the PSD projection, which keeps |bloch| and r, and theta. Only an
accepted point gets its Jacobian, as flat per-row coefficients, and H: one
((N+1)^2, 64) @ (64, 16) product per 64-row block (one up to N = 6), laid
out by one cached take, then one solve. Both answer tests read one norm pass
over the affine projection of the point (two thin products, not the
2^N x 2^N projector) stacked with M^T Y. Each answer is checked once: the
witness test runs once that projection is PSD to within witness_tol, and
the joint is built from the arrays it passed; a Farkas candidate is lifted
by the worst row of that pass, only when a scalar pre-test on that row
allows, and checked by verify_dual's test against the call's own M and T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .criteria import COMPATIBLE, INCOMPATIBLE, IFF
from .povm import EPS_MARG, JointPovm, _marginal_system, _marginal_targets

ORACLE_N_CAP = 12

FEASIBLE = "feasible"
LIKELY_INFEASIBLE = "likely-infeasible"
INCONCLUSIVE = "inconclusive"

_TINY = np.finfo(float).tiny
# B and I of _jacobian, flat: B is 1 on the alpha and the bloch block
_B = np.equal.outer(np.arange(4) > 0, np.arange(4) > 0).ravel().astype(float)
_I = np.eye(4).ravel()

# Farkas duals: a candidate is formed after every Newton step. A dual is
# accepted only when <T, Y> < -DUAL_SLACK * |T| * |Y| (Frobenius norms), so
# rounding in M^T Y and <T, Y>, each of relative size N * 1e-16, can never
# carry a wrong proof. The oracle lifts a candidate's cone rows by the same
# relative slack so that the exact float cone test in verify_dual passes.
DUAL_SLACK = 1e-12

# NEWTON_RIDGE keeps the Newton solve defined where H is singular (rows in the
# polar cone, as when the steps run off). The line search asks for a rise of
# ARMIJO t <grad, d> and stops once that is at most 1e-16 |theta|, below
# theta's rounding: at t = 1 the full step is taken untested (near a solution
# rounding alone fails the test), at t < 1 the run ends Inconclusive.
NEWTON_RIDGE = 1e-12
ARMIJO = 1e-4


class OracleParams(NamedTuple):
    max_iter: int = 200  # Newton steps
    witness_tol: float = 1e-8


# a dataclass, not a named tuple: perfbench derives verdicts from it with
# dataclasses.replace
@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str
    residual: float
    iterations: int  # Newton steps
    witness: Optional[JointPovm] = None
    params: OracleParams = OracleParams()
    # Farkas dual proving infeasibility; left out of ==, which an array breaks
    dual: Optional[np.ndarray] = field(default=None, compare=False)


def _project_psd(V: np.ndarray, jacobian: bool = False):
    """Nearest-PSD projection of each (alpha, bloch) row in one branchless
    pass: the eigenvalues (alpha +- |bloch|)/2 are clipped at zero, keeping
    the eigenbasis. With lp the clipped alpha + |bloch| and
    r = lp / max(2 |bloch|, lp), the row becomes (lp - r |bloch|, r bloch):
    r is 1 inside the cone and 0 in the polar cone. With jacobian, also
    (V, |bloch|, r), from which _jacobian forms the Jacobian."""
    alpha = V[:, 0]
    nb = np.hypot(np.hypot(V[:, 1], V[:, 2]), V[:, 3])
    lp = np.maximum(alpha + nb, 0.0)
    r = lp / (np.maximum(nb + nb, lp) + _TINY)  # lp = 0 = |bloch| gives 0
    out = V * r[:, None]
    np.subtract(lp, r * nb, out=out[:, 0])
    return (out, (V, nb, r)) if jacobian else out


def _jacobian(V: np.ndarray, nb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(rows, 16): _project_psd's Jacobian at each row of V, a flat 4 x 4
    J = r I + (x x^T) * (1/2 - r B), * entrywise, x = (1, bloch / |bloch|)
    strictly between the cones and 0 elsewhere, B 1 on the alpha and the bloch
    block and 0 off them. That is I inside the cone (alpha >= |bloch|, also at
    bloch = 0), 0 in the polar cone (alpha <= -|bloch|) and, between them, with
    u = bloch / |bloch|, s = alpha / |bloch|, (1/2) [[1, u^T], [u, (1 + s) I - s u u^T]]."""
    between = (r > 0.0) & (r < 1.0)
    x = V * (between / np.maximum(nb, _TINY))[:, None]
    x[:, 0] = between
    J = (x[:, :, None] * x[:, None, :]).reshape(-1, 16)
    J *= 0.5 - r[:, None] * _B
    J += r[:, None] * _I
    return J


def _hessian(mm: np.ndarray, layout: np.ndarray, ridge: np.ndarray, jac: tuple) -> np.ndarray:
    """H = sum_i m_i m_i^T (x) J_i + NEWTON_RIDGE I, (4(N+1))^2, from
    _system's mm, layout and ridge and _project_psd's (V, |bloch|, r)."""
    J = _jacobian(*jac)
    H = (mm[0].dot(J) if len(mm) == 1 else np.add.reduce(mm @ J.reshape(len(mm), -1, 16))).take(layout)
    H += ridge
    return H


@functools.lru_cache(maxsize=ORACLE_N_CAP)
def _system(N: int) -> tuple:
    """What the oracle needs of N alone, built once per N and read-only:
    M, G = M^T (M M^T)^-1, the m_i m_i^T products for H as columns in
    blocks of 64 rows (BLAS runs each block's product on one thread, while a
    threaded one stalls on a busy core), the flat index that lays their
    ((N+1)^2, 16) sum out as H, NEWTON_RIDGE I, and the warm start less its
    per-call part G T. The N = 12 entry holds 6.6 MB, 5.5 MB of it the
    products, and all twelve 11.6 MB."""
    M, _ = _marginal_system(N, np.arange(1 << N))
    G = M.T @ np.linalg.inv(M @ M.T)
    Mb = M.reshape(N + 1, -1, min(64, 1 << N))
    mm = np.einsum("kbj,lbj->bklj", Mb, Mb).reshape(Mb.shape[1], -1, Mb.shape[2])
    ka = np.arange(4 * (N + 1))  # H's row (k, a) and column (l, b) hold (k (N+1) + l, 4 a + b)
    layout = (ka[:, None] // 4 * (N + 1) + ka // 4) * 16 + ka[:, None] % 4 * 4 + ka % 4
    V = np.tile((2.0 / (1 << N), 0.0, 0.0, 0.0), (1 << N, 1))  # the maximally mixed product joint
    arrays = M, G, mm, layout, NEWTON_RIDGE * np.eye(len(layout)), V - G @ (M @ V)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _point(M: np.ndarray, T: np.ndarray, x0: np.ndarray, Y: np.ndarray) -> tuple:
    """At Y: a (2R, 4) buffer, M^T Y in its lower rows, P(x0 + M^T Y) with
    _project_psd's Jacobian parts, <T, Y> and theta(Y)."""
    buf = np.empty((2 * len(x0), 4))
    V, jac = _project_psd(x0 + M.T.dot(Y, buf[len(x0):]), True)
    tY = float(np.vdot(T, Y))
    return buf, V, jac, tY, tY - 0.5 * float(np.vdot(V, V))


def _cone_gaps(buf: np.ndarray) -> tuple:
    """One norm pass for both answer tests over buf = [x; M^T Y], R rows
    each: the witness gate max_i(|x_i,bloch| - |x_i0|) and the Farkas
    pre-test's worst row max_i(|(M^T Y)_i,bloch| + (M^T Y)_i0)."""
    R = len(buf) // 2
    nb = np.hypot(np.hypot(buf[:, 1], buf[:, 2]), buf[:, 3])
    nb[:R] -= np.abs(buf[:R, 0])
    nb[R:] += buf[R:, 0]
    return tuple(np.maximum.reduceat(nb, (0, R)).tolist())


def _lift_can_pass(worst: float, tY: float) -> bool:
    """Whether -Y / scale (scale > 0) can pass once lifted, as _lift adds
    2 max(0, worst) / scale to <T, D> = -tY / scale (tY = <T, Y>). A dual
    that passes clears this by DUAL_SLACK |D|; 1 + 1e-9 guards the rounding."""
    return 2.0 * max(worst, 0.0) < tY * (1.0 + 1e-9)


def _lift(Y: np.ndarray, scale: float, worst: float) -> np.ndarray:
    """The Farkas candidate D = -Y / scale, D[0,0] raised by the worst cone
    violation of M^T D's rows, max(0, worst) / scale, plus a rounding slack:
    row 0 of M is all ones, so that moves M^T D into the cone."""
    D = Y / -scale
    D[0, 0] += max(worst, 0.0) / scale + DUAL_SLACK * float(np.sqrt(np.vdot(D, D)))
    return D


def _witness_residual(x: np.ndarray, keep: np.ndarray, M: np.ndarray, T: np.ndarray) -> float:
    """What verify_witness measures on _witness_from(x, keep): the worst of
    the completeness and marginal errors and the most negative effect
    eigenvalue (negated), over the rows keep = _support(x) the witness keeps."""
    x = x * keep[:, None]
    nb = np.sqrt(np.einsum("ij,ij->i", x[:, 1:], x[:, 1:]))
    err = np.abs(M.dot(x) - T)
    return max(float(np.maximum.reduce(err, axis=None)), 0.5 * float(np.maximum.reduce(nb - x[:, 0])))


def decide(povms, params: OracleParams = OracleParams()) -> FeasibilityVerdict:
    """Damped Newton steps on theta from Y = 0, each followed by a witness
    and a Farkas dual test (see the module docstring). Ends at a checked
    witness (FEASIBLE), a checked dual (LIKELY_INFEASIBLE), or INCONCLUSIVE
    after max_iter steps or a stopped line search; `iterations` counts steps."""
    N = len(povms)
    if not 1 <= N <= ORACLE_N_CAP:
        raise ValueError(f"oracle takes 1..{ORACLE_N_CAP} POVMs, got {N}")
    M, G, mm, layout, ridge, x0 = _system(N)
    T = _marginal_targets(N, povms)
    x0 = x0 + G.dot(T)  # the warm start
    R, gate = len(x0), 2.0 * max(params.witness_tol, 1e-13)
    Y, found, step = np.zeros((N + 1, 4)), None, 0
    V, jac = _project_psd(x0, True)
    theta, grad = -0.5 * float(np.vdot(V, V)), T - M.dot(V)
    for step in range(1, params.max_iter + 1):
        d = np.linalg.solve(_hessian(mm, layout, ridge, jac), grad.reshape(-1)).reshape(N + 1, 4)
        rise, rounding, t, Yt = ARMIJO * float(np.vdot(grad, d)), 1e-16 * abs(theta), 1.0, Y + d
        buf, Vt, jac_t, tY, theta_t = _point(M, T, x0, Yt)
        while t * rise > rounding and theta_t < theta + t * rise:
            t *= 0.5
            Yt = Y + t * d
            buf, Vt, jac_t, tY, theta_t = _point(M, T, x0, Yt)
        if t < 1.0 and t * rise <= rounding:
            break  # d shows no rise above theta's rounding
        Y, V, jac, theta, grad = Yt, Vt, jac_t, theta_t, T - M.dot(Vt)
        x, MtY = buf[:R], buf[R:]
        np.add(V, G.dot(grad, x), x)  # the projection of V onto M V = T
        gap, worst = _cone_gaps(buf)
        # gap > gate: a row _support keeps has an eigenvalue below -witness_tol
        if found is not None or gap <= gate:
            keep = _support(x)
            residual = _witness_residual(x, keep, M, T)
            if found is not None:  # one step past the tolerance: keep the better
                found = min(found, (residual, x, keep), key=lambda f: f[0])
                break
            if residual <= params.witness_tol:
                found = (residual, x, keep)
                if residual <= EPS_MARG:
                    break
                continue
        scale = -float(np.add.reduce(MtY[:, 0]))  # sum_i (M^T (-Y))_i0
        if scale <= 0.0 or not _lift_can_pass(worst, tY):
            continue
        D = _lift(Y, scale, worst)
        if np.vdot(T, D) < 0.0 and _dual_holds(D, M, T):
            return FeasibilityVerdict(LIKELY_INFEASIBLE, float(np.abs(grad).max()), step, None, params, D)
    if found is None:
        return FeasibilityVerdict(INCONCLUSIVE, float(np.abs(grad).max()), step, None, params)
    return FeasibilityVerdict(FEASIBLE, found[0], step, _witness_from(found[1], found[2], N), params)


def _support(V: np.ndarray) -> np.ndarray:
    """Rows a witness keeps: all but those with alpha and each |bloch_k| <= 1e-13."""
    b = np.abs(V[:, 1:])
    return (V[:, 0] > 1e-13) | (np.maximum(np.maximum(b[:, 0], b[:, 1]), b[:, 2]) > 1e-13)


def _witness_from(V: np.ndarray, keep: np.ndarray, n: int) -> JointPovm:
    """V's rows keep = _support(V) as a joint, unchecked: _witness_residual
    fails on NaN and inf."""
    return JointPovm._from_checked(n, np.flatnonzero(keep), V[keep])


def verify_witness(witness: JointPovm, povms, tol: float = 1e-8) -> bool:
    """Witness must be a valid joint POVM whose marginals match the targets."""
    return witness.validate(tol).ok and witness.marginal_error(povms) <= tol


def verify_dual(dual, povms) -> bool:
    """Farkas check that no joint POVM has these marginals: every row of
    M^T Y lies in the Lorentz cone (alpha >= |bloch|) and
    <T, Y> < -DUAL_SLACK |T| |Y|. False past ORACLE_N_CAP POVMs, where no
    oracle run gives a dual."""
    N = len(povms)
    if not 1 <= N <= ORACLE_N_CAP:
        return False
    T = _marginal_targets(N, povms)
    Y = np.asarray(dual, dtype=float)
    if Y.shape != T.shape or not np.isfinite(Y).all():
        return False
    return _dual_holds(Y, _system(N)[0], T)


def _dual_holds(Y: np.ndarray, M: np.ndarray, T: np.ndarray) -> bool:
    """verify_dual's test of Y against M and T; False on a non-finite Y."""
    W = M.T @ Y
    if (W[:, 0] < np.sqrt(np.einsum("ij,ij->i", W[:, 1:], W[:, 1:]))).any():
        return False
    return float(np.vdot(T, Y)) < -DUAL_SLACK * float(np.linalg.norm(T) * np.linalg.norm(Y))


def checked_decision(res: FeasibilityVerdict, povms) -> Optional[str]:
    """What an oracle answer proves about povms: COMPATIBLE when it carries
    a joint POVM that passes verify_witness, INCOMPATIBLE when it carries a
    Farkas dual that passes verify_dual, None otherwise (an inconclusive
    run, or an answer whose witness or dual fails its check)."""
    if res.status == FEASIBLE and verify_witness(res.witness, povms, res.params.witness_tol):
        return COMPATIBLE
    if res.dual is not None and verify_dual(res.dual, povms):
        return INCOMPATIBLE
    return None


class SweepMismatch(NamedTuple):
    eta: float
    criterion_decision: str
    oracle_status: str


def agreement_sweep(generator, etas, delta: float = 5e-3) -> list:
    """Compare the oracle against an Iff criterion across a purity grid.

    generator(eta) must return (povms, verdict) with verdict from an Iff
    criterion. Grid points inside the delta band around the criterion's
    boundary are skipped. The oracle agrees only where checked_decision,
    which checks its witness or Farkas dual, matches the verdict. Returns
    the list of mismatches (empty = agreement).
    """
    mismatches = []
    for eta in etas:
        povms, verdict = generator(float(eta))
        if verdict.strength != IFF:
            raise ValueError("agreement sweep needs an Iff criterion")
        if abs(verdict.margin) < delta:
            continue  # too close to the boundary to trust either side
        res = decide(povms)
        if checked_decision(res, povms) != verdict.decision:
            mismatches.append(SweepMismatch(float(eta), verdict.decision, res.status))
    return mismatches
