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

A run that finds neither by max_iter is Inconclusive. Both phases ascend the
smooth concave dual of projecting the warm start x0 onto the feasible set (P
the row-wise PSD projection, Y an (N+1) x 4 multiplier):

    theta(Y) = <T, Y> - |P(x0 + M^T Y)|^2 / 2,  grad = T - M P(x0 + M^T Y).

1. Newton first: from Y = 0, up to NEWTON_STEPS undamped semismooth Newton
   steps Y <- Y + H^-1 grad (as for the nearest correlation matrix: Qi and
   Sun, SIMAX 28, 2006), H = sum_i m_i m_i^T (x) J_i, m_i the i-th column of
   M and J_i the Jacobian of P at row i: only 4(N+1) unknowns. After each
   step the polish tests two candidates.
   - The cone point P(x0 + M^T Y), projected onto M V = T, is a witness once
     it meets verify_witness's tolerances. One more step, if the budget
     allows, usually takes it to rounding level, so that the joint also
     reloads at EPS_MARG; the better of the two is kept.
   - On an infeasible problem theta is unbounded above and the steps run off
     along a ray (|Y| near 1e10) on which -Y is a Farkas direction. -Y,
     scaled to sum_i (M^T (-Y))_i0 = 1 and lifted into the cone, is accepted
     only through verify_dual.
2. Dykstra only when that settles nothing. It is preconditioned gradient
   ascent on theta: each step maps z = x + p_corr to z - r, so z = x0 + M^T Y
   with Y = K M (z - x0), K = (M M^T)^-1. Every DUAL_EVERY iterations the gap
   r = M^T Y' with Y' = K (M y - T) gives a lifted Farkas candidate, and the
   polish runs again from the Dykstra multiplier, as it does at the
   eps_feasible exit, whose joint is PSD only to eps_feasible. A polish that
   settles nothing leaves the Dykstra state untouched.

The problems are small (2^N <= 4096 rows, mostly 8 to 64), so a step costs
what its numpy calls cost: the PSD projection is one branchless pass, the
affine one two thin products (the 2^N x 2^N projector would take 128 MB at
N = 12), and H one ((N+1)^2, 2^N) @ (2^N, 16) product, batched by 64 rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import COMPATIBLE, INCOMPATIBLE, IFF
from .povm import EPS_MARG, JointPovm, _marginal_system

ORACLE_N_CAP = 12

FEASIBLE = "feasible"
LIKELY_INFEASIBLE = "likely-infeasible"
INCONCLUSIVE = "inconclusive"

_TINY = np.finfo(float).tiny
_EYE = np.eye(4)

# Farkas duals: a candidate is formed after every Newton step and every
# DUAL_EVERY Dykstra iterations. A dual is accepted only when
# <T, Y> < -DUAL_SLACK * |T| * |Y| (Frobenius norms), so rounding in M^T Y and
# <T, Y>, each of relative size N * 1e-16, can never carry a wrong proof. The
# oracle lifts a candidate's cone rows by the same relative slack so that the
# exact float cone test in verify_dual passes.
DUAL_EVERY = 50
DUAL_SLACK = 1e-12

# Newton polish: at most NEWTON_STEPS undamped steps from the warm start and
# from each DUAL_EVERY checkpoint. Of the golden pool's 1,773 oracle problems
# 173 fall back to Dykstra at 8 steps, 6 at 12 and 1 at 14, where no witness
# lacks its extra step to EPS_MARG. NEWTON_RIDGE keeps the solve defined where
# H is singular (rows in the polar cone, as when the steps run off).
NEWTON_STEPS = 14
NEWTON_RIDGE = 1e-12


@dataclass(frozen=True)
class OracleParams:
    max_iter: int = 50000
    eps_feasible: float = 1e-9
    witness_tol: float = 1e-8


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str
    residual: float
    iterations: int  # Newton steps and Dykstra iterations alike
    witness: Optional[JointPovm] = None
    params: OracleParams = field(default_factory=OracleParams)
    # Farkas dual proving infeasibility; left out of ==, which an array breaks
    dual: Optional[np.ndarray] = field(default=None, compare=False)
    newton_steps: int = 0  # the Newton share of iterations


def _project_psd(V: np.ndarray) -> np.ndarray:
    """Nearest-PSD projection of each (alpha, bloch) row: the eigenvalues
    (alpha +- |bloch|)/2 are clipped at zero in one pass, keeping the
    eigenbasis. With lp, lm the clipped alpha +- |bloch|, the row becomes
    ((lp + lm)/2, bloch (lp - lm)/(2 |bloch|))."""
    alpha = V[:, 0]
    bloch = V[:, 1:]
    nb = np.sqrt(np.einsum("ij,ij->i", bloch, bloch))
    lp = np.maximum(alpha + nb, 0.0)
    lm = np.maximum(alpha - nb, 0.0)
    out = np.empty_like(V)
    out[:, 0] = 0.5 * (lp + lm)
    # lp - lm = 0 when |bloch| = 0, so any positive divisor is safe there
    out[:, 1:] = bloch * ((0.5 * (lp - lm)) / np.maximum(nb, _TINY))[:, None]
    return out


def _psd_jacobian(V: np.ndarray) -> np.ndarray:
    """(rows, 4, 4) Jacobians of _project_psd at each row (alpha, bloch):
    I inside the cone (alpha >= |bloch|), 0 in the polar cone
    (alpha <= -|bloch|), and between them
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
    J[:, 1:, 1:] += (0.5 * (1.0 + s))[:, None, None] * _EYE[1:, 1:]
    J[nb <= alpha] = _EYE
    J[nb <= -alpha] = 0.0
    return J


def _lift(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Raise Y[0,0] in place by the worst cone violation among the rows of
    W = M^T Y, plus a rounding slack, and return Y. Row 0 of M is all ones,
    so the lift moves every row of M^T Y into the cone and adds 2 * lift to
    <T, Y>."""
    nb = np.sqrt(np.einsum("ij,ij->i", W[:, 1:], W[:, 1:]))
    Y[0, 0] += max(float(np.max(nb - W[:, 0])), 0.0) + DUAL_SLACK * float(np.linalg.norm(Y))
    return Y


class _AffineProjector:
    """Orthogonal projector V - M^T K (M V - T) = V - G (M V) + c onto
    { V : M V = T }, and the Newton polish."""

    def __init__(self, povms):
        N = len(povms)
        self.M, self.T = _marginal_system(N, np.arange(1 << N), povms)
        self.K = np.linalg.inv(self.M @ self.M.T)
        self.G = self.M.T @ self.K
        self.c = self.G @ self.T
        # m_i m_i^T as columns, in blocks of 64: BLAS runs each block's product
        # for H on one thread, while a threaded one stalls on a busy core
        Mb = self.M.reshape(len(self.M), -1, min(64, 1 << N))
        self._mm = np.einsum("kbj,lbj->bklj", Mb, Mb).reshape(Mb.shape[1], -1, Mb.shape[2])
        self.steps = 0  # Newton steps taken

    def __call__(self, V: np.ndarray) -> np.ndarray:
        return V - (self.G @ (self.M @ V) - self.c)

    def verdict(self, status, residual, it, params, witness=None, dual=None) -> FeasibilityVerdict:
        return FeasibilityVerdict(status, residual, it + self.steps, witness, params, dual, self.steps)

    def witness_residual(self, V: np.ndarray) -> float:
        """What verify_witness measures on _witness_from(V): the worst of
        the completeness and marginal errors and the most negative effect
        eigenvalue (negated), over the rows the witness keeps."""
        x = V * _support(V)[:, None]
        nb = np.sqrt(np.einsum("ij,ij->i", x[:, 1:], x[:, 1:]))
        return max(float(np.max(np.abs(self.M @ x - self.T))), float(np.max(0.5 * (nb - x[:, 0]))))

    def polish(self, x0, z, povms, params, it) -> Optional[FeasibilityVerdict]:
        """Newton steps on theta from z = x0 + M^T Y, testing a witness and a
        Farkas dual after each (see the module docstring). Returns the verdict,
        after `it` Dykstra iterations, or None when NEWTON_STEPS settle nothing."""
        n1 = len(self.M)
        Y, W, found = self.G.T @ (z - x0), z, None
        grad = self.T - self.M @ _project_psd(z)
        for _ in range(NEWTON_STEPS):
            J = _psd_jacobian(W).reshape(len(self._mm), -1, 16)
            H = (self._mm @ J).sum(axis=0).reshape(n1, n1, 4, 4)
            H = H.transpose(0, 2, 1, 3).reshape(4 * n1, 4 * n1)
            H.flat[:: 4 * n1 + 1] += NEWTON_RIDGE
            Y = Y + np.linalg.solve(H, grad.reshape(-1)).reshape(n1, 4)
            self.steps += 1
            MtY = self.M.T @ Y
            W = x0 + MtY
            V = _project_psd(W)
            grad = self.T - self.M @ V
            x = V + self.G @ grad  # the projection of V onto M V = T
            residual = self.witness_residual(x)
            if found is not None:  # one step past the tolerance: keep the better
                found = min(found, (residual, x), key=lambda f: f[0])
                break
            if residual <= params.witness_tol:
                found = (residual, x)
                if residual <= EPS_MARG:
                    break
                continue
            scale = -float(MtY[:, 0].sum())  # sum_i (M^T (-Y))_i0
            if scale <= 0.0 or np.vdot(self.T, Y) <= 0.0:
                continue  # the lift only raises <T, D>: -Y cannot be a dual
            D = _lift(Y / -scale, MtY / -scale)
            if np.vdot(self.T, D) < 0.0 and verify_dual(D, povms):
                return self.verdict(LIKELY_INFEASIBLE, float(np.abs(grad).max()), it, params, dual=D)
        if found is None:
            return None
        return self.verdict(FEASIBLE, found[0], it, params, _witness_from(found[1], len(povms)))


def decide(povms, params: OracleParams = OracleParams()) -> FeasibilityVerdict:
    """Newton polish from the warm start, then, if it settles nothing,
    Dykstra with a polish at each checkpoint. Ends at a checked witness
    (FEASIBLE), a checked Farkas dual (LIKELY_INFEASIBLE), or after max_iter
    Dykstra iterations (INCONCLUSIVE). `iterations` counts Newton steps too."""
    N = len(povms)
    if not 1 <= N <= ORACLE_N_CAP:
        raise ValueError(f"oracle takes 1..{ORACLE_N_CAP} POVMs, got {N}")
    proj = _AffineProjector(povms)

    # warm start: the maximally mixed product joint, projected onto M V = T
    V = np.zeros((1 << N, 4))
    V[:, 0] = 2.0 / (1 << N)
    x0 = x = proj(V)
    settled = proj.polish(x0, x0, povms, params, 0)
    if settled is not None:
        return settled

    p_corr, best = np.zeros_like(x), np.inf
    for it in range(1, params.max_iter + 1):
        z = x + p_corr
        y = _project_psd(z)
        p_corr = z - y
        # affine: Dykstra correction unnecessary on this side
        My = proj.M @ y
        r = proj.G @ My - proj.c  # = M^T K (M y - T)
        x = y - r
        gap = float(np.abs(r).max())
        best = min(best, gap)
        if gap <= params.eps_feasible:  # the first gap this small is the best
            settled = proj.polish(x0, x + p_corr, povms, params, it)
            return settled or proj.verdict(FEASIBLE, gap, it, params, _witness_from(x, N))
        if it % DUAL_EVERY == 0:
            Y = _lift(proj.K @ (My - proj.T), r)
            if np.vdot(proj.T, Y) < 0.0 and verify_dual(Y, povms):
                return proj.verdict(LIKELY_INFEASIBLE, best, it, params, dual=Y)
            settled = proj.polish(x0, x + p_corr, povms, params, it)
            if settled is not None:
                return settled
    return proj.verdict(INCONCLUSIVE, best, params.max_iter, params)


def _support(V: np.ndarray) -> np.ndarray:
    """Rows a witness keeps: all but those whose alpha and every |Bloch
    component| are at most 1e-13."""
    return (V[:, 0] > 1e-13) | (np.max(np.abs(V[:, 1:]), axis=1) > 1e-13)


def _witness_from(V: np.ndarray, n: int) -> JointPovm:
    keep = _support(V)
    return JointPovm(n, np.flatnonzero(keep), V[keep])


def verify_witness(witness: JointPovm, povms, tol: float = 1e-8) -> bool:
    """Witness must be a valid joint POVM whose marginals match the targets."""
    return witness.validate(tol).ok and witness.marginal_error(povms) <= tol


def verify_dual(dual, povms) -> bool:
    """Farkas check that no joint POVM has these marginals: every row of
    M^T Y lies in the Lorentz cone (alpha >= |bloch|) and
    <T, Y> < -DUAL_SLACK |T| |Y|."""
    N = len(povms)
    M, T = _marginal_system(N, np.arange(1 << N), povms)
    Y = np.asarray(dual, dtype=float)
    if Y.shape != T.shape or not np.all(np.isfinite(Y)):
        return False
    W = M.T @ Y
    if np.any(W[:, 0] < np.sqrt(np.einsum("ij,ij->i", W[:, 1:], W[:, 1:]))):
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


@dataclass(frozen=True)
class SweepMismatch:
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
