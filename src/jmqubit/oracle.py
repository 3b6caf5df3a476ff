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
what its numpy calls cost, and a call pays only for its own POVMs: what
depends on N alone (M, K, G, the m_i m_i^T products for H, the ridge and the
warm start less G T) is built once per N and kept read-only (`_system`), and
a call builds T and c = G T. A Newton step is one branchless pass over the
rows that returns the PSD projection and its Jacobian as flat per-row
coefficients, H as one ((N+1)^2, 64) @ (64, 16) product per block of 64
rows, and one solve. The affine projection is two thin products (the
2^N x 2^N projector would take 128 MB at N = 12). The full witness test runs
only once the projected joint is PSD to within witness_tol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import COMPATIBLE, INCOMPATIBLE, IFF
from .povm import EPS_MARG, JointPovm, _marginal_system, _marginal_targets

ORACLE_N_CAP = 12

FEASIBLE = "feasible"
LIKELY_INFEASIBLE = "likely-infeasible"
INCONCLUSIVE = "inconclusive"

_TINY = np.finfo(float).tiny
# B of _project_psd's Jacobian, flat: 1 on the alpha and the bloch block
_B = np.equal.outer(np.arange(4) > 0, np.arange(4) > 0).ravel().astype(float)

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


def _project_psd(V: np.ndarray, jacobian: bool = False):
    """Nearest-PSD projection of each (alpha, bloch) row in one branchless
    pass: the eigenvalues (alpha +- |bloch|)/2 are clipped at zero, keeping
    the eigenbasis. With lp the clipped alpha + |bloch| and
    r = lp / max(2 |bloch|, lp), the row becomes (lp - r |bloch|, r bloch):
    r is 1 inside the cone and 0 in the polar cone.

    With jacobian, also the Jacobian of the projection at each row as flat
    coefficients (r, x): J = r I + (x x^T) * (1/2 - r B), * entrywise, where
    x = (1, u), u = bloch / |bloch|, strictly between the cones and 0
    elsewhere, and B is 1 on the alpha and the bloch block and 0 off them.
    That is I inside the cone (alpha >= |bloch|, also at bloch = 0), 0 in the
    polar cone (alpha <= -|bloch|) and, between them, with s = alpha / |bloch|
    and so r = (1 + s)/2, (1/2) [[1, u^T], [u, (1 + s) I - s u u^T]]."""
    alpha = V[:, 0]
    nb = np.hypot(np.hypot(V[:, 1], V[:, 2]), V[:, 3])
    lp = np.maximum(alpha + nb, 0.0)
    r = lp / (np.maximum(nb + nb, lp) + _TINY)  # lp = 0 = |bloch| gives 0
    out = V * r[:, None]
    out[:, 0] = lp - r * nb
    if not jacobian:
        return out
    between = (r > 0.0) & (r < 1.0)
    x = np.empty_like(V)
    x[:, 0] = between
    np.multiply(V[:, 1:], (between / np.maximum(nb, _TINY))[:, None], out=x[:, 1:])
    return out, (r, x)


def _flat_jacobian(jac) -> np.ndarray:
    """(rows, 16): each row's Jacobian as a flat 4 x 4, from the coefficients
    (r, x) that _project_psd returns."""
    r, x = jac
    J = (x[:, :, None] * x[:, None, :]).reshape(-1, 16)
    J *= 0.5 - r[:, None] * _B
    J[:, ::5] += r[:, None]
    return J


def _lift(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Raise Y[0,0] in place by the worst cone violation among the rows of
    W = M^T Y, plus a rounding slack, and return Y. Row 0 of M is all ones,
    so the lift moves every row of M^T Y into the cone and adds 2 * lift to
    <T, Y>."""
    nb = np.sqrt(np.einsum("ij,ij->i", W[:, 1:], W[:, 1:]))
    Y[0, 0] += max(float(np.maximum.reduce(nb - W[:, 0])), 0.0) + DUAL_SLACK * float(np.linalg.norm(Y))
    return Y


@functools.lru_cache(maxsize=ORACLE_N_CAP)
def _system(N: int) -> tuple:
    """What the oracle needs of N alone, built once per N and read-only:
    M, K = (M M^T)^-1, G = M^T K, the m_i m_i^T products for H as columns in
    blocks of 64 rows (BLAS runs each block's product on one thread, while a
    threaded one stalls on a busy core), H's ridge, and the warm start less
    its per-call part G T. The N = 12 entry holds 6.5 MB, 5.5 MB of it the
    products, and all twelve 11.4 MB."""
    M, _ = _marginal_system(N, np.arange(1 << N))
    K = np.linalg.inv(M @ M.T)
    G = M.T @ K
    Mb = M.reshape(N + 1, -1, min(64, 1 << N))
    mm = np.einsum("kbj,lbj->bklj", Mb, Mb).reshape(Mb.shape[1], -1, Mb.shape[2])
    V = np.tile((2.0 / (1 << N), 0.0, 0.0, 0.0), (1 << N, 1))  # the maximally mixed product joint
    ridge = NEWTON_RIDGE * np.eye(4 * (N + 1)).reshape(N + 1, 4, N + 1, 4)
    arrays = M, K, G, mm, ridge, V - G @ (M @ V)
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _AffineProjector:
    """The orthogonal projector V - M^T K (M V - T) = V - G (M V) + c onto
    { V : M V = T }, from the cached system of N, and the Newton polish."""

    def __init__(self, povms):
        self.M, self.K, self.G, self._mm, self._ridge, x0 = _system(len(povms))
        self.T = _marginal_targets(len(povms), povms)
        self.c = self.G @ self.T
        self.x0 = x0 + self.c  # the warm start
        self.steps = 0  # Newton steps taken

    def verdict(self, status, residual, it, params, witness=None, dual=None) -> FeasibilityVerdict:
        return FeasibilityVerdict(status, residual, it + self.steps, witness, params, dual, self.steps)

    def witness_residual(self, V: np.ndarray) -> float:
        """What verify_witness measures on _witness_from(V): the worst of
        the completeness and marginal errors and the most negative effect
        eigenvalue (negated), over the rows the witness keeps."""
        x = V * _support(V)[:, None]
        nb = np.sqrt(np.einsum("ij,ij->i", x[:, 1:], x[:, 1:]))
        return max(float(np.max(np.abs(self.M @ x - self.T))), float(np.max(0.5 * (nb - x[:, 0]))))

    def hessian(self, jac) -> np.ndarray:
        """H = sum_i m_i m_i^T (x) J_i from _project_psd's coefficients, plus
        the ridge, as a (4(N+1))^2 matrix."""
        n1 = len(self.M)
        H = np.add.reduce(self._mm @ _flat_jacobian(jac).reshape(len(self._mm), -1, 16))
        return (H.reshape(n1, n1, 4, 4).transpose(0, 2, 1, 3) + self._ridge).reshape(4 * n1, 4 * n1)

    def polish(self, x0, z, povms, params, it) -> Optional[FeasibilityVerdict]:
        """Newton steps on theta from z = x0 + M^T Y, testing a witness and a
        Farkas dual after each (see the module docstring). Returns the verdict,
        after `it` Dykstra iterations, or None when NEWTON_STEPS settle nothing."""
        n1 = len(self.M)
        Y, found = self.G.T @ (z - x0), None
        V, jac = _project_psd(z, True)
        grad = self.T - self.M @ V
        for _ in range(NEWTON_STEPS):
            Y = Y + np.linalg.solve(self.hessian(jac), grad.reshape(-1)).reshape(n1, 4)
            self.steps += 1
            MtY = self.M.T @ Y
            V, jac = _project_psd(x0 + MtY, True)
            grad = self.T - self.M @ V
            x = V + self.G @ grad  # the projection of V onto M V = T
            # a row with |bloch| - |alpha| > 2 max(witness_tol, 1e-13) is one
            # _support keeps, with an eigenvalue below -witness_tol: no witness
            nb = np.hypot(np.hypot(x[:, 1], x[:, 2]), x[:, 3])
            gap = np.maximum.reduce(nb - np.abs(x[:, 0]))
            if found is not None or gap <= 2.0 * max(params.witness_tol, 1e-13):
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
    x0 = x = proj.x0
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
    <T, Y> < -DUAL_SLACK |T| |Y|. False past ORACLE_N_CAP POVMs, where no
    oracle run gives a dual."""
    N = len(povms)
    if not 1 <= N <= ORACLE_N_CAP:
        return False
    T = _marginal_targets(N, povms)
    Y = np.asarray(dual, dtype=float)
    if Y.shape != T.shape or not np.isfinite(Y).all():
        return False
    W = _system(N)[0].T @ Y
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
