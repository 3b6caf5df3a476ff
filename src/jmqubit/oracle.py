"""Criterion-independent joint-measurability oracle.

Joint measurability of N binary qubit POVMs is a convex feasibility problem:
find 2^N PSD effects (each a 2x2 Hermitian, stored as an (alpha, bloch)
4-vector, PSD iff alpha >= |bloch|) with M V = T, where row 0 of M is
completeness and row k the x_k = +1 marginal indicator. Dykstra-corrected
alternating projection between the product PSD cone and that affine
subspace either converges into the intersection (Feasible, with a witness
joint POVM) or leaves a gap. Both answers carry a witness checkable in a
few lines:

- Feasible carries the joint POVM (`verify_witness`).
- LikelyInfeasible carries a Farkas dual Y of shape (N+1) x 4
  (`verify_dual`): every row of M^T Y lies in the Lorentz cone and
  <T, Y> < 0. For any feasible V, <T, Y> = <M V, Y> = <V, M^T Y> >= 0,
  because the cone is self-dual, so no feasible V exists. Every
  DUAL_EVERY iterations the gap gives a candidate, and the run returns at
  the first one that checks. The status keeps the string
  "likely-infeasible", which callers key on, although every such answer
  is proven by its `dual`.

A run that finds neither by max_iter is Inconclusive.

Dykstra is dual ascent. Each step maps z = x + p_corr to z - r, so
z = x0 + M^T Y for the warm start x0 and an (N+1) x 4 multiplier
Y = K M (z - x0), K = (M M^T)^-1, and the cone point is y = P(z), P the
row-wise PSD projection. The step is Y <- Y + K grad, the preconditioned
gradient ascent on the smooth concave dual

    theta(Y) = <T, Y> - |P(x0 + M^T Y)|^2 / 2,  grad = T - M P(x0 + M^T Y),

whose maximiser gives the joint nearest x0. Gradient ascent crawls near
the boundary, where the feasible set is thin, so at every DUAL_EVERY
checkpoint that finds no dual the oracle also tries a Newton polish
(semismooth Newton, as for the nearest correlation matrix: Qi and Sun,
SIMAX 28, 2006; Malick, SIMAX 26, 2004). From the Dykstra multiplier it
takes up to NEWTON_STEPS steps Y <- Y + H^-1 grad with
H = sum_i m_i m_i^T (x) J_i, m_i the i-th column of M and J_i the 4 x 4
Jacobian of P at row i (`_psd_jacobian`), only 4(N+1) unknowns. After each
step the cone point P(x0 + M^T Y) is projected onto M V = T, and the run
returns Feasible at the first such joint that meets verify_witness's
tolerances. A failed polish leaves the Dykstra state untouched, so the
iterates that follow are the ones the loop alone would make.

The problems are small (2^N <= 4096 rows, mostly 8 to 64), so a step costs
what its numpy calls cost, and both projections keep that count low:

- PSD side: each row's two eigenvalues are clipped at zero in one
  branchless pass (no masks, no fancy-index writes); rows with |bloch| = 0
  are safe without a branch.
- Affine side: (M M^T)^-1 is folded once into G = M^T (M M^T)^-1 and
  c = G T, so a projection is two thin products, V - G (M V) + c. The dense
  2^N x 2^N projector I - G M is never formed: at N = 12 it would take
  128 MB and a 4096 x 4096 product per step.
- Dual side: the displacement r = G (M y) - c equals M^T Y for
  Y = (M M^T)^-1 (M y - T), so with M y kept from the affine step a
  candidate costs one (N+1) x (N+1) product.
- Newton side: H is one ((N+1)^2, 2^N) @ (2^N, 16) product of the fixed
  column outer products m_i m_i^T with the Jacobians, and a step is one
  4(N+1) solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import COMPATIBLE, INCOMPATIBLE, IFF
from .povm import JointPovm, _marginal_system

ORACLE_N_CAP = 12

FEASIBLE = "feasible"
LIKELY_INFEASIBLE = "likely-infeasible"
INCONCLUSIVE = "inconclusive"

_TINY = np.finfo(float).tiny

# Farkas duals: a candidate is formed every DUAL_EVERY iterations. A dual is
# accepted only when <T, Y> < -DUAL_SLACK * |T| * |Y| (Frobenius norms), so
# rounding in M^T Y and <T, Y>, each of relative size N * 1e-16, can never
# carry a wrong proof. The oracle lifts a candidate's cone rows by the same
# relative slack so that the exact float cone test in verify_dual passes.
DUAL_EVERY = 50
DUAL_SLACK = 1e-12

# Newton polish at each DUAL_EVERY checkpoint: at most NEWTON_STEPS undamped
# steps. NEWTON_RIDGE keeps the solve defined where H is singular (too many
# rows in the polar cone, as when a polish runs off on an infeasible
# problem); a step it spoils only yields a joint that fails the witness
# tolerance.
NEWTON_STEPS = 6
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
    iterations: int
    witness: Optional[JointPovm] = None
    params: OracleParams = field(default_factory=OracleParams)
    # Farkas dual proving infeasibility; left out of ==, which an array breaks
    dual: Optional[np.ndarray] = field(default=None, compare=False)


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
    J[:, 1:, 1:] += (0.5 * (1.0 + s))[:, None, None] * np.eye(3)
    J[nb <= alpha] = np.eye(4)
    J[nb <= -alpha] = 0.0
    return J


class _AffineProjector:
    """Orthogonal projector onto { V : M V = T }.

    With K = (M M^T)^-1 folded into G = M^T K and c = G T once, the
    projection V - M^T K (M V - T) is V - G (M V) + c."""

    def __init__(self, povms):
        N = len(povms)
        self.M, self.T = _marginal_system(N, np.arange(1 << N), povms)
        self.K = np.linalg.inv(self.M @ self.M.T)
        self.G = self.M.T @ self.K
        self.c = self.G @ self.T
        self._mm = None  # column outer products m_i m_i^T, built at first polish

    def __call__(self, V: np.ndarray) -> np.ndarray:
        return V - (self.G @ (self.M @ V) - self.c)

    def dual(self, MV: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Farkas candidate from a step's M V and displacement r = M^T Y:
        Y = K (M V - T), with Y[0,0] raised by the worst cone violation of
        r's rows plus a rounding slack. Row 0 of M is all ones, so the lift
        moves every row of M^T Y into the cone and adds 2 * lift to <T, Y>."""
        Y = self.K @ (MV - self.T)
        nb = np.sqrt(np.einsum("ij,ij->i", r[:, 1:], r[:, 1:]))
        eps = max(float(np.max(nb - r[:, 0])), 0.0)
        Y[0, 0] += eps + DUAL_SLACK * float(np.linalg.norm(Y))
        return Y

    def witness_residual(self, V: np.ndarray) -> float:
        """What verify_witness measures on _witness_from(V): the worst of
        the completeness and marginal errors and the most negative effect
        eigenvalue (negated), over the rows the witness keeps."""
        x = V * _support(V)[:, None]
        nb = np.sqrt(np.einsum("ij,ij->i", x[:, 1:], x[:, 1:]))
        return max(float(np.max(np.abs(self.M @ x - self.T))), float(np.max(0.5 * (nb - x[:, 0]))))

    def polish(self, x0: np.ndarray, z: np.ndarray, tol: float):
        """Newton polish of the dual from the Dykstra point z = x0 + M^T Y.
        After each step the cone point V = P(x0 + M^T Y) is projected onto
        M V = T; returns (joint rows, witness residual) for the first joint
        whose residual is at most tol, else None."""
        n1 = len(self.M)
        if self._mm is None:
            Mt = self.M.T
            self._mm = (Mt[:, :, None] * Mt[:, None, :]).reshape(len(Mt), n1 * n1)
        Y = self.G.T @ (z - x0)
        W = z
        grad = self.T - self.M @ _project_psd(W)
        for _ in range(NEWTON_STEPS):
            H = (self._mm.T @ _psd_jacobian(W).reshape(-1, 16)).reshape(n1, n1, 4, 4)
            H = H.transpose(0, 2, 1, 3).reshape(4 * n1, 4 * n1)
            H[np.diag_indices_from(H)] += NEWTON_RIDGE
            Y = Y + np.linalg.solve(H, grad.reshape(-1)).reshape(n1, 4)
            W = x0 + self.M.T @ Y
            V = _project_psd(W)
            grad = self.T - self.M @ V
            x = V + self.G @ grad  # the projection of V onto M V = T
            residual = self.witness_residual(x)
            if residual <= tol:
                return x, residual
        return None


def decide(povms, params: OracleParams = OracleParams()) -> FeasibilityVerdict:
    """Run the alternating-projection feasibility search. It ends at a
    checked witness (FEASIBLE), a checked Farkas dual (LIKELY_INFEASIBLE),
    or after max_iter iterations (INCONCLUSIVE)."""
    N = len(povms)
    if not 1 <= N <= ORACLE_N_CAP:
        raise ValueError(f"oracle takes 1..{ORACLE_N_CAP} POVMs, got {N}")
    proj = _AffineProjector(povms)

    # warm start: the maximally mixed product joint, least-squares adjusted
    # onto the marginal subspace
    V = np.zeros((1 << N, 4))
    V[:, 0] = 2.0 / (1 << N)
    x0 = x = proj(V)

    p_corr = np.zeros_like(x)
    best = np.inf
    best_V = x
    for it in range(1, params.max_iter + 1):
        z = x + p_corr
        y = _project_psd(z)
        p_corr = z - y
        # affine: Dykstra correction unnecessary on this side
        My = proj.M @ y
        r = proj.G @ My - proj.c
        x = y - r
        gap = float(np.abs(r).max())
        if gap < best:
            best = gap
            best_V = x
        if best <= params.eps_feasible:
            witness = _witness_from(best_V, N)
            return FeasibilityVerdict(FEASIBLE, best, it, witness, params)
        if it % DUAL_EVERY == 0:
            Y = proj.dual(My, r)
            if np.vdot(proj.T, Y) < 0.0 and verify_dual(Y, povms):
                return FeasibilityVerdict(LIKELY_INFEASIBLE, best, it, None, params, Y)
            polished = proj.polish(x0, x + p_corr, params.witness_tol)
            if polished is not None:
                rows, residual = polished
                return FeasibilityVerdict(FEASIBLE, residual, it, _witness_from(rows, N), params)
    return FeasibilityVerdict(INCONCLUSIVE, best, params.max_iter, None, params)


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
