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
- LikelyInfeasible carries a Farkas dual Y of shape (N+1) x 4 when one is
  found (`verify_dual`): every row of M^T Y lies in the Lorentz cone and
  <T, Y> < 0. For any feasible V, <T, Y> = <M V, Y> = <V, M^T Y> >= 0,
  because the cone is self-dual, so no feasible V exists. Every
  DUAL_EVERY iterations the gap gives a candidate, and the run returns at
  the first one that checks. Without a dual the plateau rule still ends
  the run, and the answer is evidence only. The status string stays
  "likely-infeasible" either way, so callers that key on the three status
  strings keep working; a proof is told apart by its `dual`.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import COMPATIBLE, INCOMPATIBLE, IFF
from .povm import Effect, JointPovm

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


@dataclass(frozen=True)
class OracleParams:
    max_iter: int = 50000
    eps_feasible: float = 1e-9
    eps_infeasible: float = 1e-7
    plateau: int = 500
    plateau_rel_improvement: float = 1e-3
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

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE


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


def _marginal_system(povms):
    """(M, T) of the constraints M V = T on a joint's (2^N, 4) effect rows:
    row 0 of M is completeness (all ones, T row 0 = 2 I), row k the
    x_k = +1 indicator of outcome masks (T row k = E_k(+1))."""
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
    return M, T


class _AffineProjector:
    """Orthogonal projector onto { V : M V = T }.

    With K = (M M^T)^-1 folded into G = M^T K and c = G T once, the
    projection V - M^T K (M V - T) is V - G (M V) + c."""

    def __init__(self, povms):
        self.M, self.T = _marginal_system(povms)
        self.K = np.linalg.inv(self.M @ self.M.T)
        self.G = self.M.T @ self.K
        self.c = self.G @ self.T

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


def decide(povms, params: OracleParams = OracleParams()) -> FeasibilityVerdict:
    """Run the alternating-projection feasibility search."""
    N = len(povms)
    if N > ORACLE_N_CAP:
        raise ValueError(f"oracle capped at N = {ORACLE_N_CAP}")
    proj = _AffineProjector(povms)

    # warm start: the maximally mixed product joint, least-squares adjusted
    # onto the marginal subspace
    V = np.zeros((1 << N, 4))
    V[:, 0] = 2.0 / (1 << N)
    x = proj(V)

    p_corr = np.zeros_like(x)
    best = np.inf
    best_V = x
    check_best = np.inf
    next_check = params.plateau
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
        if it >= next_check:
            # plateau: no meaningful improvement over a whole window while
            # the gap sits above the infeasibility threshold
            if (
                best > params.eps_infeasible
                and best > check_best * (1.0 - params.plateau_rel_improvement)
            ):
                return FeasibilityVerdict(LIKELY_INFEASIBLE, best, it, None, params)
            check_best = best
            next_check = it + params.plateau
    return FeasibilityVerdict(INCONCLUSIVE, best, params.max_iter, None, params)


def _witness_from(V: np.ndarray, n: int) -> JointPovm:
    effects = {}
    for mask in range(len(V)):
        alpha = float(V[mask, 0])
        bloch = V[mask, 1:]
        if alpha <= 1e-13 and np.max(np.abs(bloch)) <= 1e-13:
            continue
        effects[mask] = Effect(alpha, bloch)
    return JointPovm(n, effects, validate=False)


def verify_witness(witness: JointPovm, povms, tol: float = 1e-8) -> bool:
    """Witness must be a valid joint POVM whose marginals match the targets."""
    return witness.validate(tol).ok and witness.marginal_error(povms) <= tol


def verify_dual(dual, povms) -> bool:
    """Farkas check that no joint POVM has these marginals: every row of
    M^T Y lies in the Lorentz cone (alpha >= |bloch|) and
    <T, Y> < -DUAL_SLACK |T| |Y|."""
    M, T = _marginal_system(povms)
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
    Farkas dual that passes verify_dual, None otherwise (a plateau without
    a dual, or an inconclusive run)."""
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


def agreement_sweep(generator, etas, delta: float = 5e-3, params: OracleParams = OracleParams()) -> list:
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
        res = decide(povms, params)
        if checked_decision(res, povms) != verdict.decision:
            mismatches.append(SweepMismatch(float(eta), verdict.decision, res.status))
    return mismatches
