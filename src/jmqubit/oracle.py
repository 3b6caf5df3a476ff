"""Criterion-independent joint-measurability oracle.

Joint measurability of N binary qubit POVMs is a convex feasibility problem:
find 2^N PSD effects (each a 2x2 Hermitian, stored as an (alpha, bloch)
4-vector) lying in the affine subspace fixed by the N marginal equalities and
completeness. Dykstra-corrected alternating projection between the product
PSD cone and the affine subspace either converges into the intersection
(Feasible, with a witness) or its gap plateaus at a positive value
(LikelyInfeasible). Feasible is constructive proof; LikelyInfeasible is
evidence only.

The problems are small (2^N <= 4096 rows, mostly 8 to 64), so a step costs
what its numpy calls cost, and both projections keep that count low:

- PSD side: each row's two eigenvalues are clipped at zero in one
  branchless pass (no masks, no fancy-index writes); rows with |bloch| = 0
  are safe without a branch.
- Affine side: (M M^T)^-1 is folded once into G = M^T (M M^T)^-1 and
  c = G T, so a projection is two thin products, V - G (M V) + c. The dense
  2^N x 2^N projector I - G M is never formed: at N = 12 it would take
  128 MB and a 4096 x 4096 product per step.
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


class _AffineProjector:
    """Orthogonal projector onto { V : M V = T } where row 0 of M is
    completeness and row k is the x_k = +1 marginal indicator.

    With K = (M M^T)^-1 folded into G = M^T K and c = G T once, the
    projection V - M^T K (M V - T) is V - G (M V) + c."""

    def __init__(self, povms):
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
        self.M = M
        self.G = M.T @ np.linalg.inv(M @ M.T)
        self.c = self.G @ T

    def displacement(self, V: np.ndarray) -> np.ndarray:
        """V minus its projection, G (M V) - c."""
        return self.G @ (self.M @ V) - self.c

    def __call__(self, V: np.ndarray) -> np.ndarray:
        return V - self.displacement(V)


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
        r = proj.displacement(y)
        x = y - r
        gap = float(np.abs(r).max())
        if gap < best:
            best = gap
            best_V = x
        if best <= params.eps_feasible:
            witness = _witness_from(best_V, N)
            return FeasibilityVerdict(FEASIBLE, best, it, witness, params)
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


@dataclass(frozen=True)
class SweepMismatch:
    eta: float
    criterion_decision: str
    oracle_status: str


def agreement_sweep(generator, etas, delta: float = 5e-3, params: OracleParams = OracleParams()) -> list:
    """Compare the oracle against an Iff criterion across a purity grid.

    generator(eta) must return (povms, verdict) with verdict from an Iff
    criterion. Grid points inside the delta band around the criterion's
    boundary are skipped. Returns the list of mismatches (empty = agreement).
    """
    mismatches = []
    for eta in etas:
        povms, verdict = generator(float(eta))
        if verdict.strength != IFF:
            raise ValueError("agreement sweep needs an Iff criterion")
        if abs(verdict.margin) < delta:
            continue  # too close to the boundary to trust either side
        res = decide(povms, params)
        ok = (
            (verdict.decision == COMPATIBLE and res.status == FEASIBLE)
            or (verdict.decision == INCOMPATIBLE and res.status == LIKELY_INFEASIBLE)
        )
        if verdict.decision == COMPATIBLE and res.status == FEASIBLE:
            if not verify_witness(res.witness, povms, params.witness_tol):
                ok = False
        if not ok:
            mismatches.append(SweepMismatch(float(eta), verdict.decision, res.status))
    return mismatches
