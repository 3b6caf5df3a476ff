"""Explicit joint-POVM constructors.

Covers the optimal joint for a full planar symmetric family, the marginal-
surgery recipe for M-element subsets of such a family, the general
coplanar same-purity chain construction, and the fully general (possibly
biased) chain construction; the last three build the same chain joint, each
after its own bound check. Every constructor checks its closed-form purity
bound up front (with 1e-12 slack) and produces a joint whose marginals equal
the requested POVMs to 1e-12.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .criteria import (
    _chain_form,
    chain_margin,
    coplanar_chain_bound,
    planar_nwise_bound,
    planar_subset_bound,
)
from .povm import N_CAP, BinaryQubitPovm, JointPovm

BOUND_SLACK = 1e-12


class _PlanarSymmetricFields(NamedTuple):
    n: int
    eta: float


class PlanarSymmetricFamily(_PlanarSymmetricFields):
    """N unbiased POVMs of common purity whose Bloch lines dissect the plane
    equiangularly: n_k = (cos (k-1)pi/N, sin (k-1)pi/N, 0)."""

    __slots__ = ()

    def __new__(cls, n: int, eta: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        return super().__new__(cls, n, eta)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks as well
        return cls(*iterable)

    def direction(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.n:
            raise IndexError("index out of range")
        theta = (k - 1) * math.pi / self.n
        return np.array([math.cos(theta), math.sin(theta), 0.0])

    def povm(self, k: int) -> BinaryQubitPovm:
        return BinaryQubitPovm(0.0, self.eta * self.direction(k))

    def povms(self, subset=None) -> list:
        ks = range(1, self.n + 1) if subset is None else subset
        return [self.povm(k) for k in ks]


def build_planar_symmetric_joint(fam: PlanarSymmetricFamily) -> JointPovm:
    """Optimal joint POVM for the full family: 2N nonzero effects
    (1/2N)(I + mu e.sigma) with mu = eta N sin(pi/2N), outcome of e given by
    the signs of n_k . e."""
    N, eta = fam.n, fam.eta
    mu = eta * N * math.sin(math.pi / (2 * N))
    if mu > 1.0 + BOUND_SLACK:
        raise ValueError(
            f"eta {eta} above the N-wise bound {planar_nwise_bound(N)}"
        )
    if N % 2 == 1:
        e_angles = [j * math.pi / N for j in range(2 * N)]
    else:
        e_angles = [(2 * j + 1) * math.pi / (2 * N) for j in range(2 * N)]
    masks, rows = [], []
    for ang in e_angles:
        masks.append(sum(1 << k for k in range(N) if math.cos(ang - k * math.pi / N) > 0.0))
        rows.append((1.0 / N, *((mu / N) * np.array([math.cos(ang), math.sin(ang), 0.0]))))
    return JointPovm(N, masks, rows)


def build_coplanar_same_purity_joint(angles, eta: float) -> JointPovm:
    """Joint POVM for N coplanar unbiased same-purity POVMs at line angles
    (0, a_1, ..., a_{N-1}), all in [0, pi): the chain joint.

    2N nonzero effects: for each p < N a rank-one pair with geometric part
    along t_p = (sin m_p, -cos m_p, 0), m_p the mean of adjacent angles, and
    two "all-equal" effects along s = (cos(a_{N-1}/2), sin(a_{N-1}/2), 0).
    """
    alphas = [0.0] + [float(a) for a in angles]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("angles must be strictly increasing and positive")
    if alphas[-1] >= math.pi:
        raise ValueError("total span must stay below pi")
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    bound = coplanar_chain_bound(alphas[1:])
    if eta > bound + BOUND_SLACK:
        raise ValueError(f"eta {eta} above the chain bound {bound}")
    return _chain_joint(
        [BinaryQubitPovm(0.0, eta * np.array([math.cos(a), math.sin(a), 0.0])) for a in alphas]
    )[0]


def surgery_mtuple(N: int, subset, eta: float, povms=None) -> JointPovm:
    """Joint POVM for the subset {k_1 < ... < k_M} of an N-member planar
    symmetric family at purity eta, valid up to the subset chain bound.
    povms, when given, are the caller's PlanarSymmetricFamily(N,
    eta).povms(subset), used as they are instead of being built again."""
    ks = list(subset)
    if ks != sorted(set(ks)) or not ks or ks[0] < 1 or ks[-1] > N:
        raise ValueError("subset must be strictly increasing within 1..N")
    bound = planar_subset_bound(N, ks)
    if eta > bound + BOUND_SLACK:
        raise ValueError(f"eta {eta} above the subset bound {bound}")
    if povms is None:
        povms = PlanarSymmetricFamily(N, eta).povms(ks)
    return _chain_joint(povms)[0]


class AppliedRelabeling(NamedTuple):
    """Normalization applied inside the general chain constructor: the POVM
    placed at chain position i is input index order[i], with its outcomes
    flipped when flips[i] is set. The returned joint is already mapped back
    to the caller's order and labels."""

    order: tuple
    flips: tuple


def build_general_binary_joint(povms) -> tuple:
    """Chain joint for arbitrary binary qubit POVMs (possibly biased).

    Returns (JointPovm, AppliedRelabeling). Requires the chain inequality
    |a_1 + a_N| + sum |a_p - a_{p+1}| <= 2(1 - max bias) after flipping all
    biases non-negative and stable-sorting by bias.
    """
    if not povms:
        raise ValueError("need at least one POVM")
    margin = chain_margin(povms)
    if margin < -BOUND_SLACK:
        raise ValueError(f"chain inequality violated by {-margin}")
    return _chain_joint(povms)


def _chain_joint(povms) -> tuple:
    """(JointPovm, AppliedRelabeling) of the chain construction for a
    nonempty POVM list, without checking the chain inequality: callers check
    it, or an equivalent closed-form bound, first.

    In the normal form of criteria._chain_form (biases flipped >= 0, stable
    sort by bias), with a_i and b_i the flipped Bloch vectors and biases in
    chain order: for each p < N a rank-one pair at the run masks (+1 x p,
    -1 x (N - p)) and their negations, with Bloch parts +-t_p, t_p =
    (a_p - a_{p+1})/2, and the two all-equal effects along +-(a_1 + a_N)/2.
    All 2N rows are built as one array; masks are distinct and rows finite by
    construction. ValueError past N_CAP measurements, which a JointPovm
    cannot hold.
    """
    if len(povms) > N_CAP:
        raise ValueError(f"a joint POVM holds at most {N_CAP} measurements, got {len(povms)}")
    b, a, order = _chain_form(povms)
    N = len(order)
    bias = [b[i] for i in order]
    chain = np.array(a)[order]
    t = 0.5 * (chain[:-1] - chain[1:])
    rows, half_sum = [], 0.0
    for step, (x, y, z), db in zip(t, t.tolist(), [q - p for p, q in zip(bias, bias[1:])]):
        nt = math.sqrt(step.dot(step))  # np.linalg.norm's 1-D formula
        half_sum += nt
        rows += ((nt, x, y, z), (nt + db, -x, -y, -z))
    (x, y, z), (u, v, w) = a[order[0]], a[order[-1]]
    s = (0.5 * (x + u), 0.5 * (y + v), 0.5 * (z + w))
    rows += ((1.0 + bias[0] - half_sum, *s), (1.0 - bias[-1] - half_sum, *(-c for c in s)))

    # run masks in the caller's order and labels: chain position i is bit
    # order[i], and a flipped POVM's bit is negated
    full, run, masks = (1 << N) - 1, 0, []
    for i in order[:-1]:
        run |= 1 << i
        masks += (run, full ^ run)
    masks += (full, 0)
    flip = sum(1 << k for k, p in enumerate(povms) if p.bias < 0)
    joint = JointPovm._from_checked(N, np.array(masks, np.int64) ^ flip, np.array(rows))
    return joint, AppliedRelabeling(tuple(order), tuple(povms[i].bias < 0 for i in order))
