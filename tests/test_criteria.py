import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from jmqubit import (
    COMPATIBLE,
    INCOMPATIBLE,
    UNKNOWN,
    IFF,
    BinaryQubitPovm,
    best_chain_ordering,
    build_general_binary_joint,
    chain_margin,
    coplanar_chain_bound,
    fermat_torricelli,
    general_binary_sufficient,
    n_necessary_sufficient,
    pair_general,
    pair_same_purity_bound,
    pair_unbiased,
    planar_nwise_bound,
    planar_pair_bound,
    planar_subset_bound,
    planar_symmetric_nwise,
    triple_unbiased,
    unbiased_povm,
)
from jmqubit import criteria, oracle, realizer
from jmqubit.criteria import FtConvergenceError
from conftest import random_orthogonal, random_unit, triple_chain_failure

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# pairs


def test_pair_unbiased_orthogonal_boundary():
    b = 1.0 / math.sqrt(2.0)
    assert pair_unbiased(b, EX, b, EY).decision == COMPATIBLE
    assert pair_unbiased(b + 1e-6, EX, b + 1e-6, EY).decision == INCOMPATIBLE


def test_pair_unbiased_parallel_always_compatible():
    v = pair_unbiased(1.0, EX, 1.0, EX)
    assert v.decision == COMPATIBLE and v.strength == IFF


def test_pair_general_reduces_to_unbiased(rng):
    for _ in range(50):
        n1, n2 = random_unit(rng), random_unit(rng)
        eta1, eta2 = rng.uniform(0.2, 1.0, size=2)
        u = pair_unbiased(eta1, n1, eta2, n2)
        g = pair_general(
            BinaryQubitPovm(0.0, eta1 * n1), BinaryQubitPovm(0.0, eta2 * n2)
        )
        assert u.decision == g.decision


def test_pair_general_projective_branch():
    sharp_x = BinaryQubitPovm(0.0, EX)
    sharp_y = BinaryQubitPovm(0.0, EY)
    assert pair_general(sharp_x, sharp_x).decision == COMPATIBLE
    assert pair_general(sharp_x, sharp_y).decision == INCOMPATIBLE
    # projective against an aligned noisy POVM: commuting, hence compatible
    assert pair_general(sharp_x, BinaryQubitPovm(0.0, 0.7 * EX)).decision == COMPATIBLE


def test_pair_general_biased_known_case():
    # bias shrinks the admissible purity relative to the unbiased case
    p = BinaryQubitPovm(0.3, 0.66 * EX)
    q = BinaryQubitPovm(0.3, 0.66 * EY)
    r = pair_general(p, q)
    u = pair_unbiased(0.66, EX, 0.66, EY)
    assert u.decision == COMPATIBLE
    assert r.decision == INCOMPATIBLE


# ---------------------------------------------------------------------------
# Fermat-Torricelli


def test_ft_equilateral_triangle_center():
    pts = [[1, 0, 0], [-0.5, math.sqrt(3) / 2, 0], [-0.5, -math.sqrt(3) / 2, 0]]
    np.testing.assert_allclose(fermat_torricelli(pts), 0.0, atol=1e-8)


def test_ft_wide_angle_returns_anchor():
    pts = np.array([[0, 0, 0], [10, 1e-3, 0], [-10, 1e-3, 0]])
    np.testing.assert_allclose(fermat_torricelli(pts), pts[0], atol=1e-12)


def test_ft_square_diagonal_intersection():
    pts = np.array([[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]], dtype=float)
    y = fermat_torricelli(pts)
    np.testing.assert_allclose(y, 0.0, atol=1e-8)
    assert criteria._total_distance(pts.tolist(), y.tolist()) == pytest.approx(4 * math.sqrt(2), abs=1e-8)


def test_ft_duplicate_points():
    pts = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    np.testing.assert_allclose(fermat_torricelli(pts), pts[0], atol=1e-12)


def test_ft_beats_random_candidates(rng):
    for _ in range(20):
        pts = rng.normal(size=(4, 3))
        y = fermat_torricelli(pts)
        base = criteria._total_distance(pts.tolist(), y.tolist())
        for _ in range(30):
            z = y + rng.normal(size=3) * 0.1
            assert base <= criteria._total_distance(pts.tolist(), z.tolist()) + 1e-7


def _optimal_anchor(pts) -> bool:
    for j in range(len(pts)):
        d = np.delete(pts, j, axis=0) - pts[j]
        if np.linalg.norm((d / np.linalg.norm(d, axis=1)[:, None]).sum(axis=0)) <= 1.0 + 1e-12:
            return True
    return False


def _near_anchor_points(rng) -> np.ndarray:
    """p0 and three points whose unit directions from p0 sum to length r in
    (1, 1.02): p0 just fails the anchor test, and the minimizer lies close to it."""
    r = rng.uniform(1.0, 1.02)
    u1, u2 = random_unit(rng), random_unit(rng)
    sigma = np.linalg.norm(u1 + u2)
    e = (u1 + u2) / sigma
    w = np.cross(e, random_unit(rng))
    w /= np.linalg.norm(w)
    c = (r * r - sigma * sigma - 1.0) / (2.0 * sigma)  # |u1 + u2 + u3| = r
    u3 = c * e + math.sqrt(1.0 - c * c) * w
    p0 = rng.normal(size=3)
    return np.array([p0] + [p0 + rng.uniform(0.2, 3.0) * u for u in (u1, u2, u3)])


def test_ft_converges_next_to_barely_suboptimal_anchor(rng):
    checked = 0
    while checked < 100:
        pts = _near_anchor_points(rng)
        if _optimal_anchor(pts):
            continue
        checked += 1
        y = fermat_torricelli(pts)
        d = np.linalg.norm(y - pts, axis=1)
        assert np.linalg.norm(((y - pts) / d[:, None]).sum(axis=0)) <= 1e-9
        base = criteria._total_distance(pts.tolist(), y.tolist())
        for step in (1e-2, 1e-4, 1e-6):
            for z in y + step * rng.normal(size=(10, 3)):
                assert base <= criteria._total_distance(pts.tolist(), z.tolist()) + 1e-14


def test_ft_non_convergence_raises_and_triple_is_unknown(monkeypatch, caplog):
    etas = [0.5, 0.6, 0.7]
    ns = np.array([EX, (EX + EY) / math.sqrt(2.0), (EY + 2.0 * EZ) / math.sqrt(5.0)])
    a = np.array(etas)[:, None] * ns
    v0 = -a.sum(axis=0)
    pts = np.vstack([v0, -2.0 * a - v0])  # the points triple_unbiased builds
    assert not _optimal_anchor(pts)
    with pytest.raises(FtConvergenceError):
        fermat_torricelli(pts, max_iter=1)
    full = criteria.fermat_torricelli
    monkeypatch.setattr(criteria, "fermat_torricelli", lambda p: full(p, max_iter=1))
    with caplog.at_level(logging.DEBUG, logger="jmqubit.criteria"):
        v = triple_unbiased(etas, ns)
    assert v.decision == UNKNOWN and math.isnan(v.margin)
    # one DEBUG record carries the residual
    [record] = caplog.records
    assert record.name == "jmqubit.criteria" and record.levelno == logging.DEBUG
    assert "residual" in record.getMessage()


# The solver's previous start, kept here for reference_fermat_torricelli as
# an independent check: the anchor test for all points at once, and the
# local-model minimizer in the eigenbasis of the Hessian. src/ now starts from
# one closed-form line step, so the two are compared on objective values, to
# 1e-14, not bit for bit.


def _unit_sums(pts: np.ndarray) -> tuple:
    """(R, |R|, dup) for every point at once: R[j] sums the unit vectors from
    p_j toward the other points, skipping the dup[j] points within 1e-14 of p_j."""
    diff = pts[None, :, :] - pts[:, None, :]  # diff[j, i] = p_i - p_j
    dist = np.linalg.norm(diff, axis=2)
    coincident = dist < 1e-14
    # dividing by inf zeroes the coincident pairs, the diagonal included
    R = (diff / np.where(coincident, np.inf, dist)[:, :, None]).sum(axis=1)
    return R, np.linalg.norm(R, axis=1), coincident.sum(axis=1) - 1


def _hessian(u: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """sum_i (I - u_i u_i^T) inv_i: the Hessian of sum_i |y - p_i| for unit
    vectors u_i along y - p_i and inv_i = 1/|y - p_i|."""
    return inv.sum() * np.eye(3) - (u * inv[:, None]).T @ u


def _anchor_model_minimizer(pts: np.ndarray, j: int, R: np.ndarray, w: float) -> np.ndarray:
    """Minimizer p_j + h of the local model w|h| - R.h + h.H h/2 at a
    non-optimal anchor (|R| > w), H the Hessian of the other points' distances.

    Stationarity gives h = (H + mu I)^-1 R with |h| = w/mu. In the eigenbasis
    of H, F(mu) = w/|h(mu)| - mu is concave and decreasing at its root, so
    Newton from mu0 = w lam_max/(|R| - w), where F <= 0, descends onto it.
    """
    diff = pts - pts[j]
    dist = np.linalg.norm(diff, axis=1)
    inv = 1.0 / np.where(dist < 1e-14, np.inf, dist)
    lam, V = np.linalg.eigh(_hessian(diff * inv[:, None], inv))
    c = V.T @ R
    lam_l, c2 = lam.tolist(), (c * c).tolist()
    mu = w * lam_l[-1] / (math.sqrt(sum(c2)) - w)
    for _ in range(100):
        s2 = sum(ck / (lk + mu) ** 2 for lk, ck in zip(lam_l, c2))
        s3 = sum(ck / (lk + mu) ** 3 for lk, ck in zip(lam_l, c2))
        q = math.sqrt(s2)
        F = w / q - mu
        if F >= -1e-14 * mu:
            break
        mu -= F / (w * s3 / (q * s2) - 1.0)
    return pts[j] + V @ (c / (lam + mu))


def _numpy_objective(pts, y) -> float:
    return float(np.linalg.norm(pts - y, axis=1).sum())


def reference_fermat_torricelli(points, max_iter: int = 10000) -> np.ndarray:
    """fermat_torricelli on numpy (4, 3) arrays, from the anchor test and the
    eigh-based local-model start through the damped Newton loop, kept as the
    reference for the float code that replaced it. Its step floor
    1e-15 * max(1, max|p|) stops it early on points much smaller than 1,
    with |grad f| up to 1e-7 at scale 1e-6; the float loop drops the 1."""
    pts = np.asarray(points, dtype=float)
    R, norms, dup = _unit_sums(pts)
    ok = norms <= 1.0 + dup + 1e-12
    if ok.any():
        return pts[int(np.argmax(ok))].copy()

    scale = max(1.0, float(np.max(np.abs(pts))))
    y = pts.mean(axis=0)
    f = _numpy_objective(pts, y)
    j = int(np.argmin(norms))
    y_model = _anchor_model_minimizer(pts, j, R[j], 1.0 + float(dup[j]))
    f_model = _numpy_objective(pts, y_model)
    if f_model < f:
        y, f = y_model, f_model

    for _ in range(max_iter):
        diff = y - pts
        d = np.linalg.norm(diff, axis=1)
        inv = 1.0 / d
        u = diff * inv[:, None]
        grad = u.sum(axis=0)
        if np.linalg.norm(grad) <= 1e-9:
            return y
        step = -np.linalg.solve(_hessian(u, inv), grad)
        length = float(np.linalg.norm(step))
        if length <= 1e-15 * scale:
            return y
        cap = 0.5 * float(d.min())
        if length > cap:
            step *= cap / length
            length = cap
        elif -float(grad @ step) <= 2e-15 * f:
            y = y + step
            f = _numpy_objective(pts, y)
            continue
        while True:
            y_new = y + step
            f_new = _numpy_objective(pts, y_new)
            if f_new < f:
                break
            step *= 0.5
            length *= 0.5
            if length <= 1e-15 * scale:
                return y
        y, f = y_new, f_new
    diff = y - pts
    residual = float(np.linalg.norm((diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)))
    if residual <= 1e-6:
        return y
    raise FtConvergenceError(residual)


def _ft_reference_inputs(rng):
    """(kind, points) for seeded 4-point sets of every kind the loop meets."""
    for _ in range(80):
        yield "generic", rng.normal(size=(4, 3))
    for _ in range(80):
        yield "near-anchor", _near_anchor_points(rng)
    for _ in range(40):
        etas = rng.uniform(0.3, 1.0, size=3)
        a = etas[:, None] * np.array([random_unit(rng) for _ in range(3)])
        v0 = -a.sum(axis=0)
        yield "triple", np.vstack([v0, -2.0 * a - v0])
    for _ in range(20):
        pts = rng.normal(size=(4, 3))
        pts[int(rng.integers(1, 4))] = pts[0]
        yield "coincident", pts
    for _ in range(20):
        t = np.sort(rng.normal(size=4))
        yield "collinear", rng.normal(size=3) + t[:, None] * random_unit(rng)
    for _ in range(20):
        t = rng.normal(size=4)
        line = rng.normal(size=3) + t[:, None] * random_unit(rng)
        yield "near-collinear", line + 1e-3 * rng.normal(size=(4, 3))
    for factor in (1e-6, 1e3):
        for _ in range(30):
            yield f"scaled {factor:g}", factor * rng.normal(size=(4, 3))
        for _ in range(10):
            yield f"near-anchor scaled {factor:g}", factor * _near_anchor_points(rng)


def test_ft_float_loop_matches_numpy_reference():
    rng = np.random.default_rng(20261018)
    kinds = set()
    count = 0
    for kind, pts in _ft_reference_inputs(rng):
        count += 1
        ref = reference_fermat_torricelli(pts)
        y = fermat_torricelli(pts)
        if any((ref == p).all() for p in pts):
            # both anchor tests pick the same point, bit for bit
            assert np.array_equal(y, ref), kind
            kinds.add((kind, "anchor"))
            continue
        kinds.add((kind, "newton"))
        f_ref, f = _numpy_objective(pts, ref), _numpy_objective(pts, y)
        assert f == criteria._total_distance(pts.tolist(), y.tolist())  # the float objective, bit for bit
        assert abs(f - f_ref) <= 1e-14 * max(1.0, f_ref), (kind, f, f_ref)
        diff = y - pts
        grad = (diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)
        assert np.linalg.norm(grad) <= 1e-9, (kind, np.linalg.norm(grad))
    assert count >= 300
    # every kind of input reached the branch it was made for
    assert {("coincident", "anchor"), ("collinear", "anchor")} <= kinds
    for kind in ("generic", "near-anchor", "triple", "near-collinear",
                 "scaled 1e-06", "scaled 1000"):
        assert (kind, "newton") in kinds


# ---------------------------------------------------------------------------
# triples


def test_triple_orthogonal_boundary():
    b = 1.0 / math.sqrt(3.0)
    ns = np.stack([EX, EY, EZ])
    assert triple_unbiased([b, b, b], ns).decision == COMPATIBLE
    assert triple_unbiased([b + 1e-6] * 3, ns).decision == INCOMPATIBLE


def test_triple_trine_boundary():
    ns = np.array(
        [[1, 0, 0], [-0.5, math.sqrt(3) / 2, 0], [-0.5, -math.sqrt(3) / 2, 0]]
    )
    assert triple_unbiased([2 / 3] * 3, ns).decision == COMPATIBLE
    assert triple_unbiased([2 / 3 + 1e-6] * 3, ns).decision == INCOMPATIBLE


def triple_coplanar_unbiased(a1, a2, a3):
    """Reference for triple_unbiased on coplanar unbiased triples, with a2
    the angular middle vector.

    If a2 is (sub)convex in {a1, a3} the pair condition on (a1, a3) applies;
    otherwise compatible iff |a1+a3| + |a2-a1| + |a3-a2| <= 2.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    a3 = np.asarray(a3, dtype=float)
    A = np.stack([a1, a2, a3])
    svals = np.linalg.svd(A, compute_uv=False)
    if svals[-1] > 1e-10 * max(1.0, svals[0]):
        raise ValueError("vectors are not coplanar within 1e-10")
    M = np.stack([a1, a3], axis=1)
    coef, *_ = np.linalg.lstsq(M, a2, rcond=None)
    if np.linalg.norm(M @ coef - a2) > 1e-10:
        raise ValueError("middle vector not in the span of the outer vectors")
    lam, mu = float(coef[0]), float(coef[1])
    if lam < -1e-12 or mu < -1e-12:
        raise ValueError("middle-vector ordering violated: a2 must lie between a1 and a3")
    if lam + mu <= 1.0 + 1e-12:
        s = np.linalg.norm(a1 + a3) + np.linalg.norm(a3 - a1)
    else:
        s = np.linalg.norm(a1 + a3) + np.linalg.norm(a2 - a1) + np.linalg.norm(a3 - a2)
    return criteria._verdict(2.0 - s, IFF, "triple-coplanar")


def test_triple_coplanar_matches_general(rng):
    for _ in range(40):
        angs = np.sort(rng.uniform(0.0, math.pi * 0.95, size=3))
        eta = rng.uniform(0.5, 1.0)
        vecs = eta * np.array([[math.cos(a), math.sin(a), 0.0] for a in angs])
        v1 = triple_coplanar_unbiased(vecs[0], vecs[1], vecs[2])
        v2 = triple_unbiased([eta] * 3, vecs / eta)
        assert v1.decision == v2.decision
        # the FT margin lives on the doubled derived points, hence the factor 2
        assert v2.margin == pytest.approx(2.0 * v1.margin, abs=1e-6)


_UNIT_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize(
    "etas, ns",
    [
        ([0.5, 0.5], _UNIT_ROWS),  # two purities
        ([0.5] * 4, _UNIT_ROWS),
        ([[0.5]] * 3, _UNIT_ROWS),  # purities of shape (3, 1)
        ([0.5] * 3, _UNIT_ROWS[:2]),  # two vectors
        ([0.5] * 3, _UNIT_ROWS + [[1.0, 1.0, 0.0]]),
        ([0.5] * 3, [row[:2] for row in _UNIT_ROWS]),  # 2-component vectors
        ([0.5] * 3, [row + [0.0] for row in _UNIT_ROWS]),
        ([0.5] * 3, [[row] for row in _UNIT_ROWS]),  # shape (3, 1, 3)
        ([0.5] * 3, [1.0, 0.0, 0.0]),  # one flat vector
    ],
)
def test_triple_unbiased_rejects_wrong_shapes(etas, ns, as_array):
    if as_array:
        etas, ns = np.array(etas), np.array(ns)
    with pytest.raises(ValueError, match="need 3 purities and 3 unit vectors"):
        triple_unbiased(etas, ns)


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize(
    "points",
    [
        [],
        [1.0, 2.0, 3.0],  # one flat point
        [[1.0, 2.0]],
        [[1.0, 2.0, 3.0, 4.0]],
        [[[1.0, 2.0, 3.0]]],  # shape (1, 1, 3)
        [[[1.0], [2.0], [3.0]]],  # shape (1, 3, 1)
    ],
)
def test_fermat_torricelli_rejects_wrong_shapes(points, as_array):
    if as_array:
        points = np.array(points)
    with pytest.raises(ValueError, match=r"non-empty \(m,3\) array"):
        fermat_torricelli(points)


def test_fermat_torricelli_rejects_ragged_and_non_numeric_rows():
    for points in ([[1.0, 2.0, 3.0], [4.0, 5.0]], [[1.0, 2.0, None]], [["a", 2.0, 3.0]], None, 3.0):
        with pytest.raises(ValueError, match=r"non-empty \(m,3\) array"):
            fermat_torricelli(points)


def test_triple_coplanar_middle_check():
    a1 = np.array([1.0, 0.0, 0.0])
    a3 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        triple_coplanar_unbiased(a1, np.array([1.5, -0.5, 0.0]), a3)
    with pytest.raises(ValueError):
        triple_coplanar_unbiased(a1, np.array([0.0, 0.0, 1.0]), a3)


# ---------------------------------------------------------------------------
# N-wise bounds


def test_n_necessary_sufficient_orthogonal():
    for N, axes in ((2, [EX, EY]), (3, [EX, EY, EZ])):
        bound = 1.0 / math.sqrt(N)
        nec, suf = n_necessary_sufficient(bound, np.stack(axes))
        assert nec.decision == UNKNOWN and suf.decision == COMPATIBLE
        nec, suf = n_necessary_sufficient(bound + 1e-6, np.stack(axes))
        assert nec.decision == INCOMPATIBLE


# The numpy kernel, replaced in src/ by a float scan over the 2^(N-1) sign
# strings with x_1 = +1, kept here as the reference: all 2^N sign strings as
# the rows of one matrix product.


def _reference_n_bounds(ns) -> tuple:
    ns = np.asarray(ns, dtype=float)
    N = len(ns)
    signs = ((np.arange(2 ** N)[:, None] >> np.arange(N)) & 1) * 2.0 - 1.0
    norms = np.linalg.norm(signs @ ns, axis=1)
    return float(norms.max()) / N, (2.0 ** N) / float(norms.sum())


def _n_wise_reference_rows(rng, N):
    u = random_unit(rng)
    yield "random", np.array([random_unit(rng) for _ in range(N)])
    yield "orthogonal", np.array([(EX, EY, EZ)[k % 3] for k in range(N)])
    yield "parallel", np.array([u] * N)
    yield "antiparallel", np.array([u * (-1) ** k for k in range(N)])
    if N > 1:  # one zero row of one would leave every sum zero
        rows = np.array([random_unit(rng) for _ in range(N)])
        rows[rng.integers(N)] = 0.0
        yield "zero vector", rows


def test_n_necessary_sufficient_matches_numpy_reference():
    rng = np.random.default_rng(20261019)
    for N in range(1, 11):
        for kind, rows in _n_wise_reference_rows(rng, N):
            nec_bound, suf_bound = _reference_n_bounds(rows)
            # purities at either bound, where the decisions turn, and a random one
            for eta in (nec_bound, suf_bound, float(rng.uniform(0.1, 1.0))):
                for ns in (rows, [tuple(r) for r in rows.tolist()]):
                    nec, suf = n_necessary_sufficient(eta, ns)
                    ref_nec = criteria._verdict(nec_bound - eta, "necessary-only", "n-wise-necessary")
                    ref_suf = criteria._verdict(suf_bound - eta, "sufficient-only", "n-wise-sufficient")
                    assert (nec.decision, suf.decision) == (ref_nec.decision, ref_suf.decision), (N, kind)
                    assert abs(nec.margin - ref_nec.margin) <= 1e-15, (N, kind, nec.margin, ref_nec.margin)
                    assert abs(suf.margin - ref_suf.margin) <= 1e-15, (N, kind, suf.margin, ref_suf.margin)


def test_n_necessary_sufficient_rejects_bad_shapes():
    with pytest.raises(ValueError):
        n_necessary_sufficient(0.5, np.zeros((21, 3)))
    for ns in ([], [[1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            n_necessary_sufficient(0.5, ns)


def test_planar_symmetric_bounds():
    assert planar_nwise_bound(3) == pytest.approx(2 / 3, abs=1e-15)
    assert planar_nwise_bound(4) == pytest.approx(0.6532814824381883, abs=1e-15)
    assert planar_symmetric_nwise(3, 2 / 3).decision == COMPATIBLE
    assert planar_symmetric_nwise(3, 2 / 3 + 1e-9).decision == INCOMPATIBLE


def test_pair_and_subset_bound_relations():
    # gap-1 pair bound equals the two-element subset bound
    for N in (4, 5, 6, 7):
        assert planar_pair_bound(N, 1) == pytest.approx(
            planar_subset_bound(N, [1, 2]), abs=1e-15
        )
    # the full-family subset bound telescopes to the chain form
    assert planar_subset_bound(6, [1, 2, 3]) == pytest.approx(
        1.0 / (2 * math.sin(math.pi / 12) + math.cos(math.pi / 6)), abs=1e-15
    )


def test_coplanar_chain_bound_matches_subset_bound():
    N, ks = 7, [1, 3, 4, 6]
    angles = [(k - ks[0]) * math.pi / N for k in ks[1:]]
    assert coplanar_chain_bound(angles) == pytest.approx(
        planar_subset_bound(N, ks), abs=1e-15
    )


def test_pair_same_purity_bound_values():
    assert pair_same_purity_bound(math.pi / 2) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-15
    )
    assert pair_same_purity_bound(math.pi / 3) == pytest.approx(
        math.sqrt(3) - 1, abs=1e-12
    )


# ---------------------------------------------------------------------------
# chains


def test_chain_iff_for_unbiased_pairs(rng):
    for _ in range(30):
        n1, n2 = random_unit(rng), random_unit(rng)
        eta = rng.uniform(0.3, 1.0)
        ps = [unbiased_povm(eta, n1), unbiased_povm(eta, n2)]
        v = general_binary_sufficient(ps)
        assert v.strength == IFF
        assert v.decision == pair_unbiased(eta, n1, eta, n2).decision


def test_chain_margin_invariant_under_flips(rng):
    for _ in range(20):
        ps = [
            BinaryQubitPovm(rng.uniform(-0.2, 0.2), 0.5 * random_unit(rng))
            for _ in range(4)
        ]
        flipped = [BinaryQubitPovm(-p.bias, -p.bloch) for p in ps]
        assert general_binary_sufficient(ps).margin == pytest.approx(
            general_binary_sufficient(flipped).margin, abs=1e-12
        )


def test_best_chain_ordering_improves(rng):
    for _ in range(20):
        ps = [unbiased_povm(0.6, random_unit(rng)) for _ in range(4)]
        _, best = best_chain_ordering(ps)
        assert best.margin >= general_binary_sufficient(ps).margin - 1e-12


def _loop_chain_margin(ps) -> float:
    """Reference chain slack: flip negative biases, stable-sort, plain loop."""
    chain = sorted(
        [(-p.bias, -p.bloch) if p.bias < 0 else (p.bias, p.bloch) for p in ps],
        key=lambda t: t[0],
    )
    a = [v for _, v in chain]
    lhs = np.linalg.norm(a[0] + a[-1])
    lhs += sum(np.linalg.norm(a[k] - a[k + 1]) for k in range(len(a) - 1))
    return 2.0 * (1.0 - chain[-1][0]) - lhs


def test_best_chain_ordering_scores_every_tie_group_order(rng):
    # with biases (0.2, 0.1, 0.2) the order (1, 2, 0) must be scored too
    for biases in ([0.2, 0.1, 0.2], [0.1, -0.1, 0.0, 0.0, 0.2], [0.0, 0.3, 0.0, -0.3, 0.0, 0.3]):
        for _ in range(20):
            ps = [BinaryQubitPovm(b, 0.3 * random_unit(rng)) for b in biases]
            perm, v = best_chain_ordering(ps)
            brute = max(
                _loop_chain_margin([ps[i] for i in p])
                for p in itertools.permutations(range(len(ps)))
            )
            assert v.margin == pytest.approx(brute, abs=1e-14)
            ordered = [ps[i] for i in perm]
            assert chain_margin(ordered) == v.margin
            if v.margin >= 0:
                joint, _ = build_general_binary_joint(ordered)
                assert joint.validate().ok


# The numpy chain scorer, replaced in src/ by a loop over Python floats for
# unique orders and kept here as the reference: every candidate order built
# as an index array and scored from the matrices |a_i - a_j| and |a_i + a_j|.


def _reference_best_chain_ordering(povms) -> tuple:
    flips = [p.bias < 0 for p in povms]
    b = np.abs([p.bias for p in povms])
    a = np.array([-p.bloch if f else p.bloch for p, f in zip(povms, flips)]).reshape(len(b), 3)
    order = b.argsort(kind="stable")
    sizes = [len(list(run)) for _, run in itertools.groupby(b[order].tolist())]
    seqs = order[None, :]
    start = 0
    for size in sizes:
        if size > 1:
            block = order[start:start + size][np.array(list(itertools.permutations(range(size))))]
            count = len(seqs)
            seqs = np.repeat(seqs, len(block), axis=0)
            seqs[:, start:start + size] = np.tile(block, (count, 1))
        start += size
    if len(sizes) == 1 and len(povms) > 1:
        seqs = seqs[seqs[:, 0] < seqs[:, -1]]
    d = a + np.array([-1.0, 1.0])[:, None, None, None] * a[:, None, :]
    dist = np.sqrt(np.einsum("...k,...k", d, d))
    lhs = dist[1, seqs[:, 0], seqs[:, -1]] + dist[0, seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    margins = 2.0 * (1.0 - b.max()) - lhs
    k = int(np.argmax(margins))
    return tuple(seqs[k].tolist()), float(margins[k])


def _chain_reference_inputs(rng):
    for N in range(1, 8):
        for _ in range(12):
            yield "distinct", [rng.uniform(-0.3, 0.3) for _ in range(N)]
            yield "ties", list(rng.choice([0.0, 0.1, -0.1, 0.2, -0.2], size=N))
            yield "unbiased", [0.0] * N
            yield "zero vector", list(rng.choice([0.0, 0.15, -0.15], size=N))
    # the largest search: N = 8, all |bias| tied, 20,160 candidate orders
    yield "ties", [0.1, -0.1] * 4


def test_best_chain_ordering_matches_numpy_reference():
    rng = np.random.default_rng(20261018)
    kinds = set()
    for kind, biases in _chain_reference_inputs(rng):
        ps = [
            BinaryQubitPovm(b, rng.uniform(0.0, 1.0 - abs(b)) * random_unit(rng))
            for b in biases
        ]
        if kind == "zero vector":
            k = int(rng.integers(len(ps)))
            ps[k] = BinaryQubitPovm(ps[k].bias, np.zeros(3))
        perm, v = best_chain_ordering(ps)
        ref_perm, ref_margin = _reference_best_chain_ordering(ps)
        assert perm == ref_perm, (kind, biases)
        assert abs(v.margin - ref_margin) <= 1e-15, (kind, v.margin, ref_margin)
        if len(set(map(abs, biases))) == len(ps):
            assert chain_margin(ps) == v.margin
            kinds.add("unique order")
        else:
            kinds.add("tie groups")
    assert kinds == {"unique order", "tie groups"}


# TIE policy near the boundary: a margin within TIE of zero resolves toward
# Compatible, and neither outcome flips nor a common rotation move a verdict
# across TIE. The inputs scale every Bloch vector by t, with t found by
# bisection so that the margin sits 10 % inside or outside +-TIE.

_TIE_TARGETS = [s * f * criteria.TIE for s in (-1.0, 1.0) for f in (0.9, 1.1)]


def _scaled(biases, vectors, t) -> list:
    return [BinaryQubitPovm(b, t * np.asarray(v)) for b, v in zip(biases, vectors)]


def _at_margin(score, biases, vectors, target):
    """POVMs (b_k, t a_k) whose margin is target, to 1e-14; None when no t
    in (0, t_max] brackets it. At t_max one POVM would reach |b| + |a| = 1,
    where an effect's smaller eigenvalue vanishes and pair-general's F_k,
    a square root of it, turns rounding into margin errors up to 5.5e-14; t_max
    keeps every POVM 1 % inside that bound."""
    t_max = min(0.99 * (1.0 - abs(b)) / np.linalg.norm(v) for b, v in zip(biases, vectors))
    lo, hi = 1e-6 * t_max, t_max
    if not score(_scaled(biases, vectors, lo)) > target > score(_scaled(biases, vectors, hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if score(_scaled(biases, vectors, mid)) > target:
            lo = mid
        else:
            hi = mid
    povms = _scaled(biases, vectors, lo)
    return povms if abs(score(povms) - target) <= 1e-14 else None


def _proper_rotation(seed: int) -> np.ndarray:
    R = random_orthogonal(np.random.default_rng(seed))
    return R if np.linalg.det(R) > 0 else -R


def _check_tie_invariance(decide, povms, target, flips, seed):
    v = decide(povms)
    if target >= -criteria.TIE:
        assert v.decision == COMPATIBLE
    else:
        assert v.decision == (INCOMPATIBLE if v.strength == IFF else UNKNOWN)
    R = _proper_rotation(seed)
    flipped = [BinaryQubitPovm(-p.bias, -p.bloch) if f else p for p, f in zip(povms, flips)]
    for variant in (flipped, [BinaryQubitPovm(p.bias, R @ p.bloch) for p in flipped]):
        w = decide(variant)
        assert w.decision == v.decision
        assert abs(w.margin - v.margin) <= 1e-14


_vector = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@given(
    st.lists(st.floats(-0.4, 0.4), min_size=2, max_size=2),
    st.lists(_vector, min_size=2, max_size=2),
    st.sampled_from(_TIE_TARGETS),
    st.lists(st.booleans(), min_size=2, max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_pair_general_tie_invariant_under_flips_and_rotation(biases, vectors, target, flips, seed):
    decide = lambda ps: pair_general(*ps)
    povms = _at_margin(lambda ps: decide(ps).margin, biases, vectors, target)
    assume(povms is not None)
    _check_tie_invariance(decide, povms, target, flips, seed)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([0.0, 0.1, -0.1, 0.25]) | st.floats(-0.3, 0.3), min_size=n, max_size=n),
            st.lists(_vector, min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    ),
    st.sampled_from(_TIE_TARGETS),
    st.integers(0, 2**32 - 1),
)
def test_biased_chain_tie_invariant_under_flips_and_rotation(case, target, seed):
    biases, vectors, flips = case
    # the normal form undoes a flip only where the bias is nonzero; flipping
    # an unbiased POVM negates its vector in the chain, another inequality
    flips = [f and b != 0.0 for f, b in zip(flips, biases)]
    decide = lambda ps: best_chain_ordering(ps)[1]
    povms = _at_margin(lambda ps: decide(ps).margin, biases, vectors, target)
    assume(povms is not None)
    _check_tie_invariance(decide, povms, target, flips, seed)


# pair-general under a common rotation. Its margin is ill-conditioned next to
# extremal POVMs (|b| + |a| = 1), so every POVM is kept 1 % inside that bound:
# |a| <= 0.99 (1 - |b|). There a rotation, which only re-rounds the Bloch
# vectors, moves the margin by at most 1e-13.

_PAIR_ROTATION_MOVE = 1e-13


def _inside_pair(biases, vectors, fractions) -> list:
    return [
        BinaryQubitPovm(b, f * (1.0 - abs(b)) * np.asarray(v) / np.linalg.norm(v))
        for b, v, f in zip(biases, vectors, fractions)
    ]


def _rotated(povms, seed) -> list:
    R = _proper_rotation(seed)
    return [BinaryQubitPovm(p.bias, R @ p.bloch) for p in povms]


@given(
    st.lists(st.floats(-0.9, 0.9) | st.sampled_from([0.0, 0.5, -0.5]), min_size=2, max_size=2),
    st.lists(_vector, min_size=2, max_size=2),
    st.lists(st.floats(0.0, 0.99) | st.just(0.99), min_size=2, max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_pair_general_margin_stable_under_rotation(biases, vectors, fractions, seed):
    povms = _inside_pair(biases, vectors, fractions)
    v, w = pair_general(*povms), pair_general(*_rotated(povms, seed))
    assert abs(w.margin - v.margin) <= _PAIR_ROTATION_MOVE, (v.margin, w.margin)
    for edge in (-criteria.TIE, criteria.TIE):
        if abs(v.margin - edge) > _PAIR_ROTATION_MOVE:
            assert (w.margin >= edge) == (v.margin >= edge)


@given(
    st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2),
    st.lists(st.floats(0.9, 1.0), min_size=2, max_size=2),
    st.floats(math.pi / 4, 3 * math.pi / 4),
    st.sampled_from([e + s * 2.0 * _PAIR_ROTATION_MOVE for e in (-criteria.TIE, criteria.TIE) for s in (-1.0, 1.0)]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_pair_general_never_crosses_tie_under_rotation(biases, scales, angle, target, frame, seed):
    # margins 2e-13 either side of -TIE and of +TIE stay on their side. With
    # |b| <= 0.2, Bloch directions 45 to 135 degrees apart and lengths within
    # 10 % of 1 - |b|, a pair is compatible at small t and incompatible by more
    # than 0.03 at _at_margin's t_max, so the bisection always brackets target
    R = _proper_rotation(frame)
    units = [R @ (1.0, 0.0, 0.0), R @ (math.cos(angle), math.sin(angle), 0.0)]
    vectors = [s * (1.0 - abs(b)) * u for b, s, u in zip(biases, scales, units)]
    povms = _at_margin(lambda ps: pair_general(*ps).margin, biases, vectors, target)
    assert povms is not None
    v, w = pair_general(*povms), pair_general(*_rotated(povms, seed))
    assert abs(w.margin - v.margin) <= _PAIR_ROTATION_MOVE
    edge = -criteria.TIE if target < 0 else criteria.TIE
    assert (w.margin >= edge) == (v.margin >= edge) == (target >= edge)
    assert w.decision == v.decision


# The closed-form decider lets a set inherit a (k-1)-subset's chain failure:
# that is sound only if dropping a POVM never lowers the chain's best margin.
# Biases mix exact ties (including negative ones of equal |bias|) with
# distinct values; an unbiased set, or one of a single |bias|, ties throughout.
_chain_bias = st.sampled_from([0.0, 0.1, -0.1, 0.25, -0.25]) | st.floats(-0.4, 0.4)


@given(
    st.integers(3, 7).flatmap(
        lambda n: st.tuples(
            st.lists(_chain_bias, min_size=n, max_size=n),
            st.lists(_vector, min_size=n, max_size=n),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        )
    ),
    st.sampled_from(["mixed", "unbiased", "one |bias|"]),
)
def test_chain_margin_never_rises_when_a_povm_is_added(case, bias_kind):
    biases, vectors, lengths = case
    if bias_kind == "unbiased":
        biases = [0.0] * len(biases)
    elif bias_kind == "one |bias|":
        biases = [math.copysign(abs(biases[0]), b) for b in biases]
    povms = [
        BinaryQubitPovm(b, t * (1.0 - abs(b)) * np.asarray(v) / np.linalg.norm(v))
        for b, v, t in zip(biases, vectors, lengths)
    ]
    # as the decider scores the chain: every ordering up to N = 6, the
    # stable order alone at N = 7
    whole = (best_chain_ordering(povms)[1] if len(povms) <= 6 else general_binary_sufficient(povms)).margin
    for j in range(len(povms)):
        sub = povms[:j] + povms[j + 1:]
        assert best_chain_ordering(sub)[1].margin >= whole - 1e-14, (j, biases)


# The closed-form decider records an unbiased triple whose chain values all
# clear 4 by its guard as failing the chain, and every superset inherits that
# failure. All-unbiased supersets are the tightest case, the chain's top term
# being 2; biases within the unbiased tolerance, negative ones included, make
# the chain flip outcomes. The triple is scaled so that its smallest chain
# value lies 0-1e-9 or up to 1 past the guard; an added POVM sits on a segment
# a_i -> a_j or a_i -> -a_j, where it lengthens no path, or anywhere.
_unbiased_bias = st.sampled_from([0.0, 0.0, -0.0, 5e-13, -5e-13, -1e-12])
_added = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.sampled_from([1.0, -1.0]), st.floats(0.0, 1.0),
    st.one_of(st.none(), _vector), _unbiased_bias,
)


@seed(2020)
@settings(max_examples=300)
@given(
    st.lists(_vector, min_size=3, max_size=3),
    st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    st.lists(_unbiased_bias, min_size=3, max_size=3),
    st.one_of(st.floats(0.0, 1e-9), st.floats(0.0, 1.0)),
    st.lists(_added, max_size=3),
    st.permutations(range(6)),
)
def test_triple_chain_failure_holds_for_every_unbiased_superset(vectors, lengths, biases, past, added, shuffle):
    a = [t * np.asarray(v) / np.linalg.norm(v) for v, t in zip(vectors, lengths)]
    values = criteria.triple_anchor_values(*(tuple(x.tolist()) for x in a))
    chain = min(values if any(b < 0.0 for b in biases) else values[1:])
    scale = (4.0 + realizer._TRIPLE_CHAIN_GUARD + past) / chain
    a = [scale * x for x in a]
    assume(max(np.linalg.norm(x) for x in a) <= 1.0)
    triple = [BinaryQubitPovm(b, x) for b, x in zip(biases, a)]
    failed = triple_chain_failure(triple)
    assume(failed is not None)  # rounding can leave a triple at the guard itself
    extras = []
    for i, j, sign, u, anywhere, b in added:
        x = a[i] + u * (sign * a[j] - a[i]) if anywhere is None else u * np.asarray(anywhere) / np.linalg.norm(anywhere)
        extras.append(BinaryQubitPovm(b, x))
    for r in range(len(extras) + 1):
        for more in itertools.combinations(extras, r):
            superset = triple + list(more)
            superset = [superset[k] for k in shuffle if k < len(superset)]
            v = best_chain_ordering(superset)[1]
            assert v.decision == UNKNOWN and v.margin <= failed.margin + 1e-14, (past, r, v)


@given(
    st.integers(0, 5),
    st.floats(-0.45, 0.45),
    st.floats(0.05, 0.5),
    _vector,
    st.floats(1e-10, 1e-8),
)
def test_pair_general_continuous_across_projective_branch(axis, b2, eta2, direction, delta):
    # p1 sharp along a coordinate axis takes the projective branch (F1 = 0)
    n1 = np.eye(3)[axis % 3] * (1.0 if axis < 3 else -1.0)
    eta2 = min(eta2, 1.0 - abs(b2))
    u = np.asarray(direction) / np.linalg.norm(direction)
    for n2 in (u, n1, -n1):  # a generic direction, then commuting ones
        p2 = BinaryQubitPovm(b2, eta2 * n2)
        cross = np.linalg.norm(np.cross(n1, p2.bloch))
        if 0.0 < cross < 1e-3:
            continue  # too close to the branch's boundary
        branch = pair_general(BinaryQubitPovm(0.0, n1), p2)
        assert abs(branch.margin + cross) <= 1e-15  # the branch's margin
        near = pair_general(BinaryQubitPovm(0.0, (1.0 - delta) * n1), p2)
        assert near.decision == branch.decision, (n2, near.margin, branch.margin)


# unbiased triples at (1 +- delta) times the FT threshold: the FT objective is
# homogeneous of degree 1 in the Bloch vectors, so scaling the purities by
# 4 / min f puts the minimum at 4. Axis directions and their opposites bring
# parallel and antiparallel pairs, whose minimum sits at or next to a data point.
_triple_direction = st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]) | _vector


def _is_ft_minimizer(points, y, tol: float = 1e-6) -> bool:
    """The subgradient test at y: the unit vectors from y toward the other
    points sum to at most the number of points at y, up to tol (by default
    the residual fermat_torricelli accepts after max_iter steps)."""
    rx = ry = rz = 0.0
    at = 0
    for p in points:
        d = math.dist(p, y)
        if d < 1e-14:
            at += 1
            continue
        rx, ry, rz = rx + (p[0] - y[0]) / d, ry + (p[1] - y[1]) / d, rz + (p[2] - y[2]) / d
    return math.hypot(rx, ry, rz) <= at + tol


def _threshold_triple(ns, weights, delta, side):
    """(etas, points): purities w_k * 4 / min f * (1 + side * delta), so
    the FT minimum sits at (1 + side * delta) * 4, and triple_unbiased's
    points, built as it builds them; None when triple_unbiased cannot score
    the weights."""
    at_one = triple_unbiased(weights, ns)
    if at_one.decision == UNKNOWN:
        return None
    etas = [w * 4.0 / (4.0 - at_one.margin) * (1.0 + side * delta) for w in weights]
    a = [[e * x for x in n] for e, n in zip(etas, ns)]
    v0 = [-(a[0][c] + a[1][c] + a[2][c]) for c in range(3)]
    return etas, [v0] + [[-2.0 * aj[c] - v0[c] for c in range(3)] for aj in a]


@given(
    st.lists(_triple_direction, min_size=3, max_size=3),
    st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    st.floats(1e-9, 1e-2),
    st.sampled_from([-1.0, 1.0]),
)
def test_triple_anchor_agrees_with_triple_ft_at_its_threshold(vectors, weights, delta, side):
    ns = [[x / math.hypot(*v) for x in v] for v in vectors]
    triple = _threshold_triple(ns, weights, delta, side)
    assume(triple is not None)
    etas, points = triple
    ft = triple_unbiased(etas, ns)
    a = [[e * x for x in n] for e, n in zip(etas, ns)]
    values = criteria.triple_anchor_values(*a)
    for p, value in zip(points, values):
        assert abs(value - criteria._total_distance(points, p)) <= 1e-14
    anchor = criteria.triple_anchor(*a)
    assert anchor == (anchor.decision, "sufficient-only", 4.0 - min(values), "triple-anchor")
    assert anchor.decision != INCOMPATIBLE
    # a value of the objective bounds its minimum, so triple-anchor proves
    # compatibility only where triple-ft does and its margin is never larger
    assert not (anchor.is_compatible and ft.is_incompatible), (anchor, ft)
    assert anchor.margin <= ft.margin + 1e-12, (anchor, ft)


def test_triple_ft_next_to_two_nearly_coinciding_points():
    # x and -x at purities 0.969 and 0.949 put v0 and v3 0.04 apart, with
    # f(v0) = 4.00001 and f(v3) = 3.99919; the minimum, 3.99830, is off both,
    # and a solve that stops at v0 reads the triple as incompatible
    n3 = np.array([0.6711, -0.7542, -0.6405])
    etas = [0.96937, 0.94931, 0.29071]
    ns = [EX, -EX, n3 / np.linalg.norm(n3)]
    v = triple_unbiased(etas, ns)
    assert v.decision == COMPATIBLE and v.margin == pytest.approx(0.0017, abs=1e-4), v
    povms = [unbiased_povm(e, n) for e, n in zip(etas, ns)]
    assert oracle.checked_decision(oracle.decide(povms), povms) == COMPATIBLE


def test_ft_solver_reaches_the_minimum_at_triple_thresholds():
    # the property test's draws, seeded: 30 % of the directions are +-x or y
    rng = np.random.default_rng(29)
    axes = [EX, -EX, EY]
    checked = 0
    for _ in range(2000):
        ns = [(axes[rng.integers(3)] if rng.random() < 0.3 else random_unit(rng)).tolist() for _ in range(3)]
        weights = rng.uniform(0.2, 1.0, size=3).tolist()
        delta, side = 10.0 ** rng.uniform(-9, -2), (1.0 if rng.random() < 0.5 else -1.0)
        triple = _threshold_triple(ns, weights, delta, side)
        if triple is None:
            continue
        points = triple[1]
        assert _is_ft_minimizer(points, fermat_torricelli(points).tolist()), (ns, weights, delta, side)
        checked += 1
    assert checked >= 1990


# f decreases toward a point that fails the anchor test, and Newton steps
# capped at half the distance to the nearest point kept halving toward it:
# without the restart the solver stopped within 5e-15 of point 2 of the five
# (|R_2| = 2.008, f = 38.37113) and at point 6 of the six. With it neither
# solve halves a Newton step. In a line trace of the test suite the
# step-halving loop runs for the near-axis triple (a zero step from an
# iterate on a data point), the two-cluster sets below and a set in
# test_unbiased_only_registry_functions_skip_biased_subsets; the return on
# a residual accepted after max_iter steps never runs
FT_POINTS_THAT_DRAW_NEWTON_IN = {
    "five-points": (
        [[0.6190576918785472, -1.2628016802610973, 0.3210175349537871],
         [-0.186287952308489, -0.14946258853645, -0.11335135170978601],
         [0.08961020887835422, -0.0885009035232925, -0.10687313468894499],
         [16.334013862803545, -11.789056179802074, 5.043157619194267],
         [-14.642928803568276, -4.640611207988658, -4.6067181873893865]],
        38.2305727,
    ),
    "six-points": (
        [[1.097563459814145, -0.19528917989644415, 1.6045222417204126],
         [13.659784156606257, -13.400639838410664, -5.137174725866684],
         [1.2461920397888773, 1.7849310611642564, 1.3391379288972156],
         [-2.38108084124619, 8.941414908520185, -8.226520177146329],
         [-1.0036078129629864, 1.848743268639911, 0.14254982314040235],
         [2.292207025648477, -0.3904219114472621, -1.2938322183365607]],
        39.7475053,
    ),
}


@pytest.mark.parametrize("name", sorted(FT_POINTS_THAT_DRAW_NEWTON_IN))
def test_ft_restarts_off_a_point_that_draws_newton_in(name):
    points, minimum = FT_POINTS_THAT_DRAW_NEWTON_IN[name]
    y = fermat_torricelli(points).tolist()
    assert min(math.dist(y, p) for p in points) > 1e-3
    grad = [sum((y[c] - p[c]) / math.dist(y, p) for p in points) for c in range(3)]
    assert math.hypot(*grad) <= 1e-9
    assert criteria._total_distance(points, y) == pytest.approx(minimum, abs=1e-7)


# two tight clusters, of three points and of two, each within about 1e-8: on
# the segment between them the points lie on one line, so f falls linearly
# and the Hessian has no curvature along it. There the solver once stopped
# with |grad f| = 1.0 at f = 31.635583066422754 ("stall", a Newton step
# halved below resolution) or let numpy's LinAlgError out ("singular", det =
# 0). The minima are Nelder-Mead's
FT_POINTS_IN_TWO_CLUSTERS = {
    "stall": (
        [[7.299162769364644, -5.552647390227071, -1.8154074546815835],
         [7.299162766035277, -5.552647375000599, -1.8154074773728732],
         [3.9162792044849293, 7.928412983759264, 1.871876153561501],
         [7.299162818037195, -5.552647389994638, -1.8154074416350188],
         [3.9162792365173393, 7.928412927380853, 1.871876146151492]],
        28.759621025033194,
    ),
    "singular": (
        [[7.141183252964132, -2.333829739112908, 0.6730375364595156],
         [7.141183254118923, -2.333829740886694, 0.6730375354965159],
         [1.6352062491136834, -2.329900141887139, -5.942486899811626],
         [7.141183251934831, -2.333829738296167, 0.6730375363183619],
         [1.6352062504837752, -2.3299001414722578, -5.942486898866999]],
        17.214059577429477,
    ),
}


@pytest.mark.parametrize("name", sorted(FT_POINTS_IN_TWO_CLUSTERS))
def test_ft_takes_a_line_step_where_newton_stalls_on_two_clusters(name):
    points, minimum = FT_POINTS_IN_TWO_CLUSTERS[name]
    y = fermat_torricelli(points).tolist()
    assert criteria._total_distance(points, y) == pytest.approx(minimum, abs=1e-9)


def test_ft_reaches_the_minimum_on_five_to_eight_points():
    # points at scales spread over a few decades; the solver without its
    # restart stops next to a data point on 6 of these 3,000 sets
    rng = np.random.default_rng(1)
    for _ in range(3000):
        m = int(rng.integers(5, 9))
        points = (rng.normal(size=(m, 3)) * np.exp(rng.normal(scale=1.5, size=(m, 1)))).tolist()
        assert _is_ft_minimizer(points, fermat_torricelli(points).tolist(), 1e-9), points


def test_triple_ft_survives_an_iterate_on_a_data_point():
    # three POVMs within 1e-11 of one axis: a Newton iterate lands exactly on
    # a data point, where the solve once divided by its zero distance
    dirs = [[-0.9188938218048265, 0.3627271539971472, 0.15512303504653935],
            [0.9188938218033348, -0.36272715399943367, -0.15512303505002883],
            [0.9188938218058316, -0.36272715399560684, -0.15512303504418784]]
    v = realizer.REGISTRY["triple-ft"]([unbiased_povm(0.7, d) for d in dirs])
    assert v.decision == COMPATIBLE and v.margin >= 1.1999999999, v


def test_triple_ft_answers_nearly_parallel_povms():
    # +-axis plus noise of size eps: four points in two tight clusters, or
    # all four nearly on one line
    rng = np.random.default_rng(29)
    for _ in range(2000):
        axis = random_unit(rng)
        eps = 10.0 ** rng.uniform(-9, -2)
        sub = []
        for _ in range(3):
            d = (1.0 if rng.random() < 0.5 else -1.0) * axis + eps * rng.normal(size=3)
            sub.append(BinaryQubitPovm(0.0, rng.uniform(0.2, 1.0) * d / np.linalg.norm(d)))
        v = realizer.REGISTRY["triple-ft"](sub)
        assert v.decision != UNKNOWN, (sub, v)


def test_sufficient_only_failure_is_unknown():
    ps = [unbiased_povm(0.99, random_unit(np.random.default_rng(k))) for k in range(4)]
    v = general_binary_sufficient(ps)
    assert v.strength == "sufficient-only"
    if v.margin < -1e-12:
        assert v.decision == UNKNOWN


def test_tie_resolves_compatible():
    b = planar_nwise_bound(4)
    assert planar_symmetric_nwise(4, b).decision == COMPATIBLE
    assert planar_symmetric_nwise(4, b + 5e-13).decision == COMPATIBLE
    assert planar_symmetric_nwise(4, b + 1e-11).decision == INCOMPATIBLE
