"""Closed-form joint-measurability criteria for binary qubit POVMs.

Each criterion returns a Verdict carrying its decision, its logical strength
(iff / necessary-only / sufficient-only) and the signed slack ("margin") of
the tested inequality in its natural normalization. Ties |margin| <= 1e-12
resolve toward Compatible, matching the half-open purity intervals
(lo, bound] used throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .povm import BinaryQubitPovm

TIE = 1e-12

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"
UNKNOWN = "unknown"

IFF = "iff"
NECESSARY_ONLY = "necessary-only"
SUFFICIENT_ONLY = "sufficient-only"


class Verdict(NamedTuple):
    """A criterion's answer, immutable and hashable."""

    decision: str
    strength: str
    margin: float
    criterion_id: str

    @property
    def is_compatible(self) -> bool:
        return self.decision == COMPATIBLE

    @property
    def is_incompatible(self) -> bool:
        return self.decision == INCOMPATIBLE


def _verdict(margin: float, strength: str, criterion_id: str) -> Verdict:
    """margin >= 0 means the criterion's compatibility inequality holds."""
    if margin >= -TIE:
        decision = COMPATIBLE
    elif strength == SUFFICIENT_ONLY:
        decision = UNKNOWN
    else:
        decision = INCOMPATIBLE
    if strength == NECESSARY_ONLY and decision == COMPATIBLE:
        # a satisfied necessary condition proves nothing
        decision = UNKNOWN
    return Verdict(decision, strength, float(margin), criterion_id)


# ---------------------------------------------------------------------------
# pairs


def pair_unbiased(eta1: float, n1, eta2: float, n2) -> Verdict:
    """Two unbiased POVMs: compatible iff |v+| + |v-| <= 2, v+- = eta1 n1 +- eta2 n2."""
    v1 = float(eta1) * np.asarray(n1, dtype=float)
    v2 = float(eta2) * np.asarray(n2, dtype=float)
    s = np.linalg.norm(v1 + v2) + np.linalg.norm(v1 - v2)
    return _verdict(2.0 - s, IFF, "pair-unbiased")


def pair_general(p1: BinaryQubitPovm, p2: BinaryQubitPovm) -> Verdict:
    """General (possibly biased) pair criterion.

    Compatible iff
      (1 - F1^2 - F2^2)(1 - b1^2/F1^2 - b2^2/F2^2) <= (a1.a2 - b1 b2)^2
    with F_k the half-sum of the two effect determinant radii, cached on
    each POVM (BinaryQubitPovm.half_trace_radius). F_k vanishes only for a
    projective measurement, where compatibility degenerates to commutation
    (parallel Bloch vectors); that branch is handled explicitly.

    The margin is ill-conditioned next to extremal POVMs, |b| + |a| close
    to 1: there an effect's smaller eigenvalue, and so the square root
    inside F_k, vanishes, and rounding in the Bloch vector is amplified. A
    common rotation, which only re-rounds the vectors, moved the margin of a
    pair by 5.5e-14 there; kept 1 % inside the bound it moves by less than
    1e-13.
    """
    x1, y1, z1 = p1.components
    x2, y2, z2 = p2.components
    b1, b2 = p1.bias, p2.bias
    F1, F2 = p1.half_trace_radius, p2.half_trace_radius
    if F1 * F2 < 1e-12:
        # at least one projective measurement: compatible iff commuting
        cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        return _verdict(-math.sqrt(cx * cx + cy * cy + cz * cz), IFF, "pair-general")
    lhs = (1.0 - F1 * F1 - F2 * F2) * (
        1.0 - (b1 * b1) / (F1 * F1) - (b2 * b2) / (F2 * F2)
    )
    rhs = (x1 * x2 + y1 * y2 + z1 * z2 - b1 * b2) ** 2
    return _verdict(rhs - lhs, IFF, "pair-general")


# ---------------------------------------------------------------------------
# Fermat-Torricelli point


class FtConvergenceError(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(f"geometric-median iteration did not converge (residual {residual:.3e})")
        self.residual = residual


def _solve_sym3(a, b, c, d, e, f, rx, ry, rz) -> tuple:
    """Solution of [[a, b, c], [b, d, e], [c, e, f]] x = r by the adjugate."""
    A00, A01, A02 = d * f - e * e, c * e - b * f, b * e - c * d
    A11, A12, A22 = a * f - c * c, b * c - a * e, a * d - b * b
    det = a * A00 + b * A01 + c * A02
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return (
        (A00 * rx + A01 * ry + A02 * rz) / det,
        (A01 * rx + A11 * ry + A12 * rz) / det,
        (A02 * rx + A12 * ry + A22 * rz) / det,
    )


def _total_distance(P: list, y) -> float:
    """sum_i |y - p_i| for lists of Python floats, summed in point order:
    the same bits as numpy's row norms and sum."""
    yx, yy, yz = y
    total = 0.0
    for px, py, pz in P:
        dx, dy, dz = yx - px, yy - py, yz - pz
        total += math.sqrt(dx * dx + dy * dy + dz * dz)
    return total


def _float_rows(rows):
    """rows, a list or array of shape (m, 3), as m lists [x, y, z] of Python
    floats; None for any other shape. A list is read without an array round
    trip."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    try:
        return [[float(x), float(y), float(z)] for x, y, z in rows]
    except (TypeError, ValueError):
        return None


def _resultant(P: list, q) -> tuple:
    """(|R|, R, w) at q: R the sum of the unit vectors from q toward the
    points more than 1e-14 away, w the number of points within 1e-14 of q,
    q itself among them when it is a point."""
    qx, qy, qz = q
    rx = ry = rz = 0.0
    w = 0
    for px, py, pz in P:
        dx, dy, dz = px - qx, py - qy, pz - qz
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d < 1e-14:
            w += 1
            continue
        rx += dx / d
        ry += dy / d
        rz += dz / d
    return math.sqrt(rx * rx + ry * ry + rz * rz), (rx, ry, rz), w


def _line_step(P: list, q, norm: float, R, w: int):
    """The step t u off the point q along u = R/|R|, the steepest descent
    from q, to the minimizer of f's quadratic model (w - |R|) t + t^2 u.H u/2
    along u, with u.H u = sum_i (1 - (u.e_i)^2)/d_i over the unit vectors e_i
    toward the other points; None when they all lie on the line (u.H u = 0,
    or below it by rounding)."""
    qx, qy, qz = q
    ux, uy, uz = R[0] / norm, R[1] / norm, R[2] / norm
    curv = 0.0
    for px, py, pz in P:
        dx, dy, dz = px - qx, py - qy, pz - qz
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d >= 1e-14:
            c = (ux * dx + uy * dy + uz * dz) / d
            curv += (1.0 - c * c) / d
    if not curv > 0.0:
        return None
    t = (norm - w) / curv
    return t * ux, t * uy, t * uz


def _line_descent(P: list, q, f: float, scale: float):
    """(y, f(y)) for y = q + s, s q's line step halved toward q until f(y)
    is below f; None when q has no line step or it falls below the
    resolution of q first."""
    step = _line_step(P, q, *_resultant(P, q))
    if step is None:
        return None
    (qx, qy, qz), (sx, sy, sz) = q, step
    while math.sqrt(sx * sx + sy * sy + sz * sz) > 1e-15 * scale:
        y = [qx + sx, qy + sy, qz + sz]
        f_y = _total_distance(P, y)
        if f_y < f:
            return y, f_y
        sx, sy, sz = 0.5 * sx, 0.5 * sy, 0.5 * sz
    return None


def fermat_torricelli(points, max_iter: int = 10000) -> np.ndarray:
    """Minimizer of the total Euclidean distance f(y) = sum |y - p_i|.

    Runs on Python floats throughout: the points are few, and numpy's
    per-call dispatch would cost more than the arithmetic.

    A point p_j is returned when it passes the subgradient test
    |R_j| <= w_j + 1e-12, with R_j the sum of unit vectors from p_j toward
    the other points and w_j the number of points within 1e-14 of it, itself
    included; the first passing point wins. Otherwise the minimizer is not a
    data point, f is smooth there, and a damped Newton iteration runs on the
    closed-form Hessian sum_i (I - u_i u_i^T)/d_i. Each step is capped at
    half the distance to the nearest point and halved until f decreases; one
    pass over the points per iteration gives the distances, the gradient and
    the six Hessian entries. It starts from the centroid or, if f is lower
    there, from the line step off the anchor p_j with the smallest |R_j|:
    along u = R_j/|R_j|, the steepest descent from p_j, to the minimizer of
    f's quadratic model along that line (_line_step). When |R_j| is barely
    above w_j the minimizer sits close to p_j, in the direction u, and the
    step lands next to it; the model needs no solve.

    f can decrease toward a data point that failed the test, and the capped
    steps then halve the distance to it without end. So when the iterate
    comes within 1e-9 * max|p| of a point, the iteration restarts from that
    point's line step, halved toward it until f is below the iterate's
    (_line_descent); at most one restart per point.

    Returns once |grad f| <= 1e-9, or when no step decreases f any more. After
    max_iter steps a point with |grad f| <= 1e-6 is still accepted; otherwise
    FtConvergenceError is raised.
    """
    P = _float_rows(points)
    if not P:
        raise ValueError("points must be a non-empty (m,3) array")

    # the anchor test, and the anchor with the smallest |R_j|
    best = math.inf
    for q in P:
        norm, R, w = _resultant(P, q)
        if norm <= w + 1e-12:
            return np.array(q)
        if norm < best:
            best, anchor = norm, (q, norm, R, w)

    # the centroid, and scale = max|p| > 0 (all-equal points are an anchor)
    cx = cy = cz = scale = 0.0
    for px, py, pz in P:
        cx, cy, cz = cx + px, cy + py, cz + pz
        scale = max(scale, abs(px), abs(py), abs(pz))
    m = len(P)
    y = [cx / m, cy / m, cz / m]
    f = _total_distance(P, y)
    step = _line_step(P, *anchor)  # None when the points are collinear: the centroid stays
    if step is not None:
        (qx, qy, qz), (sx, sy, sz) = anchor[0], step
        y_line = [qx + sx, qy + sy, qz + sz]
        f_line = _total_distance(P, y_line)
        if f_line < f:
            y, f = y_line, f_line

    restarts = m
    for _ in range(max_iter):
        yx, yy, yz = y
        # one pass: distances, gradient sum_i u_i and the Hessian
        # s I - sum_i u_i u_i^T / d_i, s = sum_i 1/d_i
        gx = gy = gz = s = hxx = hxy = hxz = hyy = hyz = hzz = 0.0
        dmin = math.inf
        for px, py, pz in P:
            dx, dy, dz = yx - px, yy - py, yz - pz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            inv = 1.0 / d
            ux, uy, uz = dx * inv, dy * inv, dz * inv
            gx += ux
            gy += uy
            gz += uz
            s += inv
            wx, wy, wz = ux * inv, uy * inv, uz * inv
            hxx += wx * ux
            hxy += wx * uy
            hxz += wx * uz
            hyy += wy * uy
            hyz += wy * uz
            hzz += wz * uz
            if d < dmin:
                dmin = d
        if math.sqrt(gx * gx + gy * gy + gz * gz) <= 1e-9:
            return np.array(y)
        if dmin <= 1e-9 * scale and restarts:  # drawn to a point that failed the anchor test
            restarts -= 1
            near = min(P, key=lambda p: math.dist(p, y))
            restart = _line_descent(P, near, f, scale)
            if restart is not None:
                y, f = restart
                continue
        sx, sy, sz = _solve_sym3(
            s - hxx, -hxy, -hxz, s - hyy, -hyz, s - hzz, -gx, -gy, -gz
        )
        length = math.sqrt(sx * sx + sy * sy + sz * sz)
        if length <= 1e-15 * scale:
            return np.array(y)  # the step is below the resolution of y
        cap = 0.5 * dmin
        if length > cap:
            shrink = cap / length
            sx, sy, sz = sx * shrink, sy * shrink, sz * shrink
            length = cap
        elif -(gx * sx + gy * sy + gz * sz) <= 2e-15 * f:
            # the predicted decrease is below the rounding of f, so comparing
            # values of f cannot judge the step; Newton is in its quadratic
            # region and takes it whole
            y = [yx + sx, yy + sy, yz + sz]
            f = _total_distance(P, y)
            continue
        while True:
            y_new = [yx + sx, yy + sy, yz + sz]
            f_new = _total_distance(P, y_new)
            if f_new < f:
                break
            sx, sy, sz = 0.5 * sx, 0.5 * sy, 0.5 * sz
            length *= 0.5
            if length <= 1e-15 * scale:
                return np.array(y)  # f no longer decreases in floating point
        y, f = y_new, f_new
    yx, yy, yz = y
    gx = gy = gz = 0.0
    for px, py, pz in P:
        dx, dy, dz = yx - px, yy - py, yz - pz
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        gx, gy, gz = gx + dx / d, gy + dy / d, gz + dz / d
    residual = math.sqrt(gx * gx + gy * gy + gz * gz)
    if residual <= 1e-6:
        return np.array(y)
    raise FtConvergenceError(residual)


# ---------------------------------------------------------------------------
# triples


def triple_unbiased(etas, ns) -> Verdict:
    """Three unbiased POVMs: compatible iff the FT objective of the four
    derived points v0 = -sum(eta_i n_i), v_j = -2 eta_j n_j - v0 is <= 4.
    etas and ns may be lists of numbers or arrays, of shapes (3,) and (3, 3);
    each number is converted to a float once, and the points are built from
    them in one pass."""
    if isinstance(etas, np.ndarray):
        etas = etas.tolist()
    if isinstance(ns, np.ndarray):
        ns = ns.tolist()
    try:
        (e1, e2, e3), ((x1, y1, z1), (x2, y2, z2), (x3, y3, z3)) = etas, ns
        e1, e2, e3 = float(e1), float(e2), float(e3)
        # a_j = eta_j n_j, v0 = -(a_1 + a_2 + a_3) and v_j = -2 a_j - v0
        x1, y1, z1 = e1 * float(x1), e1 * float(y1), e1 * float(z1)
        x2, y2, z2 = e2 * float(x2), e2 * float(y2), e2 * float(z2)
        x3, y3, z3 = e3 * float(x3), e3 * float(y3), e3 * float(z3)
    except (TypeError, ValueError):
        raise ValueError("need 3 purities and 3 unit vectors") from None
    vx, vy, vz = -(x1 + x2 + x3), -(y1 + y2 + y3), -(z1 + z2 + z3)
    pts = [[vx, vy, vz], [-2.0 * x1 - vx, -2.0 * y1 - vy, -2.0 * z1 - vz],
           [-2.0 * x2 - vx, -2.0 * y2 - vy, -2.0 * z2 - vz], [-2.0 * x3 - vx, -2.0 * y3 - vy, -2.0 * z3 - vz]]
    try:
        y = fermat_torricelli(pts)
    except FtConvergenceError as exc:
        # imported here, on this rare path: importing logging at start-up
        # raises every process's peak RSS by about 0.8 MB
        import logging

        logging.getLogger(__name__).debug(
            "triple-ft: Fermat-Torricelli did not converge, residual %.3e", exc.residual
        )
        return Verdict(UNKNOWN, IFF, float("nan"), "triple-ft")
    return _verdict(4.0 - _total_distance(pts, y.tolist()), IFF, "triple-ft")


def triple_anchor_values(a1, a2, a3) -> tuple:
    """f(v0), f(v1), f(v2), f(v3): the FT objective of triple_unbiased's four
    points at those points, from the Bloch vectors a_j = eta_j n_j as three
    floats each. v_i - v_j = 2(a_j - a_i) and v0 - v_i = -2(a_j + a_k), so
    f(v0) = 2(|a1+a2| + |a1+a3| + |a2+a3|) and
    f(v_i) = 2(|a_j+a_k| + |a_i-a_j| + |a_i-a_k|): six pair norms."""
    x2, y2, z2 = a2
    x3, y3, z3 = a3
    minus2, minus3 = (-x2, -y2, -z2), (-x3, -y3, -z3)
    s12, s13, s23 = math.dist(a1, minus2), math.dist(a1, minus3), math.dist(a2, minus3)
    d12, d13, d23 = math.dist(a1, a2), math.dist(a1, a3), math.dist(a2, a3)
    return (
        2.0 * (s12 + s13 + s23),
        2.0 * (s23 + d12 + d13),
        2.0 * (s13 + d12 + d23),
        2.0 * (s12 + d13 + d23),
    )


def triple_anchor(a1, a2, a3) -> Verdict:
    """Sufficient condition for three unbiased POVMs with Bloch vectors a_j:
    the FT objective at one of triple_unbiased's data points is <= 4. Any
    value of the objective bounds its minimum from above, so this margin is
    at most that of the minimum; it never proves incompatibility. Each f(v_i) is the
    chain inequality on one ordering of the triple, f(v0) the same with one
    outcome flipped."""
    return triple_anchor_from_values(triple_anchor_values(a1, a2, a3))


def triple_anchor_from_values(values) -> Verdict:
    """triple_anchor's verdict from the four values of triple_anchor_values."""
    return _verdict(4.0 - min(values), SUFFICIENT_ONLY, "triple-anchor")


# ---------------------------------------------------------------------------
# N-POVM bounds, common purity


def n_necessary_sufficient(eta: float, ns) -> tuple:
    """Necessary and sufficient purity bounds for N unbiased same-purity POVMs.

    necessary: eta <= max_x |sum_k x_k n_k| / N over all sign strings x;
    sufficient: eta <= 2^N / sum_x |sum_k x_k n_k|.

    x and -x give the same norm, so only the 2^(N-1) strings with x_1 = +1
    are scored, on Python floats. Their sums are built by doubling: the list
    for n_1..n_k gives the one for n_1..n_(k+1) as v + n_(k+1) and
    v - n_(k+1), so each sum is added in k order. The norms' maximum is
    exact and their sum correctly rounded (math.fsum). N = 6 scores 32
    strings in about 30 us, N = 7 and 8 score 64 and 128 in about 50 us;
    N is capped at 20.
    """
    rows = _float_rows(ns)
    if rows is None:
        raise ValueError("need an (N, 3) array of directions")
    N = len(rows)
    if N > 20:
        raise ValueError("N exceeds the 2^N enumeration cap of 20")
    if not N:
        raise ValueError("need at least one direction")
    sums = [rows[0]]
    for x, y, z in rows[1:]:
        sums = [[u + x, v + y, w + z] for u, v, w in sums] + [[u - x, v - y, w - z] for u, v, w in sums]
    norms = [math.sqrt(u * u + v * v + w * w) for u, v, w in sums]
    nec_bound = max(norms) / N
    suf_bound = (2.0 ** (N - 1)) / math.fsum(norms)
    nec = _verdict(nec_bound - eta, NECESSARY_ONLY, "n-wise-necessary")
    suf = _verdict(suf_bound - eta, SUFFICIENT_ONLY, "n-wise-sufficient")
    return nec, suf


def planar_nwise_bound(N: int) -> float:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return 1.0 / (N * math.sin(math.pi / (2 * N)))


def planar_symmetric_nwise(N: int, eta: float) -> Verdict:
    """Full planar symmetric family: compatible iff eta <= 1/(N sin pi/2N)."""
    return _verdict(planar_nwise_bound(N) - eta, IFF, "planar-symmetric-nwise")


def planar_pair_bound(N: int, gap: int) -> float:
    x = gap * math.pi / (2 * N)
    return 1.0 / (math.sin(x) + math.cos(x))


def planar_subset_bound(N: int, subset) -> float:
    ks = list(subset)
    gaps = [ks[p + 1] - ks[p] for p in range(len(ks) - 1)]
    span = ks[-1] - ks[0]
    return 1.0 / (
        sum(math.sin(g * math.pi / (2 * N)) for g in gaps)
        + math.cos(span * math.pi / (2 * N))
    )


def coplanar_chain_bound(angles) -> float:
    """1/(sum sin(gap/2) + cos(last/2)) for line angles 0 < a_1 < ... < pi."""
    alphas = [0.0] + [float(a) for a in angles]
    sins = sum(
        math.sin((alphas[k + 1] - alphas[k]) / 2.0) for k in range(len(alphas) - 1)
    )
    return 1.0 / (sins + math.cos(alphas[-1] / 2.0))


def pair_same_purity_bound(phi: float) -> float:
    return 1.0 / (abs(math.sin(phi / 2.0)) + abs(math.cos(phi / 2.0)))


# ---------------------------------------------------------------------------
# general biased chain


def _chain_form(povms) -> tuple:
    """The chain's normal form, on Python floats: every POVM with a negative
    bias has its outcomes flipped, so all biases are >= 0. Returns (b, a,
    order): b[i] = |bias_i|, a[i] the Bloch components of POVM i after the
    flip, and order the stable sort of the indices by b."""
    b, a = [], []
    for p in povms:
        x, y, z = p.components
        b.append(abs(p.bias))
        a.append((-x, -y, -z) if p.bias < 0 else (x, y, z))
    return b, a, sorted(range(len(b)), key=b.__getitem__)


def _path_margin(b: list, a: list, seq) -> float:
    """Chain slack 2(1 - max b) - |a_s1 + a_sN| - sum_p |a_sp - a_s(p+1)| of
    the path seq through the normal form (b, a), summed in path order."""
    px, py, pz = a[seq[0]]
    qx, qy, qz = a[seq[-1]]
    dx, dy, dz = px + qx, py + qy, pz + qz
    ends = math.sqrt(dx * dx + dy * dy + dz * dz)
    steps = 0.0
    for i in seq[1:]:
        qx, qy, qz = a[i]
        dx, dy, dz = qx - px, qy - py, qz - pz
        steps += math.sqrt(dx * dx + dy * dy + dz * dz)
        px, py, pz = qx, qy, qz
    return 2.0 * (1.0 - max(b)) - (ends + steps)


def chain_margin(povms) -> float:
    """Slack of |a_1+a_N| + sum |a_p - a_{p+1}| <= 2(1 - max bias), taken in
    the normal form: outcomes flipped so every bias is >= 0, then the POVMs
    stable-sorted by bias, ties keeping the caller's order. Scored as one
    loop over Python floats."""
    b, a, order = _chain_form(povms)
    return _path_margin(b, a, order)


def general_binary_sufficient(povms) -> Verdict:
    """Sufficient chain condition for arbitrary binary qubit POVMs.

    Outcomes are flipped so all biases are non-negative and the POVMs are
    stable-sorted by bias (ties keep the caller's order), then the chain
    inequality is evaluated. Iff for N <= 2 unbiased; sufficient-only beyond.
    """
    if not povms:
        raise ValueError("need at least one POVM")
    iff = len(povms) <= 2 and all(p.is_unbiased for p in povms)
    strength = IFF if iff else SUFFICIENT_ONLY
    return _verdict(chain_margin(povms), strength, "biased-chain")


@functools.lru_cache(maxsize=None)
def _all_tied_orders(N: int) -> tuple:
    """The permutations of range(N) with seq[0] < seq[-1], in itertools
    order; N is at most best_chain_ordering's cap."""
    return tuple(seq for seq in itertools.permutations(range(N)) if seq[0] < seq[-1])


def _tie_group_orders(b: list, order: list):
    """The candidate orders, as tuples of indices: the stable sort order
    with every group of tied b permuted independently, the first group
    varying slowest and each group's permutations in itertools order. When
    all b tie, the stable sort order is range(N), a path's reversal is
    again a candidate with the same margin, and only the one with
    seq[0] < seq[-1] is kept."""
    groups = [tuple(run) for _, run in itertools.groupby(order, key=b.__getitem__)]
    if len(groups) == 1:
        return _all_tied_orders(len(order))
    return (sum(parts, ()) for parts in itertools.product(*map(itertools.permutations, groups)))


def _best_tie_group_order(b: list, a: list, order: list) -> tuple:
    """The first candidate of _tie_group_orders with the largest chain
    margin. One table of |a_i - a_j| and |a_i + a_j| serves every
    candidate, whose margin 2(1 - max b) - (ends + steps) is summed as
    _path_margin sums it; a strict > keeps the first maximum."""
    N = len(a)
    minus = [[0.0] * N for _ in range(N)]
    plus = [[0.0] * N for _ in range(N)]
    for i, (x, y, z) in enumerate(a):
        for j in range(i + 1, N):
            u, v, w = a[j]
            dx, dy, dz = u - x, v - y, w - z
            minus[i][j] = minus[j][i] = math.sqrt(dx * dx + dy * dy + dz * dz)
            dx, dy, dz = u + x, v + y, w + z
            plus[i][j] = plus[j][i] = math.sqrt(dx * dx + dy * dy + dz * dz)
    top = 2.0 * (1.0 - max(b))
    best, best_seq = -math.inf, None
    for seq in _tie_group_orders(b, order):
        p = seq[0]
        steps = 0.0
        for q in seq[1:]:
            steps += minus[p][q]
            p = q
        margin = top - (plus[seq[0]][p] + steps)
        if margin > best:
            best, best_seq = margin, seq
    return best_seq


def best_chain_ordering(povms) -> tuple:
    """Best chain margin over every ordering of the POVMs. N <= 8.

    The normal form sorts by |bias|, so orderings differ only inside groups
    of exactly tied |bias|. With all |bias| distinct the sorted sequence is
    the only candidate, scored as chain_margin scores it. Otherwise every
    candidate of _tie_group_orders is scored on Python floats from one
    table of pair distances, and the first best wins. All |bias| tied is
    the worst case, N!/2 candidates, whose list is built once per N: about
    13 us at N = 4, 0.12-0.16 ms at N = 6, 0.8-0.9 ms at N = 7 (2,520
    candidates) and 7-8 ms at N = 8 (20,160), by timeit on one core of an
    Intel Xeon.

    Returns (perm, verdict): chain_margin([povms[i] for i in perm]) is the
    verdict's margin, bit for bit.
    """
    N = len(povms)
    if N > 8:
        raise ValueError("ordering search capped at N = 8")
    if not N:
        raise ValueError("need at least one POVM")
    b, a, order = _chain_form(povms)
    if len(set(b)) < N:
        order = _best_tie_group_order(b, a, order)
    strength = IFF if N <= 2 and all(p.is_unbiased for p in povms) else SUFFICIENT_ONLY
    return tuple(order), _verdict(_path_margin(b, a, order), strength, "biased-chain")
