"""Bloch-parametrized binary qubit POVMs and joint POVMs.

A binary qubit POVM is stored as a bias b and a Bloch vector a, meaning
effects E(+1) = (1/2)((1+b)I + a.sigma) and E(-1) = (1/2)((1-b)I - a.sigma).
Effects are kept in (alpha, bloch) coordinates, never as complex matrices;
a 2x2 Hermitian reconstruction helper exists only for eigenvalue tests.

A joint POVM is two read-only arrays, its distinct outcome masks and one
(alpha, bloch) row per mask; every operation on it is an array pass, and
`_marginal_system` lays out the constraints it shares with the oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

EPS_PSD = 1e-12
EPS_MARG = 1e-12
N_CAP = 20  # 2^20 outcome strings is the enumeration ceiling

BlochVector = np.ndarray  # shape (3,) float64


def bloch_vector(x: float, y: float = 0.0, z: float = 0.0) -> BlochVector:
    """Build a Bloch vector as a float64 array."""
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("Bloch vector components must be finite")
    return v


def _as_bloch(v) -> BlochVector:
    """v as a new float64 array of 3 finite components."""
    a = np.array(v, dtype=float)
    if a.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError("Bloch vector components must be finite")
    return a


@dataclass(frozen=True)
class Effect:
    """One POVM element, (1/2)(alpha*I + bloch.sigma)."""

    alpha: float
    bloch: BlochVector

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "bloch", _as_bloch(self.bloch))

    def min_eigenvalue(self) -> float:
        return 0.5 * (self.alpha - float(np.linalg.norm(self.bloch)))

    def max_eigenvalue(self) -> float:
        return 0.5 * (self.alpha + float(np.linalg.norm(self.bloch)))

    def is_valid(self, tol: float = EPS_PSD) -> bool:
        # PSD and bounded by identity: |bloch| <= alpha <= 2 - |bloch|
        return self.min_eigenvalue() >= -tol and self.max_eigenvalue() <= 1.0 + tol

    def to_matrix(self) -> np.ndarray:
        """2x2 Hermitian reconstruction; test/diagnostic use only."""
        ax, ay, az = self.bloch
        return 0.5 * np.array(
            [[self.alpha + az, ax - 1j * ay], [ax + 1j * ay, self.alpha - az]],
            dtype=complex,
        )


ZERO_EFFECT = Effect(0.0, np.zeros(3))


@dataclass(frozen=True)
class BinaryQubitPovm:
    """Binary qubit POVM with effects (1/2)((1 +- b)I +- a.sigma)."""

    bias: float
    bloch: BlochVector

    def __post_init__(self):
        object.__setattr__(self, "bias", float(self.bias))
        # a read-only copy: eta and components are computed once, so bloch
        # must never change
        bloch = _as_bloch(self.bloch)
        bloch.flags.writeable = False
        object.__setattr__(self, "bloch", bloch)
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")

    @functools.cached_property
    def eta(self) -> float:
        """Purity (Bloch norm); the usual sharpness parameter when bias = 0.
        Computed once per instance."""
        x, y, z = self.components
        if x * x + y * y + z * z > 1e300:  # float squares overflow quietly, numpy's warn
            return math.hypot(x, y, z)  # inf past the largest float
        return math.sqrt(self.bloch.dot(self.bloch))  # np.linalg.norm's 1-D formula

    @functools.cached_property
    def components(self) -> tuple:
        """The Bloch vector as a tuple of three Python floats, for the
        closed-form criteria's scalar loops. Computed once per instance."""
        return tuple(self.bloch.tolist())

    @property
    def is_unbiased(self) -> bool:
        return abs(self.bias) <= EPS_PSD

    def effect(self, outcome: int) -> Effect:
        if outcome == 1:
            return Effect(1.0 + self.bias, self.bloch)
        if outcome == -1:
            return Effect(1.0 - self.bias, -self.bloch)
        raise ValueError("outcome must be +1 or -1")


def unbiased_povm(eta: float, direction) -> BinaryQubitPovm:
    """Unbiased POVM with purity eta along a unit direction."""
    n = _as_bloch(direction)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    return BinaryQubitPovm(0.0, (eta / norm) * n)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_povm(p: BinaryQubitPovm, tol: float = EPS_PSD) -> ValidationReport:
    """Report-style check of the POVM constraints |b| <= 1 - |a| etc., from
    the effects' eigenvalues (1 +- b +- |a|)/2."""
    violations = []
    b, a = p.bias, p.eta
    if abs(b) - (1.0 - a) > tol:
        violations.append(("bias-bound |b| <= 1-|a|", abs(b) - (1.0 - a)))
    for out in (1, -1):
        alpha = 1.0 + out * b
        if 0.5 * (alpha - a) < -tol:
            violations.append((f"effect({out:+d}) PSD", -0.5 * (alpha - a)))
        if 0.5 * (alpha + a) > 1.0 + tol:
            violations.append((f"effect({out:+d}) <= I", 0.5 * (alpha + a) - 1.0))
    comp = abs((1.0 + b) + (1.0 - b) - 2.0)  # the Bloch parts a - a cancel exactly
    if comp > tol:
        violations.append(("completeness", comp))
    return ValidationReport(not violations, tuple(violations))


def require_valid_povms(povms) -> None:
    """ValueError naming the first POVM that fails validate_povm."""
    for k, p in enumerate(povms, 1):
        report = validate_povm(p)
        if not report:
            raise ValueError(f"POVM {k} is not a valid POVM: {report.violations}")


class OutcomeString:
    """Length-N string over {+1,-1}, encoded as a bitmask.

    Bit k-1 is set iff x_k = +1 (measurements counted from position 1).
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if n < 1:
            raise ValueError("length must be >= 1")
        if mask < 0 or mask >> n:
            raise ValueError("mask out of range for length")
        self.n = n
        self.mask = mask

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "OutcomeString":
        mask = 0
        for k, s in enumerate(signs):
            if s == 1:
                mask |= 1 << k
            elif s != -1:
                raise ValueError("signs must be +1 or -1")
        return cls(len(signs), mask)

    def signs(self) -> tuple:
        return tuple(1 if self.mask >> k & 1 else -1 for k in range(self.n))

    def negate(self) -> "OutcomeString":
        return OutcomeString(self.n, self.mask ^ ((1 << self.n) - 1))

    def __eq__(self, other):
        return (
            isinstance(other, OutcomeString)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"OutcomeString({self.n}, 0b{self.mask:0{self.n}b})"


def _read_only(a, dtype) -> np.ndarray:
    """a as a read-only array of dtype: shared if it already is one, else a copy."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _marginal_system(n: int, masks: np.ndarray, povms=()) -> tuple:
    """(M, T) of the constraints M V = T on effect rows V at these outcome
    masks, one column of M per mask: row 0 of M is completeness (all ones,
    T row 0 = 2 I), row k the x_k = +1 indicator (T row k = E_k(+1) of
    povms[k-1]; zero past the given POVMs)."""
    M = np.ones((n + 1, len(masks)))
    M[1:] = (masks >> np.arange(n)[:, None]) & 1
    return M, _marginal_targets(n, povms)


def _marginal_targets(n: int, povms) -> np.ndarray:
    """T of _marginal_system alone."""
    T = np.zeros((n + 1, 4))
    T[0, 0] = 2.0
    for k, p in enumerate(povms, 1):
        T[k] = (1.0 + p.bias, *p.components)
    return T


class JointPovm:
    """Joint POVM over N binary measurements, stored sparse: distinct outcome
    masks, shape (k,), and their (alpha, bloch) effect rows, shape (k, 4),
    both read-only so that derived joints share them. Absent masks mean the
    zero effect. The constructor checks structure only; `validate` checks
    that the effects form a POVM.
    """

    def __init__(self, n: int, masks, rows):
        if not 1 <= n <= N_CAP:
            raise ValueError(f"n must be in 1..{N_CAP}")
        try:
            masks = _read_only(masks, np.int64)
        except OverflowError:
            raise ValueError("outcome mask out of range") from None
        rows = _read_only(rows, float)
        if masks.ndim != 1 or rows.shape != (len(masks), 4):
            raise ValueError(f"need (k,) masks and (k, 4) rows, got {masks.shape} and {rows.shape}")
        if np.any((masks < 0) | (masks >> n != 0)):
            raise ValueError("outcome mask out of range")
        if len(set(masks.tolist())) != len(masks):
            raise ValueError("outcome masks must be distinct")
        if not np.all(np.isfinite(rows)):
            raise ValueError("effect entries must be finite")
        self.n, self.masks, self.rows = int(n), masks, rows

    @property
    def effects(self) -> dict:
        """{mask: Effect} in storage order, built on each access."""
        return {m: Effect(r[0], r[1:]) for m, r in zip(self.masks.tolist(), self.rows)}

    @functools.cached_property
    def _spectrum(self) -> tuple:
        """(every effect's smaller eigenvalue (alpha - |bloch|)/2, the
        completeness error), one array pass per joint: rows is read-only.
        Entries past about 1e154 overflow to an infinite eigenvalue or error,
        which validate rejects, as it should: a valid effect has entries in
        [-2, 2]."""
        alpha, bloch = self.rows[:, 0], self.rows[:, 1:]
        with np.errstate(over="ignore"):
            min_eig = 0.5 * (alpha - np.sqrt((bloch * bloch).sum(axis=1)))
            comp = float(np.max(np.abs(self.rows.sum(axis=0) - (2.0, 0.0, 0.0, 0.0))))
        return min_eig, comp

    def validate(self, tol: float = EPS_MARG) -> ValidationReport:
        min_eig, comp = self._spectrum
        bad = np.flatnonzero(min_eig < -tol)
        violations = [(f"effect[{self.masks[i]}] PSD", -float(min_eig[i])) for i in bad]
        if comp > tol:
            violations.append(("completeness", comp))
        return ValidationReport(not violations, tuple(violations))

    def effect(self, key) -> Effect:
        mask = key.mask if isinstance(key, OutcomeString) else int(key)
        return self.effects.get(mask, ZERO_EFFECT)

    def marginal_povm(self, k: int) -> BinaryQubitPovm:
        """Single-measurement marginal as a BinaryQubitPovm (k is 1-based)."""
        plus = self.marginalize([k]).effect(1)
        return BinaryQubitPovm(plus.alpha - 1.0, plus.bloch)

    def marginal_error(self, povms: Sequence[BinaryQubitPovm]) -> float:
        """Largest deviation of a marginal's bias or Bloch component from its
        target, marginal k against povms[k-1]."""
        if len(povms) != self.n:
            raise ValueError("one target POVM per measurement")
        M, T = _marginal_system(self.n, self.masks, povms)
        return float(np.max(np.abs(M[1:] @ self.rows - T[1:])))

    def marginalize(self, keep: Iterable[int]) -> "JointPovm":
        """Sum effects over the dropped measurements (keep is 1-based, increasing)."""
        keep = list(keep)
        if not keep:
            raise ValueError("keep must be nonempty")
        if keep != sorted(set(keep)):
            raise ValueError("keep must be strictly increasing")
        if keep[0] < 1 or keep[-1] > self.n:
            raise IndexError("index out of range")
        M, _ = _marginal_system(self.n, self.masks)
        sub = (np.exp2(np.arange(len(keep))) @ M[keep]).astype(np.int64)
        masks = np.array(sorted(set(sub.tolist())), dtype=np.int64)
        # each kept outcome's rows, added in storage order
        rows = np.zeros((len(masks), 4))
        np.add.at(rows, np.searchsorted(masks, sub), self.rows)
        return JointPovm(len(keep), masks, rows)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "effects": {
                str(mask): {"alpha": row[0], "bloch": row[1:]}
                for mask, row in sorted(zip(self.masks.tolist(), self.rows.tolist()))
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict, tol: float = EPS_MARG) -> "JointPovm":
        """ValueError on effects that are not an object, a malformed or
        duplicate outcome key, a non-finite entry, or effects that fail
        validate(tol)."""
        entries = d["effects"]
        if not isinstance(entries, dict):
            raise ValueError("joint effects must be a JSON object of outcome masks")
        rows = np.array([[e["alpha"], *e["bloch"]] for e in entries.values()], dtype=float)
        joint = cls(int(d["n"]), [int(mask) for mask in entries], rows)
        rep = joint.validate(tol)
        if not rep.ok:
            raise ValueError(f"invalid joint POVM: {rep.violations}")
        return joint


def relabel_outcomes(p: BinaryQubitPovm, swap: bool) -> BinaryQubitPovm:
    """Swap the +1/-1 outcome labels (negates bias and Bloch vector)."""
    if not swap:
        return p
    return BinaryQubitPovm(-p.bias, -p.bloch)


def relabel_joint(j: JointPovm, swaps: Sequence[bool]) -> JointPovm:
    """Per-measurement outcome swaps; outcome keys permute accordingly."""
    if len(swaps) != j.n:
        raise ValueError("one swap flag per measurement")
    flip_mask = sum(1 << k for k, s in enumerate(swaps) if s)
    if flip_mask == 0:
        return j
    return JointPovm(j.n, j.masks ^ flip_mask, j.rows)


def _check_orthogonal(O: np.ndarray) -> np.ndarray:
    O = np.asarray(O, dtype=float)
    if O.shape != (3, 3) or np.max(np.abs(O.T @ O - np.eye(3))) > 1e-10:
        raise ValueError("matrix is not orthogonal within 1e-10")
    return O


def apply_orthogonal(obj, O: np.ndarray):
    """Map every Bloch vector through an orthogonal O; alphas/biases unchanged."""
    O = _check_orthogonal(O)
    if isinstance(obj, BinaryQubitPovm):
        return BinaryQubitPovm(obj.bias, O @ obj.bloch)
    if isinstance(obj, Effect):
        return Effect(obj.alpha, O @ obj.bloch)
    if isinstance(obj, JointPovm):
        bloch = (O @ obj.rows[:, 1:, None])[:, :, 0]  # bit for bit O @ b per row
        return JointPovm(obj.n, obj.masks, np.column_stack((obj.rows[:, 0], bloch)))
    raise TypeError("unsupported type for apply_orthogonal")


def povms_to_json_dict(povms: Sequence[BinaryQubitPovm]) -> dict:
    return {
        "povms": [
            {"bias": p.bias, "bloch": list(map(float, p.bloch))} for p in povms
        ]
    }


def povms_from_json_dict(d: dict) -> list:
    return [BinaryQubitPovm(entry["bias"], entry["bloch"]) for entry in d["povms"]]
