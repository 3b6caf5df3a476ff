"""Bloch-parametrized binary qubit POVMs and joint POVMs.

A binary qubit POVM is stored as a bias b and a Bloch vector a, meaning
effects E(+1) = (1/2)((1+b)I + a.sigma) and E(-1) = (1/2)((1-b)I - a.sigma).
Effects are kept in (alpha, bloch) coordinates, never as complex matrices;
a 2x2 Hermitian reconstruction helper exists only for eigenvalue tests.
"""

from __future__ import annotations

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
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if not np.all(np.isfinite(a)):
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


def add_effects(a: Effect, b: Effect) -> Effect:
    return Effect(a.alpha + b.alpha, a.bloch + b.bloch)


@dataclass(frozen=True)
class BinaryQubitPovm:
    """Binary qubit POVM with effects (1/2)((1 +- b)I +- a.sigma)."""

    bias: float
    bloch: BlochVector

    def __post_init__(self):
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "bloch", _as_bloch(self.bloch))
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")

    @property
    def eta(self) -> float:
        """Purity (Bloch norm); the usual sharpness parameter when bias = 0."""
        return float(np.linalg.norm(self.bloch))

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


class JointPovm:
    """Joint POVM over N binary measurements; sparse map mask -> Effect.

    Absent outcome keys mean the zero effect.
    """

    def __init__(self, n: int, effects: dict, tol: float = EPS_MARG, validate: bool = True):
        if n < 1 or n > N_CAP:
            raise ValueError(f"n must be in 1..{N_CAP}")
        self.n = int(n)
        self.effects = {}
        for key, eff in effects.items():
            mask = key.mask if isinstance(key, OutcomeString) else int(key)
            if mask < 0 or mask >> n:
                raise ValueError("outcome mask out of range")
            if not isinstance(eff, Effect):
                raise TypeError("effects must map to Effect")
            self.effects[mask] = eff
        if validate:
            rep = self.validate(tol)
            if not rep.ok:
                raise ValueError(f"invalid joint POVM: {rep.violations}")

    def _columns(self) -> tuple:
        """The effects' alphas, shape (k,), and Bloch vectors, shape (k, 3),
        in insertion order."""
        effects = self.effects.values()
        return np.array([e.alpha for e in effects]), np.array([e.bloch for e in effects]).reshape(-1, 3)

    def validate(self, tol: float = EPS_MARG) -> ValidationReport:
        alpha, bloch = self._columns()
        # every effect's smaller eigenvalue (alpha - |bloch|)/2 in one pass
        min_eig = 0.5 * (alpha - np.sqrt((bloch * bloch).sum(axis=1)))
        bad = np.flatnonzero(min_eig < -tol)
        masks = list(self.effects)
        violations = [(f"effect[{masks[i]}] PSD", -float(min_eig[i])) for i in bad]
        comp = max(abs(float(alpha.sum()) - 2.0), float(np.abs(bloch.sum(axis=0)).max()))
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
        # all N marginal +1 effects in one pass: plus[k] sums the (alpha,
        # bloch) rows whose mask has bit k set
        masks = np.fromiter(self.effects, dtype=np.int64, count=len(self.effects))
        rows = np.column_stack(self._columns())
        bits = (masks[:, None] >> np.arange(self.n)) & 1
        plus = bits.T.astype(float) @ rows
        target = np.array([(1.0 + p.bias, *p.bloch) for p in povms])
        return float(np.max(np.abs(plus - target)))

    def marginalize(self, keep: Iterable[int]) -> "JointPovm":
        """Sum effects over the dropped measurements (keep is 1-based, increasing)."""
        keep = list(keep)
        if not keep:
            raise ValueError("keep must be nonempty")
        if keep != sorted(set(keep)):
            raise ValueError("keep must be strictly increasing")
        if keep[0] < 1 or keep[-1] > self.n:
            raise IndexError("index out of range")
        bits = [k - 1 for k in keep]
        out: dict = {}
        for mask, eff in self.effects.items():
            sub = 0
            for j, b in enumerate(bits):
                if mask >> b & 1:
                    sub |= 1 << j
            if sub in out:
                out[sub] = add_effects(out[sub], eff)
            else:
                out[sub] = eff
        return JointPovm(len(bits), out, validate=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "effects": {
                str(mask): {"alpha": eff.alpha, "bloch": list(map(float, eff.bloch))}
                for mask, eff in sorted(self.effects.items())
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict, tol: float = EPS_MARG) -> "JointPovm":
        effects = {
            int(mask): Effect(entry["alpha"], entry["bloch"])
            for mask, entry in d["effects"].items()
        }
        return cls(int(d["n"]), effects, tol=tol)


def relabel_outcomes(p: BinaryQubitPovm, swap: bool) -> BinaryQubitPovm:
    """Swap the +1/-1 outcome labels (negates bias and Bloch vector)."""
    if not swap:
        return p
    return BinaryQubitPovm(-p.bias, -p.bloch)


def relabel_joint(j: JointPovm, swaps: Sequence[bool]) -> JointPovm:
    """Per-measurement outcome swaps; outcome keys permute accordingly."""
    if len(swaps) != j.n:
        raise ValueError("one swap flag per measurement")
    flip_mask = 0
    for k, s in enumerate(swaps):
        if s:
            flip_mask |= 1 << k
    if flip_mask == 0:
        return j
    return JointPovm(
        j.n, {mask ^ flip_mask: eff for mask, eff in j.effects.items()}, validate=False
    )


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
        return JointPovm(
            obj.n,
            {m: Effect(e.alpha, O @ e.bloch) for m, e in obj.effects.items()},
            validate=False,
        )
    raise TypeError("unsupported type for apply_orthogonal")


def povms_to_json_dict(povms: Sequence[BinaryQubitPovm]) -> dict:
    return {
        "povms": [
            {"bias": p.bias, "bloch": list(map(float, p.bloch))} for p in povms
        ]
    }


def povms_from_json_dict(d: dict) -> list:
    return [BinaryQubitPovm(entry["bias"], entry["bloch"]) for entry in d["povms"]]
