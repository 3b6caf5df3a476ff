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
import itertools
import math
import struct
from typing import Iterable, NamedTuple, Sequence

import numpy as np

EPS_PSD = 1e-12
EPS_MARG = 1e-12
N_CAP = 20  # 2^20 outcome strings is the enumeration ceiling
_JSON_NUMBERS = frozenset((int, float))  # bool, a subclass of int, is not one

BlochVector = np.ndarray  # shape (3,) float64


def _bloch_floats(v) -> tuple:
    """v as three finite Python floats. A list, as JSON gives it, is
    converted item by item; anything else as numpy converts it to float64."""
    if type(v) is not list:
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError("Bloch vector must have 3 components")
        v = v.tolist()
    elif len(v) != 3:
        raise ValueError("Bloch vector must have 3 components")
    x, y, z = map(float, v)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("Bloch vector components must be finite")
    return x, y, z


_pack_bloch = struct.Struct("3d").pack  # three native doubles, float64's layout


class _ReadOnly:
    """Base of Effect and BinaryQubitPovm: the fields named in _fields are
    written once, into __dict__, by __init__ and read-only after; repr and
    == are a frozen dataclass's. Not a tuple, which numpy and the JSON
    writer would read as a sequence."""

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(map(vars(self).get, self._fields)) == tuple(map(vars(other).get, self._fields))

    __hash__ = None  # as a frozen dataclass's: the bloch array is unhashable


class Effect(_ReadOnly):
    """One POVM element, (1/2)(alpha*I + bloch.sigma)."""

    _fields = ("alpha", "bloch")

    def __init__(self, alpha: float, bloch: BlochVector):
        vars(self).update(alpha=float(alpha), bloch=np.array(_bloch_floats(bloch)))

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


class _computed_once:
    """functools.cached_property without its lock: the first access stores
    the value in the instance's __dict__, which later accesses read. Before
    Python 3.12, cached_property takes a lock on each first access, about 1
    us, and the closed-form decider reads four such values per POVM."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class BinaryQubitPovm(_ReadOnly):
    """Binary qubit POVM with effects (1/2)((1 +- b)I +- a.sigma).

    `components`, the Bloch vector as a tuple of three Python floats for the
    closed-form criteria's scalar loops, is set at construction from the
    one conversion that also builds `bloch`."""

    _fields = ("bias", "bloch")

    def __init__(self, bias: float, bloch: BlochVector):
        bias = float(bias)
        components = _bloch_floats(bloch)
        if not math.isfinite(bias):
            raise ValueError("bias must be finite")
        # a read-only copy, over an immutable bytes buffer: the components
        # and eta are computed once, so bloch must never change
        vars(self).update(bias=bias, bloch=np.frombuffer(_pack_bloch(*components)), components=components)

    @_computed_once
    def eta(self) -> float:
        """Purity (Bloch norm); the usual sharpness parameter when bias = 0.
        Computed once per instance."""
        x, y, z = self.components
        # float squares overflow quietly, numpy's warn; below 1e308, a factor
        # 1.8 under the largest float, numpy's dot cannot overflow, and hypot
        # would round differently from np.linalg.norm
        if x * x + y * y + z * z > 1e308:
            return math.hypot(x, y, z)  # inf past the largest float
        return math.sqrt(self.bloch.dot(self.bloch))  # np.linalg.norm's 1-D formula

    @_computed_once
    def is_unbiased(self) -> bool:
        """|bias| <= EPS_PSD. Computed once per instance."""
        return abs(self.bias) <= EPS_PSD

    @_computed_once
    def direction(self) -> tuple:
        """The unit Bloch direction as three Python floats, (1, 0, 0) for a
        zero vector: the n of the unbiased criteria. Computed once per
        instance."""
        n = self.eta
        if n > 0:
            x, y, z = self.components
            return (x / n, y / n, z / n)
        return (1.0, 0.0, 0.0)

    @_computed_once
    def half_trace_radius(self) -> float:
        """F = (1/2)(sqrt(alpha^2 - a^2) + sqrt((2 - alpha)^2 - a^2)) with
        alpha = 1 + bias and a = eta, each square clipped at 0 for roundoff:
        the F_k of the pair-general criterion, half the sum of the two
        effects' determinant radii. Computed once per instance."""
        alpha, a = 1.0 + self.bias, self.eta
        t1 = max(alpha * alpha - a * a, 0.0)
        t2 = max((2.0 - alpha) * (2.0 - alpha) - a * a, 0.0)
        return 0.5 * (math.sqrt(t1) + math.sqrt(t2))

    def effect(self, outcome: int) -> Effect:
        if outcome == 1:
            return Effect(1.0 + self.bias, self.bloch)
        if outcome == -1:
            return Effect(1.0 - self.bias, -self.bloch)
        raise ValueError("outcome must be +1 or -1")


def unbiased_povm(eta: float, direction) -> BinaryQubitPovm:
    """Unbiased POVM with purity eta along a unit direction."""
    n = np.array(_bloch_floats(direction))
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    return BinaryQubitPovm(0.0, (eta / norm) * n)


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


class InvalidPovmError(ValueError):
    """A POVM read from JSON that fails validate_povm: a bad value, where
    the other ValueErrors of the loaders are schema faults."""


_VALID = ValidationReport(True)  # immutable, so one instance serves every valid POVM


def validate_povm(p: BinaryQubitPovm, tol: float = EPS_PSD) -> ValidationReport:
    """Report-style check of |b| <= 1 - |a|, the POVM constraint that binds:
    with effect eigenvalues (1 +- b +- |a|)/2, an effect not PSD or not <= I
    breaks it by over 2 tol, and (1 + b) + (1 - b) = 2 by construction."""
    excess = abs(p.bias) - (1.0 - p.eta)
    if excess > tol:
        return ValidationReport(False, (("bias-bound |b| <= 1-|a|", excess),))
    return _VALID


def _read_only(a, dtype) -> np.ndarray:
    """a as a read-only array of dtype: shared if it already is one, else a copy."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _mask_array(masks) -> np.ndarray:
    """masks as a read-only int64 array; ValueError past the int64 range."""
    try:
        return _read_only(masks, np.int64)
    except OverflowError:
        raise ValueError("outcome mask out of range") from None


def _check_arrays(masks: np.ndarray, rows: np.ndarray, ranks) -> None:
    """ValueError unless rows holds one (alpha, bloch) row of finite entries
    per mask and every mask is in range for its joint's n (ranks: one n per
    mask, or one for all)."""
    if masks.ndim != 1 or rows.shape != (len(masks), 4):
        raise ValueError(f"need (k,) masks and (k, 4) rows, got {masks.shape} and {rows.shape}")
    if np.any((masks < 0) | (masks >> ranks != 0)):
        raise ValueError("outcome mask out of range")
    if not np.isfinite(rows).all():
        raise ValueError("effect entries must be finite")


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
        T[k] = _plus_effect(p)
    return T


def _plus_effect(p: BinaryQubitPovm) -> tuple:
    """E(+1) of p in (alpha, bloch) coordinates, a marginal's target."""
    return (1.0 + p.bias, *p.components)


# A block is joints stored back to back: masks (R,) and rows (R, 4), joint j
# in rows bounds[j]:bounds[j + 1]. Every check on a joint is the one-joint
# case of the block checks below.


def _padded(bounds, *arrays) -> list:
    """Each array of a block, laid out as (J, K, ...) with K the longest
    joint's length, shorter joints padded with zeros, which add nothing to a
    sum and are mask 0."""
    lengths = np.diff(bounds)
    joint = np.repeat(np.arange(len(lengths)), lengths)
    slot = np.arange(bounds[-1]) - np.repeat(bounds[:-1], lengths)
    padded = []
    for a in arrays:
        padded.append(np.zeros((len(lengths), lengths.max(), *a.shape[1:]), a.dtype))
        padded[-1][joint, slot] = a
    return padded


def _spectra(rows: np.ndarray, stacked_rows: np.ndarray) -> tuple:
    """(every effect's smaller eigenvalue (alpha - |bloch|)/2, every joint's
    completeness error) of a block, each joint's effects added in storage
    order. Entries past about 1e154 overflow to an infinite eigenvalue or
    error, which the checks reject, as they should: a valid effect has
    entries in [-2, 2]."""
    alpha, bloch = rows[:, 0], rows[:, 1:]
    with np.errstate(over="ignore"):
        min_eig = 0.5 * (alpha - np.sqrt((bloch * bloch).sum(axis=1)))
        comp = np.abs(stacked_rows.sum(axis=1) - (2.0, 0.0, 0.0, 0.0)).max(axis=1)
    return min_eig, comp


def _violations(masks: np.ndarray, min_eig: np.ndarray, comp: np.ndarray, bounds, tol: float) -> list:
    """validate's violations of every joint of a block: one per effect that
    is not PSD within tol, in storage order, then completeness. Python work
    is spent on failing joints only."""
    found = [()] * len(comp)
    bad = np.flatnonzero(min_eig < -tol)
    owner = np.searchsorted(bounds, bad, side="right") - 1
    for j in sorted({*owner.tolist(), *np.flatnonzero(comp > tol).tolist()}):
        violations = [(f"effect[{masks[i]}] PSD", -float(min_eig[i])) for i in bad[owner == j]]
        if comp[j] > tol:
            violations.append(("completeness", float(comp[j])))
        found[j] = tuple(violations)
    return found


def _marginal_errors(stacked_masks: np.ndarray, stacked_rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Every joint's largest deviation of a marginal from its target, as
    _marginal_system's rows 1..n times the joint's rows: targets[j, k - 1]
    is joint j's target for measurement k, zero past its n."""
    n = targets.shape[1]
    bits = ((stacked_masks[:, None, :] >> np.arange(n)[:, None]) & 1).astype(float)
    return np.abs(bits @ stacked_rows - targets).max(axis=(1, 2))


def check_joints(joints: Sequence["JointPovm"], povm_lists, tol: float = EPS_MARG) -> tuple:
    """(validate(tol) of each joint, each joint's marginal_error against its
    list of target POVMs), for all joints in one array pass."""
    joints = list(joints)
    povm_lists = [list(povms) for povms in povm_lists]
    if [j.n for j in joints] != list(map(len, povm_lists)):
        raise ValueError("one target POVM per measurement")
    if not joints:
        return [], []
    masks = np.concatenate([j.masks for j in joints])
    rows = np.concatenate([j.rows for j in joints])
    bounds = np.cumsum([0, *(len(j.masks) for j in joints)])
    stacked_masks, stacked_rows = _padded(bounds, masks, rows)
    found = _violations(masks, *_spectra(rows, stacked_rows), bounds, tol)
    targets = np.array([_plus_effect(p) for povms in povm_lists for p in povms])
    (targets,) = _padded(np.cumsum([0, *(j.n for j in joints)]), targets)
    errors = _marginal_errors(stacked_masks, stacked_rows, targets)
    return [ValidationReport(not v, v) for v in found], errors.tolist()


def _is_canonical(key) -> bool:
    """Whether key is an integer written as str(int) writes it: no sign but
    a minus, no space, leading zero, underscore or non-ASCII digit."""
    try:
        return str(int(key)) == key
    except (TypeError, ValueError):
        return False


def _check_json_numbers(rows: list) -> None:
    """ValueError naming the field of the first entry of the (alpha, bloch)
    rows that is not a JSON number (an int or a float, not a bool)."""
    if _JSON_NUMBERS.issuperset(map(type, itertools.chain.from_iterable(rows))):
        return
    for row in rows:
        for k, x in enumerate(row):
            if type(x) not in _JSON_NUMBERS:
                field = "alpha" if k == 0 else "bloch component"
                raise ValueError(f"effect {field} must be a JSON number, got {x!r}")


def _joints_from_json(dicts, tol: float) -> list:
    """The joints of JSON objects {"n": ..., "effects": {mask: {"alpha": ...,
    "bloch": [...]}}}, read and checked as one block. ValueError on an n
    that is not a JSON integer in 1..N_CAP, effects that are not a non-empty
    object, an outcome key that is not a canonical integer (str(int(key)) ==
    key) or out of range, an effect that is not 4 finite JSON numbers, or a
    joint that fails validate(tol). Each joint is a read-only view of the
    block."""
    ns, keys, rows, lengths = [], [], [], []
    for d in dicts:
        n, entries = d["n"], d["effects"]
        if type(n) is not int or not 1 <= n <= N_CAP:
            raise ValueError(f"joint n must be a JSON integer in 1..{N_CAP}, got {n!r}")
        if not isinstance(entries, dict) or not entries:
            raise ValueError("joint effects must be a non-empty JSON object of outcome masks")
        ns.append(n)
        keys += entries
        rows += [[e["alpha"], *e["bloch"]] for e in entries.values()]
        lengths.append(len(entries))
    if not ns:
        return []
    _check_json_numbers(rows)
    try:
        ints = list(map(int, keys))
    except (TypeError, ValueError):
        ints = None
    if ints is None or list(map(str, ints)) != keys:
        bad = next(k for k in keys if not _is_canonical(k))
        raise ValueError(f"outcome mask key {bad!r} is not a canonical integer")
    # canonical keys of one JSON object are distinct strings, so distinct masks
    masks, rows = _mask_array(ints), _read_only(rows, float)
    _check_arrays(masks, rows, np.repeat(ns, lengths))
    bounds = np.cumsum([0, *lengths])
    (stacked_rows,) = _padded(bounds, rows)
    for violations in _violations(masks, *_spectra(rows, stacked_rows), bounds, tol):
        if violations:
            raise ValueError(f"invalid joint POVM: {violations}")
    spans = zip(ns, bounds[:-1].tolist(), bounds[1:].tolist())
    return [JointPovm._from_checked(n, masks[a:b], rows[a:b]) for n, a, b in spans]


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
        masks, rows = _mask_array(masks), _read_only(rows, float)
        _check_arrays(masks, rows, n)
        if len(set(masks.tolist())) != len(masks):
            raise ValueError("outcome masks must be distinct")
        self.n, self.masks, self.rows = int(n), masks, rows

    @classmethod
    def _from_checked(cls, n: int, masks: np.ndarray, rows: np.ndarray) -> "JointPovm":
        """A joint that takes ownership of arrays the caller has made and
        checked, without __init__'s copies and scans: distinct, in-range
        int64 masks and finite float (k, 4) rows. Both are made read-only."""
        masks.flags.writeable = rows.flags.writeable = False
        joint = cls.__new__(cls)
        joint.n, joint.masks, joint.rows = n, masks, rows
        return joint

    @property
    def effects(self) -> dict:
        """{mask: Effect} in storage order, built on each access."""
        return {m: Effect(r[0], r[1:]) for m, r in zip(self.masks.tolist(), self.rows)}

    @functools.cached_property
    def _spectrum(self) -> tuple:
        """_spectra of this joint, computed once: rows is read-only."""
        return _spectra(self.rows, self.rows[None])

    def validate(self, tol: float = EPS_MARG) -> ValidationReport:
        violations = _violations(self.masks, *self._spectrum, (0, len(self.masks)), tol)[0]
        return ValidationReport(not violations, violations)

    def effect(self, mask: int) -> Effect:
        """The effect at an outcome mask, the zero effect where none is stored."""
        return self.effects.get(int(mask), ZERO_EFFECT)

    def marginal_povm(self, k: int) -> BinaryQubitPovm:
        """Single-measurement marginal as a BinaryQubitPovm (k is 1-based)."""
        plus = self.marginalize([k]).effect(1)
        return BinaryQubitPovm(plus.alpha - 1.0, plus.bloch)

    def marginal_error(self, povms: Sequence[BinaryQubitPovm]) -> float:
        """Largest deviation of a marginal's bias or Bloch component from its
        target, marginal k against povms[k-1]."""
        if len(povms) != self.n:
            raise ValueError("one target POVM per measurement")
        targets = _marginal_targets(self.n, povms)[None, 1:]
        return float(_marginal_errors(self.masks[None], self.rows[None], targets)[0])

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

    @_computed_once
    def canonical_text(self) -> str:
        """json.dumps(self.to_json_dict(), sort_keys=True) byte for byte,
        written directly and once per joint: outcome keys sorted as strings,
        floats by repr. The digest hashes it, and indented_text lays it out."""
        effects = sorted(zip(map(str, self.masks.tolist()), self.rows.tolist()))
        body = ", ".join(
            f'"{key}": {{"alpha": {a!r}, "bloch": [{x!r}, {y!r}, {z!r}]}}' for key, (a, x, y, z) in effects
        )
        return f'{{"effects": {{{body}}}, "n": {self.n}}}'

    def indented_text(self, newline: str) -> str:
        """json.dumps(self.to_json_dict(), indent=2, sort_keys=True) with
        each of its newlines written as newline, which indents the joint to
        its place in a larger document. Made from canonical_text by a fixed
        chain of replacements: that text's grammar is {"effects":
        {"<digits>": {"alpha": a, "bloch": [x, y, z]}, ...}, "n": n}, with
        finite floats by repr, which hold no comma, space, bracket, brace or
        quote, so each pattern matches only where it is meant to."""
        nl2, nl4, nl6, nl8 = (newline + " " * k for k in (2, 4, 6, 8))
        if not len(self.masks):
            return f'{{{nl2}"effects": {{}},{nl2}"n": {self.n}{newline}}}'
        text = (
            self.canonical_text.replace(', "bloch": [', f',{nl6}"bloch": [{nl8}')
            .replace(']}, "', f'{nl6}]{nl4}}},{nl4}"')
            .replace(']}}, "n": ', f'{nl6}]{nl4}}}{nl2}}},{nl2}"n": ')
            .replace(", ", "," + nl8)
            .replace('{"alpha": ', f'{{{nl6}"alpha": ')
            .replace('{"effects": {', f'{{{nl2}"effects": {{{nl4}', 1)
        )
        return text[:-1] + newline + "}"

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
        """The one-joint case of the block loader: ValueError on an n that is
        not a JSON integer in range, effects that are not a non-empty object,
        an outcome key that is not a canonical integer or out of range, a
        non-finite entry, or effects that fail validate(tol)."""
        return _joints_from_json([d], tol)[0]


def relabel_outcomes(p: BinaryQubitPovm, swap: bool) -> BinaryQubitPovm:
    """Swap the +1/-1 outcome labels (negates bias and Bloch vector)."""
    if not swap:
        return p
    return BinaryQubitPovm(-p.bias, -p.bloch)


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


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", int: "a number",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _json_kind(x) -> str:
    """What JSON value x is, for a message: "an array", "a string", ..."""
    return _JSON_KINDS.get(type(x), type(x).__name__)


def povms_from_json_dict(d: dict) -> list:
    """The POVMs of {"povms": [{"bias": ..., "bloch": [x, y, z]}, ...]}.
    ValueError naming the field when d is not a JSON object, its povms not
    an array of objects, or a bias or a Bloch component not a JSON number
    (float() would read the string "0.25", and false as 0), and
    InvalidPovmError naming the POVM, 1-based, when it fails validate_povm."""
    if type(d) is not dict:
        raise ValueError(f"POVM set must be a JSON object, got {_json_kind(d)}")
    entries = d["povms"]
    if type(entries) is not list:
        raise ValueError(f'POVM set field "povms" must be an array of objects, got {_json_kind(entries)}')
    povms = []
    for k, entry in enumerate(entries, 1):
        if type(entry) is not dict:
            raise ValueError(
                f'POVM set field "povms" must be an array of objects; POVM {k} is {_json_kind(entry)}'
            )
        bias, bloch = entry["bias"], entry["bloch"]
        if type(bias) not in _JSON_NUMBERS:
            raise ValueError(f"POVM bias must be a JSON number, got {bias!r}")
        if type(bloch) is not list or not _JSON_NUMBERS.issuperset(map(type, bloch)):
            raise ValueError(f"POVM bloch must be an array of JSON numbers, got {bloch!r}")
        p = BinaryQubitPovm(bias, bloch)
        if not (report := validate_povm(p)):
            raise InvalidPovmError(f"POVM {k} is not a valid POVM: {report.violations}")
        povms.append(p)
    return povms
