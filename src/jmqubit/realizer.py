"""Certified realizations of joint-measurability structures.

Ships the N-cycle and N-Specker planar recipes, the named miscellaneous
scenarios (complete graphs, the 5-vertex triple cycle, three 6-vertex
structures), and the full atlas of all 20 four-vertex structures, including
the two special constructions (mixed purity / non-coplanar) for atlas id 6,
which provably cannot be realized with coplanar same-purity unbiased POVMs.

Each certificate carries a joint-POVM witness for every maximal compatible
set and, for every minimal incompatible set, the id and margin of the
criterion that decided it (see REGISTRY).
"""

from __future__ import annotations

import hashlib
import math
import sys
from typing import NamedTuple, Optional

from . import oracle as oracle_mod
from .criteria import (
    COMPATIBLE,
    IFF,
    INCOMPATIBLE,
    SUFFICIENT_ONLY,
    TIE,
    UNKNOWN,
    Verdict,
    _verdict,
    coplanar_chain_bound,
    general_binary_sufficient,
    best_chain_ordering,
    n_necessary_sufficient,
    pair_general,
    pair_same_purity_bound,
    pair_unbiased,
    planar_nwise_bound,
    planar_pair_bound,
    planar_subset_bound,
    planar_symmetric_nwise,
    triple_anchor,
    triple_anchor_from_values,
    triple_anchor_values,
    triple_unbiased,
)
from .povm import (
    JointPovm,
    _joints_from_json,
    check_joints,
    povms_from_json_dict,
    povms_to_json_dict,
    unbiased_povm,
)
from .structures import JmStructure, n_cycle, n_specker, structure_of
from .surgery import (
    PlanarSymmetricFamily,
    build_general_binary_joint,
    surgery_mtuple,
)

# the verifier's tolerances; the certificate loader takes oracle joints,
# which are PSD only to within oracle_mod.WITNESS_TOL
_WITNESS_TOL = 1e-11  # PSD and marginals; shipped joints read back are off by <= 4.4e-16
_MARGIN_TOL = 1e-9  # triple-ft's margin comes from an iterative Fermat-Torricelli solve

# the modes of verify_certificate, and of the CLI's check and verify
MODES = ("closed-form", "oracle", "both")

ID6_NOGO_NOTE = (
    "the star structure {12},{13},{14} admits no realization with four "
    "coplanar same-purity unbiased POVMs; special mixed-purity or "
    "non-coplanar constructions are required"
)


# ---------------------------------------------------------------------------
# geometry helpers for the composite decider

_COPLANAR_TOL = 1e-9  # for coplanar Bloch vectors and for equal purities


def _coplanar_line_angles(povms) -> Optional[list]:
    """Sorted line angles in [0, pi) if the Bloch vectors are coplanar, on
    Python floats. With e the unit longest vector and n the largest cross
    product of e with a vector, made exactly normal to e and unit, the rows A
    are coplanar when |A n| <= tol * max(1, longest length), tol =
    _COPLANAR_TOL: never looser than the SVD test s[2] <= tol * max(1, s[0]),
    since |A n| >= s[2]. Angles are measured in the frame (e, n x e)."""
    rows = [p.components for p in povms]
    etas = [p.eta for p in povms]
    longest = max(etas)
    if longest == 0.0:
        return [0.0] * len(rows)
    ex, ey, ez = (c / longest for c in rows[etas.index(longest)])
    cx, cy, cz = max(
        ((ey * z - ez * y, ez * x - ex * z, ex * y - ey * x) for x, y, z in rows),
        key=lambda c: math.hypot(*c),
    )
    # on one line the cross products are all rounding, in any direction
    along = cx * ex + cy * ey + cz * ez
    nx, ny, nz = cx - along * ex, cy - along * ey, cz - along * ez
    size = math.hypot(nx, ny, nz)
    if size == 0.0:  # every vector a multiple of e
        return [0.0] * len(rows)
    nx, ny, nz = nx / size, ny / size, nz / size
    if math.hypot(*(nx * x + ny * y + nz * z for x, y, z in rows)) > _COPLANAR_TOL * max(1.0, longest):
        return None
    fx, fy, fz = ny * ez - nz * ey, nz * ex - nx * ez, nx * ey - ny * ex
    angles = []
    for x, y, z in rows:
        a = math.atan2(fx * x + fy * y + fz * z, ex * x + ey * y + ez * z) % math.pi
        angles.append(0.0 if abs(a - math.pi) < 1e-12 else a)
    return sorted(angles)


def _unbiased_purity(povms) -> Optional[float]:
    """Common purity of unbiased same-purity POVMs, else None."""
    if not all(p.is_unbiased for p in povms):
        return None
    etas = [p.eta for p in povms]
    return sum(etas) / len(etas) if max(etas) - min(etas) <= _COPLANAR_TOL else None


# ---------------------------------------------------------------------------
# criterion registry: criterion_id -> function of a POVM sub-list returning
# the Verdict of the computation that evaluates that criterion, or None when
# it does not apply. Two ids evaluated by one computation share a function,
# which returns whichever of the two verdicts decides; callers check the
# verdict's criterion_id. The functions look the criteria up as module
# globals at call time.


def _pair_general(sub) -> Optional[Verdict]:
    return pair_general(sub[0], sub[1]) if len(sub) == 2 else None


def _pair_unbiased(sub) -> Optional[Verdict]:
    if len(sub) != 2 or not all(p.is_unbiased for p in sub):
        return None
    return pair_unbiased(sub[0].eta, sub[0].direction, sub[1].eta, sub[1].direction)


def _triple_anchor(sub) -> Optional[Verdict]:
    if len(sub) != 3 or not all(p.is_unbiased for p in sub):
        return None
    return triple_anchor(sub[0].components, sub[1].components, sub[2].components)


def _triple_ft(sub) -> Optional[Verdict]:
    if len(sub) != 3 or not all(p.is_unbiased for p in sub):
        return None
    return triple_unbiased([p.eta for p in sub], [p.direction for p in sub])


def _coplanar_same_purity(sub) -> Optional[Verdict]:
    """Unbiased same-purity POVMs with coplanar Bloch vectors: the iff
    planar-symmetric criterion when their lines are equally spaced, else the
    sufficient coplanar chain bound."""
    eta = _unbiased_purity(sub)
    angles = None if eta is None else _coplanar_line_angles(sub)
    if angles is None:
        return None
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(math.pi - (angles[-1] - angles[0]))  # cyclic
    if max(abs(g - math.pi / len(sub)) for g in gaps) <= 1e-9:
        return planar_symmetric_nwise(len(sub), eta)
    bound = coplanar_chain_bound([a - angles[0] for a in angles[1:]])
    return _verdict(bound - eta, SUFFICIENT_ONLY, "coplanar-chain")


def _n_wise(sub) -> Optional[Verdict]:
    """Sign-string bounds for unbiased same-purity POVMs: the necessary one
    when it proves incompatibility, else the sufficient one."""
    eta = _unbiased_purity(sub)
    if eta is None:
        return None
    nec, suf = n_necessary_sufficient(eta, [p.direction for p in sub])
    return nec if nec.is_incompatible else suf


def _biased_chain(sub) -> Verdict:
    if len(sub) <= 6:
        return best_chain_ordering(sub)[1]
    return general_binary_sufficient(sub)


# In the closed-form decider's order. pair-unbiased is never reached there,
# since pair-general decides every pair; it verifies older certificates.
REGISTRY = {
    "pair-general": _pair_general,
    "pair-unbiased": _pair_unbiased,
    "triple-anchor": _triple_anchor,
    "triple-ft": _triple_ft,
    "planar-symmetric-nwise": _coplanar_same_purity,
    "coplanar-chain": _coplanar_same_purity,
    "n-wise-necessary": _n_wise,
    "n-wise-sufficient": _n_wise,
    "biased-chain": _biased_chain,
}
# A triple's chain value f(v_i) > 4 + 2 TIE puts its chain margin
# (4 - f(v_i))/2 below -TIE; the slack covers the rounding of the values
# and of a superset's path sum.
_TRIPLE_CHAIN_GUARD = 2.0 * TIE + 1e-13


def closed_form_decider(povms):
    """Composite decision procedure over the closed-form criteria.

    Returns a callable mapping a sorted 1-based index tuple to the deciding
    Verdict, by the subset's shape: a pair by pair-general; an all-unbiased
    triple by triple-anchor, then triple-ft; an all-unbiased set of four or
    more by the first of the coplanar same-purity and N-wise functions whose
    verdict decides or is iff; anything else by the chain. The other
    REGISTRY functions return None on these shapes or come after an iff
    verdict.

    A chain failure is inherited: adding a POVM never lengthens the chain's
    best path (the candidate orders of a set restrict to those of each
    subset), so a set of four or more with a one-smaller subset that failed
    the chain fails it too. Its chain step is not scored but returns that
    subset's verdict, whose margin is an upper bound on this set's slack.
    A subset failed the chain when this decider answered it Unknown by
    biased-chain, or when it is an unbiased triple whose three chain values
    f(v1), f(v2), f(v3) from triple_anchor_values all exceed 4 by more than
    _TRIPLE_CHAIN_GUARD: (4 - f(v_i))/2 is the chain margin of the order
    with i in the middle, and such a triple is recorded with an Unknown
    biased-chain verdict of margin (4 - min f(v_i))/2. The chain flips the
    outcomes of a POVM with a negative bias, even one within the unbiased
    tolerance, and flipping one or two of the three makes f(v0) a chain
    value; such a triple needs all four values past the guard. The values
    and triple-anchor's verdict are computed once per triple.
    """
    chain_failed = {}  # subset -> the Unknown biased-chain verdict it failed the chain with
    biased = frozenset(i for i, p in enumerate(povms, 1) if not p.is_unbiased)
    flipped = frozenset(i for i, p in enumerate(povms, 1) if p.bias < 0.0)  # the chain flips their outcomes

    def decide(combo) -> Verdict:
        sub = [povms[i - 1] for i in combo]
        n = len(combo)
        if n == 2:
            return _pair_general(sub)
        if biased.isdisjoint(combo):
            if n == 3:
                values = triple_anchor_values(sub[0].components, sub[1].components, sub[2].components)
                chain = min(values[1:] if flipped.isdisjoint(combo) else values)
                if chain > 4.0 + _TRIPLE_CHAIN_GUARD:
                    chain_failed[combo] = Verdict(UNKNOWN, SUFFICIENT_ONLY, (4.0 - chain) / 2.0, "biased-chain")
                v = triple_anchor_from_values(values)
                return v if v.decision != UNKNOWN else _triple_ft(sub)
            for criterion in (_coplanar_same_purity, _n_wise):
                v = criterion(sub)
                if v is not None and (v.decision != UNKNOWN or v.strength == IFF):
                    return v
        v = None
        if n >= 4:
            for j in range(n):
                v = chain_failed.get(combo[:j] + combo[j + 1:])
                if v is not None:
                    break
        if v is None:
            v = _biased_chain(sub)
        if v.decision == UNKNOWN:
            chain_failed[combo] = v
        return v

    return decide


def oracle_decider(povms):
    """Decision procedure backed by the feasibility oracle: what
    `oracle.checked_decision` proves (a checked joint POVM or Farkas dual),
    Unknown when it proves nothing. The oracle tests the exact feasibility
    problem (strength iff, up to its tolerances); the Verdict's margin is
    minus its residual, which is finite for every settled run, as the JSON
    that `check` prints requires."""

    def decide(combo) -> Verdict:
        sub = [povms[i - 1] for i in combo]
        res = oracle_mod.decide(sub)
        decision = oracle_mod.checked_decision(res, sub) or UNKNOWN
        return Verdict(decision, IFF, -res.residual, "oracle")

    return decide


# ---------------------------------------------------------------------------
# certificates


class CompatEvidence(NamedTuple):
    subset: tuple  # 1-based positions into the certificate's POVM list
    constructor: str
    digest: str
    joint: JointPovm


class IncompatEvidence(NamedTuple):
    subset: tuple
    criterion: str
    margin: float


class RealizationCertificate(NamedTuple):
    label: str
    povms: tuple
    eta: float
    eta_window: tuple  # (lo, hi], lo exclusive
    claimed: JmStructure
    compatible: tuple  # CompatEvidence per maximal compatible set of size >= 2
    incompatible: tuple  # IncompatEvidence per minimal incompatible set
    recipe: dict
    notes: tuple = ()

    def to_json_dict(self, joint_objects: bool = False) -> dict:
        """The certificate as plain JSON values. joint_objects=True leaves
        each JointPovm in place of its dict, for a writer that lays it out
        from its canonical text (the CLI's)."""
        return {
            "label": self.label,
            "povms": povms_to_json_dict(self.povms)["povms"],
            "eta": self.eta,
            "eta_window": list(self.eta_window),
            "structure": self.claimed.to_json_dict(),
            "evidence": {
                "compatible": [
                    {
                        "subset": list(e.subset),
                        "constructor": e.constructor,
                        "digest": e.digest,
                        "joint": e.joint if joint_objects else e.joint.to_json_dict(),
                    }
                    for e in self.compatible
                ],
                "incompatible": [
                    {
                        "subset": list(e.subset),
                        "criterion": e.criterion,
                        "margin": e.margin,
                    }
                    for e in self.incompatible
                ],
            },
            "recipe": self.recipe,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RealizationCertificate":
        """ValueError on a field of the wrong JSON type, a non-finite number,
        an invalid POVM, a structure whose n is not the POVM count as a JSON
        integer, an evidence subset that is not distinct indices 1..n, and a
        joint that is malformed, invalid or of the wrong size. All evidence
        joints are read and checked as one block."""
        povms = tuple(povms_from_json_dict({"povms": d["povms"]}))
        n = d["structure"]["n"]
        if n != len(povms):  # checked first: n sets the size of the structure
            raise ValueError(f"structure has n = {n!r} for {len(povms)} POVMs")
        claimed = JmStructure.from_json_dict(d["structure"])

        def subset(e) -> tuple:
            s = tuple(e["subset"])
            if len(set(s)) != len(s) or not all(
                type(i) is int and 1 <= i <= len(povms) for i in s
            ):
                raise ValueError(f"evidence subset {list(s)} is not distinct indices 1..{len(povms)}")
            return s

        evidence = d["evidence"]["compatible"]
        subsets = [subset(e) for e in evidence]
        joints = _joints_from_json([e["joint"] for e in evidence], oracle_mod.WITNESS_TOL)
        compat = []
        for e, s, joint in zip(evidence, subsets, joints):
            if joint.n != len(s):
                raise ValueError(f"joint for subset {list(s)} has {joint.n} measurements")
            constructor = _typed(e["constructor"], str, "constructor")
            compat.append(CompatEvidence(s, constructor, _typed(e["digest"], str, "digest"), joint))
        incompat = tuple(
            IncompatEvidence(
                subset(e), _typed(e["criterion"], str, "criterion"), _finite(e["margin"], "margin")
            )
            for e in d["evidence"]["incompatible"]
        )
        window = _typed(d["eta_window"], list, "eta_window")
        if len(window) != 2:
            raise ValueError("eta_window must hold two bounds")
        notes = _typed(d.get("notes", []), list, "notes")
        return cls(
            _typed(d.get("label", ""), str, "label"),
            povms,
            _finite(d["eta"], "eta"),
            tuple(_finite(x, "eta_window bound") for x in window),
            claimed,
            tuple(compat),
            incompat,
            _typed(d.get("recipe", {}), dict, "recipe"),
            tuple(_typed(x, str, "note") for x in notes),
        )


_JSON_TYPE_NAMES = {str: "string", list: "array", dict: "object"}
_FLOAT_MAX = sys.float_info.max


def _typed(value, kind: type, what: str):
    """value itself, or ValueError when it is not of the JSON type kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPE_NAMES[kind]}")
    return value


def _finite(value, what: str) -> float:
    """value as a float, or ValueError when it is not a finite JSON number."""
    # compared, not converted: a JSON integer beyond the float range must not overflow
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{what} must be a finite number")
    return float(value)


def joint_digest(joint: JointPovm) -> str:
    """sha256 of the joint's canonical text, json.dumps(joint.to_json_dict(),
    sort_keys=True) byte for byte (JointPovm.canonical_text)."""
    return hashlib.sha256(joint.canonical_text.encode()).hexdigest()


def _named(v: Verdict) -> str:
    return f"{v.decision} by {v.criterion_id}, margin {v.margin:.3g}"


def _certificate(
    label, povms, eta, window, expected, recipe, notes, witness_builder
) -> RealizationCertificate:
    """Certificate of povms. When the structure is expected, the closed-form
    decider is asked only about its border: each maximal set of size >= 2
    must come back compatible and each minimal non-face incompatible, else
    RuntimeError. Without one, a structure_of walk discovers the structure,
    which must come out fully decided."""
    povms = tuple(povms)
    decide = closed_form_decider(povms)
    if expected is None:
        claimed = structure_of(povms, decide)
        if claimed.is_partial:
            raise RuntimeError(f"{label}: structure left partially decided")
        proofs = claimed.incompatible
    else:
        claimed = expected
        for mset in expected.sorted_maximal():
            if len(mset) >= 2 and not (v := decide(tuple(mset))).is_compatible:
                raise RuntimeError(
                    f"{label}: expected maximal set {mset} is not proven compatible: {_named(v)}"
                )
        proofs = tuple((s, decide(s)) for s in expected.minimal_non_faces())
        for s, v in proofs:
            if not v.is_incompatible:
                raise RuntimeError(
                    f"{label}: expected non-face {list(s)} is not proven incompatible: {_named(v)}"
                )
    compat = []
    for mset in claimed.sorted_maximal():
        if len(mset) < 2:
            continue
        constructor, joint = witness_builder(tuple(mset))
        compat.append(
            CompatEvidence(tuple(mset), constructor, joint_digest(joint), joint)
        )
    incompat = tuple(IncompatEvidence(s, v.criterion_id, v.margin) for s, v in proofs)
    return RealizationCertificate(
        label, povms, eta, tuple(window), claimed,
        tuple(compat), incompat, recipe, tuple(notes),
    )


def _window_eta(eta, window, default) -> float:
    """eta, or default when eta is None; ValueError unless it lies in the
    window (lo, hi]."""
    lo, hi = window
    if eta is None:
        eta = default
    if not lo < eta <= hi:
        raise ValueError(f"eta {eta} outside the window ({lo}, {hi}]")
    return eta


def _planar_certificate(label, N, subset, window, expected, eta=None, notes=()):
    eta = _window_eta(eta, window, 0.5 * sum(window))
    fam = PlanarSymmetricFamily(N, eta)
    subset = list(subset)
    povms = fam.povms(subset)

    def witness(positions):
        ks = [subset[i - 1] for i in positions]
        joint = surgery_mtuple(N, ks, eta, [povms[i - 1] for i in positions])
        return f"planar-subset-joint(N={N}, ks={ks})", joint

    recipe = {"kind": "planar-symmetric-subset", "n": N, "subset": subset}
    return _certificate(label, povms, eta, window, expected, recipe, notes, witness)


def _general_pair_witness(povms):
    def witness(positions):
        sub = [povms[i - 1] for i in positions]
        joint, _ = build_general_binary_joint(sub)
        return "binary-chain-joint", joint

    return witness


# ---------------------------------------------------------------------------
# window tables


def n_cycle_window(N: int) -> tuple:
    """(lo, hi] purity window turning the full planar family into an N-cycle.

    For N=3 the generic pair formula degenerates (no non-adjacent pair); the
    binding incompatibility is the triple, giving the trine window.
    """
    if N < 3:
        raise ValueError("cycle needs N >= 3")
    if N == 3:
        return (planar_nwise_bound(3), planar_pair_bound(3, 1))
    return (planar_pair_bound(N, 2), planar_pair_bound(N, 1))


def n_specker_window(N: int) -> tuple:
    if N < 3:
        raise ValueError("Specker scenario needs N >= 3")
    lo = planar_nwise_bound(N)
    hi = 1.0 / ((N - 2) * math.sin(math.pi / (2 * N)) + math.sin(math.pi / N))
    return (lo, hi)


# purity interval for 5 planar symmetric POVMs where the exact structure is
# an open problem (between the 5-Specker window and the triple-cycle window)
UNDECIDED_INTERVAL_N5 = (n_specker_window(5)[1], planar_subset_bound(5, [1, 2, 4]))


def realize_n_cycle(N: int, eta: Optional[float] = None) -> RealizationCertificate:
    return _planar_certificate(
        f"{N}-cycle", N, range(1, N + 1), n_cycle_window(N), n_cycle(N), eta
    )


def realize_n_specker(N: int, eta: Optional[float] = None) -> RealizationCertificate:
    return _planar_certificate(
        f"{N}-specker", N, range(1, N + 1), n_specker_window(N), n_specker(N), eta
    )


def _pairs_within(N, max_gap):
    out = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            if min(j - i, N - (j - i)) <= max_gap:
                out.append(frozenset({i, j}))
    return out


def _consecutive_triples(N):
    return [frozenset({k, k % N + 1, (k + 1) % N + 1}) for k in range(1, N + 1)]


MISC_SCENARIOS = {
    "4-complete": dict(
        N=4,
        window=lambda: (planar_subset_bound(4, [1, 2, 3]), planar_pair_bound(4, 2)),
        structure=lambda: JmStructure.from_sets(4, _pairs_within(4, 2)),
    ),
    "5-complete": dict(
        N=5,
        window=lambda: (planar_subset_bound(5, [1, 2, 3]), planar_pair_bound(5, 2)),
        structure=lambda: JmStructure.from_sets(5, _pairs_within(5, 2)),
    ),
    "5-triple-cycle": dict(
        N=5,
        window=lambda: (planar_subset_bound(5, [1, 2, 4]), planar_subset_bound(5, [1, 2, 3])),
        structure=lambda: JmStructure.from_sets(5, _consecutive_triples(5)),
    ),
    "6-two-step-pairs": dict(
        N=6,
        window=lambda: (planar_subset_bound(6, [1, 2, 3]), planar_pair_bound(6, 2)),
        structure=lambda: JmStructure.from_sets(6, _pairs_within(6, 2)),
    ),
    "6-consecutive-triples": dict(
        N=6,
        window=lambda: (planar_pair_bound(6, 3), planar_subset_bound(6, [1, 2, 3])),
        structure=lambda: JmStructure.from_sets(6, _consecutive_triples(6)),
    ),
    "6-triples-antipodal-pairs": dict(
        N=6,
        window=lambda: (planar_subset_bound(6, [1, 2, 4]), planar_pair_bound(6, 3)),
        structure=lambda: JmStructure.from_sets(
            6,
            _consecutive_triples(6)
            + [frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6})],
        ),
    ),
}


def realize_misc(tag: str, eta: Optional[float] = None) -> RealizationCertificate:
    if tag not in MISC_SCENARIOS:
        raise KeyError(f"unknown scenario tag {tag!r}; known: {sorted(MISC_SCENARIOS)}")
    scenario = MISC_SCENARIOS[tag]
    N = scenario["N"]
    notes = ()
    if N == 5:
        notes = (
            "the exact structure of 5 planar symmetric POVMs is undecided for "
            f"eta in ({UNDECIDED_INTERVAL_N5[0]!r}, {UNDECIDED_INTERVAL_N5[1]!r}]",
        )
    return _planar_certificate(
        tag, N, range(1, N + 1), scenario["window"](), scenario["structure"](), eta, notes
    )


# ---------------------------------------------------------------------------
# the four-vertex atlas

# id -> (N, subset, lo(), hi()); windows are the sharp closed forms from the
# Iff pair/triple criteria. ids 1 and 18 carry recomputed windows, flagged in
# their certificate notes; id 6 is the special pair below.
FOUR_VERTEX_CATALOG = {
    1: (4, (1, 2, 3, 4), lambda: planar_pair_bound(4, 1), lambda: 1.0),
    2: (7, (1, 2, 4, 6), lambda: planar_pair_bound(7, 2), lambda: planar_pair_bound(7, 1)),
    3: (6, (1, 2, 4, 5), lambda: planar_pair_bound(6, 2), lambda: planar_pair_bound(6, 1)),
    4: (6, (1, 2, 3, 5), lambda: planar_pair_bound(6, 2), lambda: planar_pair_bound(6, 1)),
    5: (5, (1, 2, 3, 4), lambda: planar_pair_bound(5, 2), lambda: planar_pair_bound(5, 1)),
    7: (8, (1, 2, 3, 6), lambda: planar_subset_bound(8, [1, 2, 3]), lambda: planar_pair_bound(8, 2)),
    8: (4, (1, 2, 3, 4), lambda: planar_pair_bound(4, 2), lambda: planar_pair_bound(4, 1)),
    9: (7, (1, 2, 3, 6), lambda: planar_subset_bound(7, [1, 2, 3]), lambda: planar_pair_bound(7, 2)),
    10: (6, (1, 2, 3, 5), lambda: planar_subset_bound(6, [1, 2, 3]), lambda: planar_pair_bound(6, 2)),
    11: (4, (1, 2, 3, 4), lambda: planar_subset_bound(4, [1, 2, 3]), lambda: planar_pair_bound(4, 2)),
    12: (8, (1, 2, 3, 6), lambda: planar_pair_bound(8, 3), lambda: planar_subset_bound(8, [1, 2, 3])),
    13: (7, (1, 2, 3, 6), lambda: planar_pair_bound(7, 3), lambda: planar_subset_bound(7, [1, 2, 3])),
    14: (6, (1, 2, 3, 5), lambda: planar_pair_bound(6, 3), lambda: planar_subset_bound(6, [1, 2, 3])),
    15: (6, (1, 2, 3, 5), lambda: planar_subset_bound(6, [1, 2, 4]), lambda: planar_pair_bound(6, 3)),
    16: (6, (1, 2, 3, 4), lambda: planar_pair_bound(6, 3), lambda: planar_subset_bound(6, [1, 2, 3])),
    17: (5, (1, 2, 3, 4), lambda: planar_subset_bound(5, [1, 2, 4]), lambda: planar_subset_bound(5, [1, 2, 3])),
    18: (7, (1, 2, 3, 5), lambda: planar_subset_bound(7, [1, 3, 5]), lambda: planar_subset_bound(7, [1, 2, 5])),
    19: (4, (1, 2, 3, 4), lambda: planar_nwise_bound(4), lambda: planar_subset_bound(4, [1, 2, 3])),
    20: (4, (1, 2, 3, 4), lambda: 0.0, lambda: planar_nwise_bound(4)),
}

ATLAS_IDS = tuple(range(1, 21))

MIXED_PURITY_THETA = math.radians(22.5)  # admissible interval is (15, 30] degrees
NON_COPLANAR_ALPHA = math.radians(30.0)


def mixed_purity_window() -> tuple:
    """Common-purity window for the three coplanar POVMs of the mixed recipe:
    E2, E3 (2 theta apart) incompatible, E1, Ek (theta apart) compatible."""
    theta = MIXED_PURITY_THETA
    return (pair_same_purity_bound(2.0 * theta), pair_same_purity_bound(theta))


def mixed_purity_povms(eta: float) -> list:
    theta = MIXED_PURITY_THETA
    return [
        unbiased_povm(eta, [1.0, 0.0, 0.0]),
        unbiased_povm(eta, [math.cos(theta), math.sin(theta), 0.0]),
        unbiased_povm(eta, [math.cos(theta), -math.sin(theta), 0.0]),
        unbiased_povm(1.0, [1.0, 0.0, 0.0]),  # projective along the shared axis
    ]


def non_coplanar_window() -> tuple:
    """Common-purity window of the non-coplanar recipe: E4 and E2/E3 (phi
    apart) incompatible, E1 and the others (alpha apart) compatible."""
    alpha = NON_COPLANAR_ALPHA
    phi = math.acos(math.cos(alpha) ** 2)  # angle between E4 and E2/E3
    return (pair_same_purity_bound(phi), pair_same_purity_bound(alpha))


def non_coplanar_povms(eta: float) -> list:
    alpha = NON_COPLANAR_ALPHA
    return [
        unbiased_povm(eta, [1.0, 0.0, 0.0]),
        unbiased_povm(eta, [math.cos(alpha), math.sin(alpha), 0.0]),
        unbiased_povm(eta, [math.cos(alpha), -math.sin(alpha), 0.0]),
        unbiased_povm(eta, [math.cos(alpha), 0.0, math.sin(alpha)]),
    ]


# four-vertex-6 variant -> (window, default eta, POVMs at eta, recipe)
FOUR_VERTEX_6_VARIANTS = {
    "mixed-purity": (
        mixed_purity_window(), math.sqrt(2.0 / 3.0), mixed_purity_povms,
        {"kind": "mixed-purity", "theta_degrees": math.degrees(MIXED_PURITY_THETA)},
    ),
    "non-coplanar": (
        non_coplanar_window(), 0.5 * sum(non_coplanar_window()), non_coplanar_povms,
        {"kind": "non-coplanar", "alpha_degrees": math.degrees(NON_COPLANAR_ALPHA)},
    ),
}

_STAR_STRUCTURE = lambda: JmStructure.from_sets(
    4, [frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})]
)


def realize_four_vertex(
    atlas_id: int, variant: str = "mixed-purity", eta: Optional[float] = None
) -> RealizationCertificate:
    """Certificate for one of the 20 four-vertex structures.

    For ids != 6 a planar-symmetric subset at the window midpoint is used.
    Id 6 uses a recipe of FOUR_VERTEX_6_VARIANTS: mixed-purity by default
    (three coplanar POVMs at purity sqrt(2/3), two of them at +-22.5 degrees
    about the first, plus a projective measurement on the shared axis) or
    non-coplanar (alpha = 30 degrees, window midpoint purity).
    """
    if atlas_id not in ATLAS_IDS:
        raise ValueError("atlas id must be 1..20")
    if atlas_id != 6:
        N, subset, lo, hi = FOUR_VERTEX_CATALOG[atlas_id]
        notes = ()
        if atlas_id in (1, 18):
            notes = ("window recomputed from the sharp pair and triple criteria",)
        return _planar_certificate(
            f"four-vertex-{atlas_id}", N, subset, (lo(), hi()), None, eta, notes
        )
    if variant not in FOUR_VERTEX_6_VARIANTS:
        raise ValueError(f"variant must be {' or '.join(map(repr, FOUR_VERTEX_6_VARIANTS))}")
    window, default, make_povms, recipe = FOUR_VERTEX_6_VARIANTS[variant]
    eta = _window_eta(eta, window, default)
    povms = make_povms(eta)
    return _certificate(
        "four-vertex-6", povms, eta, window, _STAR_STRUCTURE(), dict(recipe), (ID6_NOGO_NOTE,),
        _general_pair_witness(povms),
    )


def atlas_certificates() -> dict:
    """All 21 atlas certificates by file stem: four-vertex-<id>, with id 6 as
    four-vertex-6-mixed-purity and four-vertex-6-non-coplanar."""
    certs = {}
    for i in ATLAS_IDS:
        if i == 6:
            for variant in FOUR_VERTEX_6_VARIANTS:
                certs[f"four-vertex-6-{variant}"] = realize_four_vertex(6, variant)
        else:
            certs[f"four-vertex-{i}"] = realize_four_vertex(i)
    return certs


def atlas_manifest(certs: dict) -> dict:
    """Windows and structures of all 20 four-vertex entries (no heavy joints),
    read from the certificates of atlas_certificates()."""
    entries = []
    for i in ATLAS_IDS:
        if i == 6:
            mixed = certs["four-vertex-6-mixed-purity"]
            non_coplanar = certs["four-vertex-6-non-coplanar"]
            entries.append(
                {
                    "id": 6,
                    "kind": "special",
                    "variants": {
                        "mixed-purity": {"eta": mixed.eta, "window": list(mixed.eta_window)},
                        "non-coplanar": {"window": list(non_coplanar.eta_window)},
                    },
                    "structure": mixed.claimed.to_json_dict(),
                    "notes": list(mixed.notes),
                }
            )
            continue
        cert = certs[f"four-vertex-{i}"]
        entries.append(
            {
                "id": i,
                "kind": "planar-symmetric-subset",
                "n": cert.recipe["n"],
                "subset": list(cert.recipe["subset"]),
                "window": list(cert.eta_window),
                "eta": cert.eta,
                "structure": cert.claimed.to_json_dict(),
                "notes": list(cert.notes),
            }
        )
    return {
        "entries": entries,
        "undecided_interval_n5": list(UNDECIDED_INTERVAL_N5),
    }


# ---------------------------------------------------------------------------
# verification


class VerificationReport(NamedTuple):
    ok: bool
    issues: tuple = ()
    inconclusive: tuple = ()


def verify_certificate(cert: RealizationCertificate, mode: str = "closed-form") -> VerificationReport:
    """Re-derive every evidence entry. mode: closed-form | oracle | both.

    The closed-form check proves the claimed structure from its border and
    decides no other subset: a joint POVM that checks for each maximal set of
    size >= 2 (its marginals carry compatibility down to every subset), and
    for each minimal non-face, exactly those, a REGISTRY criterion that
    re-derives the recorded incompatible verdict (incompatibility carries up
    to every superset).
    """
    if mode not in MODES:
        raise ValueError("mode must be closed-form, oracle, or both")
    issues = []
    inconclusive = []
    povms = list(cert.povms)

    if mode in ("closed-form", "both"):
        lo, hi = cert.eta_window
        if not lo < cert.eta <= hi:
            issues.append(f"eta {cert.eta} outside window ({lo}, {hi}]")
        covered = {frozenset(e.subset) for e in cert.compatible}
        expected = {frozenset(m) for m in cert.claimed.maximal if len(m) >= 2}
        if covered != expected:
            issues.append("compatible evidence does not cover the maximal sets")
        reports, errors = check_joints(
            [e.joint for e in cert.compatible],
            [[povms[k - 1] for k in e.subset] for e in cert.compatible],
            _WITNESS_TOL,
        )
        for e, rep, err in zip(cert.compatible, reports, errors):
            if joint_digest(e.joint) != e.digest:
                issues.append(f"digest mismatch for subset {list(e.subset)}")
            if not rep.ok:
                issues.append(f"witness for {list(e.subset)} invalid: {rep.violations}")
            if err > _WITNESS_TOL:
                issues.append(f"witness for {list(e.subset)} marginals off by {err:.2e}")
        needed = set(map(frozenset, cert.claimed.minimal_non_faces()))
        if needed != {frozenset(e.subset) for e in cert.incompatible}:
            issues.append("incompatible evidence does not cover the minimal sets")
        for e in cert.incompatible:
            criterion = REGISTRY.get(e.criterion)
            v = criterion([povms[i - 1] for i in e.subset]) if criterion else None
            if v is None or v.criterion_id != e.criterion or not v.is_incompatible:
                issues.append(
                    f"criterion {e.criterion} does not prove {list(e.subset)} incompatible"
                )
            elif abs(v.margin - e.margin) > _MARGIN_TOL:
                issues.append(
                    f"margin mismatch for {list(e.subset)}: {v.margin} vs {e.margin}"
                )

    if mode in ("oracle", "both"):
        checks = [(e, COMPATIBLE, "compatibility") for e in cert.compatible]
        checks += [(e, INCOMPATIBLE, "incompatibility") for e in cert.incompatible]
        for e, expected, claim in checks:
            sub = [povms[i - 1] for i in e.subset]
            res = oracle_mod.decide(sub)
            found = oracle_mod.checked_decision(res, sub)
            if found is None:
                proof = "joint POVM" if expected == COMPATIBLE else "Farkas dual"
                inconclusive.append(
                    f"oracle {res.status} on {list(e.subset)}: no checked {proof} after "
                    f"{res.iterations} of max_iter = {res.params.max_iter} Newton steps"
                )
            elif found != expected:
                issues.append(f"oracle contradicts {claim} of {list(e.subset)}")

    return VerificationReport(not issues, tuple(issues), tuple(inconclusive))
