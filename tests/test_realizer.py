import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmqubit import (
    COMPATIBLE,
    INCOMPATIBLE,
    UNKNOWN,
    BinaryQubitPovm,
    JmStructure,
    PlanarSymmetricFamily,
    RealizationCertificate,
    closed_form_decider,
    n_cycle,
    n_cycle_window,
    n_specker,
    n_specker_window,
    povms_from_json_dict,
    atlas_manifest,
    realize_four_vertex,
    realize_misc,
    realize_n_cycle,
    realize_n_specker,
    structure_of,
    unbiased_povm,
    verify_certificate,
)
from jmqubit import realizer
from jmqubit.criteria import IFF, pair_unbiased, planar_symmetric_nwise
from jmqubit.realizer import (
    MISC_SCENARIOS,
    UNDECIDED_INTERVAL_N5,
    atlas_certificates,
    joint_digest,
    mixed_purity_povms,
    non_coplanar_povms,
    non_coplanar_window,
)
from conftest import random_orthogonal, triple_chain_failure


def test_cycle_and_specker_windows():
    lo, hi = n_cycle_window(4)
    assert lo == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert hi == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-12)
    lo, hi = n_specker_window(3)
    assert lo == pytest.approx(2 / 3, abs=1e-12)
    assert hi == pytest.approx(math.sqrt(3) - 1, abs=1e-12)
    # N=3 cycle degenerates to the trine window
    lo, hi = n_cycle_window(3)
    assert (lo, hi) == pytest.approx((2 / 3, math.sqrt(3) - 1), abs=1e-12)


def test_realize_n_cycle_matches_named_structure():
    for N in (3, 4, 5, 6):
        cert = realize_n_cycle(N)
        assert cert.claimed.maximal == n_cycle(N).maximal
        assert verify_certificate(cert).ok


def test_realize_n_specker_matches_named_structure():
    for N in (3, 4, 5, 6):
        cert = realize_n_specker(N)
        assert cert.claimed.maximal == n_specker(N).maximal
        assert verify_certificate(cert).ok


def test_eta_override_and_window_enforcement():
    lo, hi = n_cycle_window(4)
    cert = realize_n_cycle(4, eta=hi)  # boundary included
    assert cert.eta == hi
    with pytest.raises(ValueError):
        realize_n_cycle(4, eta=lo)  # lower endpoint excluded
    with pytest.raises(ValueError):
        realize_n_cycle(4, eta=hi + 1e-9)


def test_misc_scenarios_verified():
    for tag in MISC_SCENARIOS:
        cert = realize_misc(tag)
        rep = verify_certificate(cert)
        assert rep.ok, (tag, rep.issues)
    with pytest.raises(KeyError):
        realize_misc("no-such-tag")


def test_undecided_interval_metadata():
    lo, hi = UNDECIDED_INTERVAL_N5
    assert lo == pytest.approx(0.6601373644356445, abs=1e-12)
    expected_hi = 4 / (math.sqrt(5) - 1 + 2 * math.sqrt(10 - 2 * math.sqrt(5)))
    assert hi == pytest.approx(expected_hi, abs=1e-12)
    assert lo < hi
    cert = realize_misc("5-triple-cycle")
    assert any("undecided" in note for note in cert.notes)


def test_atlas_ids_and_variants():
    star = {frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})}
    for variant in ("mixed-purity", "non-coplanar"):
        cert = realize_four_vertex(6, variant)
        assert cert.claimed.maximal == frozenset(star)
        assert verify_certificate(cert).ok
        assert any("no realization" in note for note in cert.notes)
    with pytest.raises(ValueError):
        realize_four_vertex(21)
    with pytest.raises(ValueError):
        realize_four_vertex(6, "bogus")


def test_mixed_purity_recipe_geometry():
    povms = mixed_purity_povms(math.sqrt(2 / 3))
    assert povms[3].eta == pytest.approx(1.0)
    for p in povms[:3]:
        assert p.eta == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
    # E2 and E3 sit symmetrically about E1
    assert povms[1].bloch[1] == pytest.approx(-povms[2].bloch[1], abs=1e-15)


def test_non_coplanar_recipe_geometry():
    povms = non_coplanar_povms(0.5 * sum(non_coplanar_window()))
    A = np.array([p.bloch for p in povms])
    s = np.linalg.svd(A, compute_uv=False)
    assert s[2] > 1e-3  # genuinely non-coplanar
    etas = [p.eta for p in povms]
    assert max(etas) - min(etas) < 1e-12


def test_certificate_json_roundtrip():
    cert = realize_n_specker(4)
    d = json.loads(json.dumps(cert.to_json_dict()))
    back = RealizationCertificate.from_json_dict(d)
    assert back.claimed.maximal == cert.claimed.maximal
    assert back.eta == cert.eta
    rep = verify_certificate(back)
    assert rep.ok, rep.issues


def test_verify_detects_tampering():
    cert = realize_n_cycle(4)
    d = cert.to_json_dict()
    # claim an extra compatible pair that is not realized
    d["structure"]["maximal"] = [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]]
    bad = RealizationCertificate.from_json_dict(d)
    rep = verify_certificate(bad)
    assert not rep.ok

    # a perturbation small enough to keep the joint valid still breaks the digest
    d2 = cert.to_json_dict()
    d2["evidence"]["compatible"][0]["joint"]["effects"]["0"]["alpha"] += 1e-13
    bad2 = RealizationCertificate.from_json_dict(d2)
    rep2 = verify_certificate(bad2)
    assert not rep2.ok
    assert any("digest" in i or "marginal" in i or "invalid" in i for i in rep2.issues)

    # a gross perturbation is rejected outright at parse time
    d3 = cert.to_json_dict()
    d3["evidence"]["compatible"][0]["joint"]["effects"]["0"]["alpha"] += 1e-3
    with pytest.raises(ValueError):
        RealizationCertificate.from_json_dict(d3)


def test_verify_oracle_mode_cross_checks():
    cert = realize_n_cycle(4)
    rep = verify_certificate(cert, "oracle")
    assert rep.ok and not rep.inconclusive
    with pytest.raises(ValueError):
        verify_certificate(cert, "bogus-mode")


def test_verify_oracle_mode_reports_contradictions():
    cert = realize_n_cycle(4)
    # [1, 3] is a non-adjacent (incompatible) pair, [1, 2] an adjacent one
    compat = (cert.compatible[0]._replace(subset=(1, 3)),) + cert.compatible[1:]
    incompat = (cert.incompatible[0]._replace(subset=(1, 2)),) + cert.incompatible[1:]
    for tampered, claim in (
        (cert._replace(compatible=compat), "compatibility of [1, 3]"),
        (cert._replace(incompatible=incompat), "incompatibility of [1, 2]"),
    ):
        rep = verify_certificate(tampered, "oracle")
        assert not rep.ok
        assert rep.issues == (f"oracle contradicts {claim}",)
        assert not rep.inconclusive


def test_atlas_manifest_shape():
    manifest = atlas_manifest(atlas_certificates())
    assert len(manifest["entries"]) == 20
    ids = [e["id"] for e in manifest["entries"]]
    assert ids == list(range(1, 21))
    e6 = manifest["entries"][5]
    assert e6["kind"] == "special"
    assert set(e6["variants"]) == {"mixed-purity", "non-coplanar"}
    for e in manifest["entries"]:
        if "window" in e:
            lo, hi = e["window"]
            assert lo < hi


def test_closed_form_decider_basics():
    fam = PlanarSymmetricFamily(3, 0.7)  # between 2/3 and sqrt(3)-1
    povms = fam.povms()
    decide = closed_form_decider(povms)
    assert decide((1,)).decision == COMPATIBLE
    assert decide((1, 2)).decision == COMPATIBLE
    assert decide((1, 2, 3)).decision == INCOMPATIBLE


def test_closed_form_decider_unknown_case():
    # tetrahedral directions between the sufficient and necessary bounds,
    # out of reach of the chain: honestly Unknown
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    povms = [unbiased_povm(0.56, d) for d in dirs]
    decide = closed_form_decider(povms)
    assert decide((1, 2, 3, 4)).decision == UNKNOWN
    struct = structure_of(povms, decide)
    assert struct.is_partial


def test_digest_is_stable():
    cert = realize_n_cycle(4)
    e = cert.compatible[0]
    assert joint_digest(e.joint) == e.digest


def _record_decider_calls(monkeypatch) -> list:
    """The subsets every closed-form decider made from now on is asked about."""
    calls = []
    factory = realizer.closed_form_decider

    def counting(povms):
        decide = factory(povms)
        return lambda combo: calls.append(combo) or decide(combo)

    monkeypatch.setattr(realizer, "closed_form_decider", counting)
    return calls


def test_n_cycle_walk_is_quadratic(monkeypatch):
    calls = _record_decider_calls(monkeypatch)
    cert = realize_n_cycle(24)
    # the pairs only: no triple of a 24-cycle has three compatible pairs
    assert len(calls) <= 24 * 23 // 2
    assert cert.claimed.maximal == n_cycle(24).maximal


def test_realize_and_verify_n_cycle_40():
    cert = realize_n_cycle(40)
    assert cert.claimed.maximal == n_cycle(40).maximal
    assert len(cert.incompatible) == 40 * 39 // 2 - 40
    rep = verify_certificate(cert)
    assert rep.ok and not rep.inconclusive, rep.issues


def _certify_scenarios():
    """The certificates the certify benchmark realizes, plus the atlas."""
    certs = [realize_n_cycle(N) for N in (5, 8, 10, 12, 14, 16)]
    certs += [realize_n_specker(N) for N in (5, 6, 7, 8)]
    certs += [realize_misc(tag) for tag in sorted(MISC_SCENARIOS)]
    return certs + list(realizer.atlas_certificates().values())


def test_incompatible_evidence_is_the_deciding_verdict():
    # named structures are realized from their border, in the walk's order
    for cert in _certify_scenarios():
        povms = list(cert.povms)
        walk = structure_of(povms, closed_form_decider(povms))
        assert walk.maximal == cert.claimed.maximal, cert.label
        assert cert.claimed.minimal_non_faces() == tuple(s for s, _ in walk.incompatible), cert.label
        assert [(e.subset, e.criterion, e.margin) for e in cert.incompatible] == [
            (s, v.criterion_id, v.margin) for s, v in walk.incompatible
        ], cert.label
    assert {e.criterion for e in realize_n_cycle(5).incompatible} == {"pair-general"}


def test_pair_unbiased_evidence_still_verifies():
    # certificates written before pair-general became the pair evidence
    cert = realize_n_cycle(5)
    d = cert.to_json_dict()
    for e in d["evidence"]["incompatible"]:
        p, q = (cert.povms[i - 1] for i in e["subset"])
        e["criterion"] = "pair-unbiased"
        e["margin"] = pair_unbiased(p.eta, p.bloch / p.eta, q.eta, q.bloch / q.eta).margin
    rep = verify_certificate(RealizationCertificate.from_json_dict(d))
    assert rep.ok, rep.issues


def test_verify_rejects_criterion_that_does_not_apply():
    # the pairs of the non-coplanar recipe are not equiangular, so the
    # planar-symmetric criterion proves nothing about them
    cert = realize_four_vertex(6, "non-coplanar")
    d = cert.to_json_dict()
    e = d["evidence"]["incompatible"][0]
    e["criterion"] = "planar-symmetric-nwise"
    e["margin"] = planar_symmetric_nwise(2, cert.eta).margin
    rep = verify_certificate(RealizationCertificate.from_json_dict(d))
    assert not rep.ok
    assert any("planar-symmetric-nwise does not prove" in i for i in rep.issues)


def _verify_json(d: dict):
    return verify_certificate(RealizationCertificate.from_json_dict(d))


def test_verify_rejects_a_shrunk_claim_with_forged_evidence():
    d = realize_n_cycle(5).to_json_dict()
    d["structure"]["maximal"].remove([1, 2])
    d["evidence"]["compatible"] = [e for e in d["evidence"]["compatible"] if e["subset"] != [1, 2]]
    d["evidence"]["incompatible"].append({"subset": [1, 2], "criterion": "pair-general", "margin": -0.1})
    rep = _verify_json(d)
    assert rep.issues == ("criterion pair-general does not prove [1, 2] incompatible",)


def test_verify_rejects_a_dropped_minimal_set():
    d = realize_n_cycle(5).to_json_dict()
    del d["evidence"]["incompatible"][2]
    rep = _verify_json(d)
    assert rep.issues == ("incompatible evidence does not cover the minimal sets",)


def test_verify_rejects_an_extra_non_minimal_set():
    cert = realize_n_cycle(5)
    # a true incompatible triple, but not minimal: it contains the pair [1, 3]
    v = closed_form_decider(list(cert.povms))((1, 2, 3))
    assert v.is_incompatible
    d = cert.to_json_dict()
    d["evidence"]["incompatible"].append(
        {"subset": [1, 2, 3], "criterion": v.criterion_id, "margin": v.margin}
    )
    rep = _verify_json(d)
    assert rep.issues == ("incompatible evidence does not cover the minimal sets",)


def test_closed_form_verify_asks_no_decider(monkeypatch):
    certs = [
        RealizationCertificate.from_json_dict(json.loads(path.read_text()))
        # the stored certificates that verify
        for path in sorted((Path(__file__).parent / "data").glob("5-*.json"))
    ]
    assert len(certs) == 2
    certs.append(realize_n_specker(8))

    def refuse(povms):
        raise AssertionError("closed-form verify called the decider")

    monkeypatch.setattr(realizer, "closed_form_decider", refuse)
    for cert in certs:
        rep = verify_certificate(cert)
        assert rep.ok and not rep.inconclusive, (cert.label, rep.issues)


def test_realize_rejects_a_maximal_set_that_is_not_compatible(monkeypatch):
    # [1, 3] of a 5-cycle is incompatible in the cycle's window
    wrong = JmStructure.from_sets(5, list(n_cycle(5).maximal) + [{1, 3}])
    monkeypatch.setattr(realizer, "n_cycle", lambda N: wrong)
    message = r"maximal set \[1, 3\] is not proven compatible: incompatible by pair-general"
    with pytest.raises(RuntimeError, match=message):
        realize_n_cycle(5)


def test_realize_rejects_a_non_face_that_is_not_incompatible(monkeypatch):
    wrong = JmStructure.from_sets(5, [m for m in n_cycle(5).maximal if m != {1, 2}])
    monkeypatch.setattr(realizer, "n_cycle", lambda N: wrong)
    message = r"non-face \[1, 2\] is not proven incompatible: compatible by pair-general"
    with pytest.raises(RuntimeError, match=message):
        realize_n_cycle(5)


@pytest.mark.parametrize("N", range(5, 13))
def test_n_specker_asks_the_border_only(monkeypatch, N):
    calls = _record_decider_calls(monkeypatch)
    cert = realize_n_specker(N)
    # the N maximal (N-1)-sets and the full set
    assert len(calls) <= N + 1
    assert cert.claimed.maximal == n_specker(N).maximal


# ---------------------------------------------------------------------------
# the coplanar kernel against the SVD version it replaced


def _reference_coplanar_line_angles(povms, tol: float = 1e-9):
    """Sorted line angles in [0, pi) if the Bloch vectors are coplanar, from
    an SVD of the stacked Bloch vectors."""
    A = np.array([p.bloch for p in povms])
    u, s, vt = np.linalg.svd(A)
    if len(s) > 2 and s[2] > tol * max(1.0, s[0]):
        return None
    x = A @ vt[0]
    y = A @ vt[1] if len(vt) > 1 else np.zeros(len(A))
    ang = np.mod(np.arctan2(y, x), np.pi)
    ang[np.abs(ang - np.pi) < 1e-12] = 0.0
    return np.sort(ang)


def _reference_coplanar_same_purity(sub):
    eta = realizer._unbiased_purity(sub)
    angles = None if eta is None else _reference_coplanar_line_angles(sub)
    if angles is None:
        return None
    gaps = np.append(np.diff(angles), np.pi - (angles[-1] - angles[0]))
    if np.max(np.abs(gaps - np.pi / len(sub))) <= 1e-9:
        return planar_symmetric_nwise(len(sub), eta)
    bound = realizer.coplanar_chain_bound(angles[1:] - angles[0])
    return realizer._verdict(bound - eta, realizer.SUFFICIENT_ONLY, "coplanar-chain")


def _cyclic_gaps(angles) -> list:
    angles = [float(a) for a in angles]
    return [b - a for a, b in zip(angles, angles[1:])] + [math.pi - (angles[-1] - angles[0])]


def _same_cycle(g, h, tol) -> bool:
    """g equals h up to a cyclic shift and a reversal, within tol."""
    turns = [h[k:] + h[:k] for k in range(len(h))]
    turns += [t[::-1] for t in turns]
    return any(max(abs(a - b) for a, b in zip(g, t)) <= tol for t in turns)


# The float kernel may call a set non-coplanar that the SVD calls coplanar
# only when s[2], the SVD's third singular value, lies in a band below the
# SVD's threshold 1e-9 * max(1, s[0]): down to 1e-11 * max(1, longest
# length). |A n| exceeds s[2] by a factor that grows with N and with how
# close all vectors lie to the longest one's line, and s[0] can reach
# sqrt(N) times the longest length.
BAND_BELOW = 100.0


def _in_coplanar_band(povms, tol=1e-9) -> bool:
    s = np.linalg.svd(np.array([p.bloch for p in povms]), compute_uv=False)
    longest = max(p.eta for p in povms)
    return len(s) > 2 and tol * max(1.0, longest) / BAND_BELOW < s[2] <= tol * max(1.0, s[0])


def _vector_sets(kind, n, seed):
    rng = np.random.default_rng(seed)
    R = random_orthogonal(rng)
    lengths = rng.uniform(0.1, 1.0, n) if rng.random() < 0.5 else np.full(n, rng.uniform(0.1, 1.0))
    if kind == "planar-family":
        theta = np.arange(n) * np.pi / n + rng.uniform(0, np.pi)
        theta += np.pi * rng.integers(0, 2, n)  # antiparallel members
        lengths = np.full(n, lengths[0])
    else:
        theta = rng.uniform(0, 2 * np.pi, n)
    V = np.column_stack([lengths * np.cos(theta), lengths * np.sin(theta), np.zeros(n)])
    if kind == "collinear":
        V = np.outer(rng.uniform(-1.0, 1.0, n), rng.normal(size=3))
    elif kind == "off-plane":
        V[:, 2] = 10.0 ** rng.uniform(-14, -2) * rng.normal(size=n)
    elif kind == "zero-vectors":
        V[rng.random(n) < 0.5] = 0.0
    elif kind == "antiparallel":
        V[n // 2:] = -V[: n - n // 2][::-1] * rng.uniform(0.5, 1.0)
    return [BinaryQubitPovm(0.0, R @ v) for v in V]


KINDS = ["coplanar", "planar-family", "collinear", "off-plane", "zero-vectors", "antiparallel"]


@settings(max_examples=400)
@given(st.sampled_from(KINDS), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_coplanar_line_angles_match_svd_reference(kind, n, seed):
    povms = _vector_sets(kind, n, seed)
    got = realizer._coplanar_line_angles(povms)
    ref = _reference_coplanar_line_angles(povms)
    if ref is None:
        assert got is None  # the float test is never looser
        return
    if _in_coplanar_band(povms):
        return
    assert got is not None
    assert got == sorted(got) and all(0.0 <= a < math.pi for a in got)
    if kind == "zero-vectors":
        # a zero vector has no line: each kernel puts it at angle 0 of its
        # own frame, so only the other vectors' gaps can be compared
        povms = [p for p in povms if p.eta > 0] or povms
        got = realizer._coplanar_line_angles(povms)
        ref = _reference_coplanar_line_angles(povms)
    assert _same_cycle(_cyclic_gaps(got), _cyclic_gaps(ref), 1e-12), (got, ref.tolist())


@settings(max_examples=300)
@given(st.sampled_from(KINDS), st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_coplanar_same_purity_decisions_match_svd_reference(kind, n, seed):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.3, 1.0)
    # one purity for every vector, zero vectors kept at purity 0
    povms = [
        BinaryQubitPovm(0.0, p.bloch * (eta / p.eta if p.eta else 1.0))
        for p in _vector_sets(kind, n, seed)
    ]
    got = realizer._coplanar_same_purity(povms)
    ref = _reference_coplanar_same_purity(povms)
    if _in_coplanar_band(povms):
        return
    assert (got is None) == (ref is None)
    if got is not None:
        assert (got.decision, got.criterion_id) == (ref.decision, ref.criterion_id)
        assert abs(got.margin - ref.margin) <= 1e-12


# ---------------------------------------------------------------------------
# the closed-form decider's shape branches: by subset shape, the REGISTRY
# functions it asks before the chain. Every function it leaves out for a
# shape returns None on such a subset or comes after an iff criterion that
# answers it, so the decider returns what a scan of the whole REGISTRY
# returns.

ASKED_BY_SHAPE = {
    "pair": {realizer._pair_general},
    "unbiased triple": {realizer._triple_anchor, realizer._triple_ft},
    "unbiased": {realizer._coplanar_same_purity, realizer._n_wise},  # four or more
    "biased": set(),  # three or more
}


def _shape(sub) -> str:
    if len(sub) == 2:
        return "pair"
    if not all(p.is_unbiased for p in sub):
        return "biased"
    return "unbiased triple" if len(sub) == 3 else "unbiased"


# sets the unbiased-only criteria apply to until one POVM carries a bias: one
# purity, coplanar or not, some biases just past the unbiased tolerance
_dispatch_sets = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, 0.0, 2e-12, -2e-12, 0.05, -0.2]), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.floats(0.3, 0.75),
        st.booleans(),
    )
)


def _dispatch_povms(case) -> list:
    biases, angles, heights, eta, coplanar = case
    povms = []
    for b, a, h in zip(biases, angles, heights):
        v = np.array([math.cos(a), math.sin(a), 0.0 if coplanar else h])
        povms.append(BinaryQubitPovm(b, eta * v / np.linalg.norm(v)))
    return povms


@settings(max_examples=200)
@given(_dispatch_sets)
def test_unbiased_only_registry_functions_skip_biased_subsets(case):
    povms = _dispatch_povms(case)
    unbiased = [BinaryQubitPovm(0.0, p.bloch) for p in povms]
    for size in range(2, len(povms) + 1):
        for combo in itertools.combinations(range(len(povms)), size):
            sub = [povms[i] for i in combo]
            if all(p.is_unbiased for p in sub):
                continue
            # the functions the decider leaves out for this shape, but the chain
            skipped = set(realizer.REGISTRY.values()) - {realizer._biased_chain}
            skipped -= ASKED_BY_SHAPE[_shape(sub)]
            for f in skipped:
                assert f(sub) is None, (f.__name__, [p.bias for p in sub])
            if size <= 3:
                # with the biases dropped, pair-unbiased or triple-ft applies
                plain = [unbiased[i] for i in combo]
                assert any(f(plain) is not None for f in skipped)


@settings(max_examples=100)
@given(_dispatch_sets)
def test_closed_form_decider_matches_the_full_registry_walk(case):
    # the walk the decider took before its dispatch: every REGISTRY function in
    # order on every subset, then the chain
    povms = _dispatch_povms(case)
    walk = tuple(dict.fromkeys(realizer.REGISTRY.values()))
    decide = closed_form_decider(povms)
    for size in range(2, len(povms) + 1):
        for combo in itertools.combinations(range(1, len(povms) + 1), size):
            sub = [povms[i - 1] for i in combo]
            for f in walk:
                ref = f(sub)
                if ref is not None and (ref.decision != UNKNOWN or ref.strength == "iff"):
                    break
            v = decide(combo)
            assert (v.decision, v.criterion_id) == (ref.decision, ref.criterion_id), combo
            if v.decision != UNKNOWN:  # an Unknown chain verdict may be inherited
                assert v.margin == ref.margin


def _registry_scan(povms):
    """The closed-form decider without its shape branches: each REGISTRY
    function once, in REGISTRY order, skipping None and stopping at a verdict
    that decides or is iff, the chain last. The chain step inherits a
    one-smaller subset's Unknown chain verdict, as the decider's does, and an
    unbiased triple that fails all three chain orders by the guard is
    recorded with its triple_chain_failure verdict. Returns decide(combo) -> (verdict, the
    functions asked before the chain)."""
    functions = list(dict.fromkeys(realizer.REGISTRY.values()))
    chain = functions.pop()
    assert chain is realizer._biased_chain
    failed = {}

    def decide(combo):
        sub = [povms[i - 1] for i in combo]
        triple = triple_chain_failure(sub)
        if triple is not None:
            failed[combo] = triple
        for k, f in enumerate(functions):
            v = f(sub)
            if v is not None and (v.decision != UNKNOWN or v.strength == IFF):
                return v, functions[: k + 1]
        smaller = [combo[:j] + combo[j + 1:] for j in range(len(combo))] if len(combo) >= 4 else []
        v = next((failed[s] for s in smaller if s in failed), None) or chain(sub)
        if v.decision == UNKNOWN:
            failed[combo] = v
        return v, functions

    return decide


def _check_decider_against_registry_scan(povms) -> int:
    """Every subset of two or more, level by level: the decider's verdict is
    the scan's, bit for bit (equal reprs), and each function the scan asked
    that the decider leaves out for the subset's shape returned None."""
    decide, scan = closed_form_decider(povms), _registry_scan(povms)
    count = 0
    for size in range(2, len(povms) + 1):
        for combo in itertools.combinations(range(1, len(povms) + 1), size):
            sub = [povms[i - 1] for i in combo]
            ref, asked = scan(combo)
            assert repr(decide(combo)) == repr(ref), combo
            listed = ASKED_BY_SHAPE[_shape(sub)]
            for f in asked:
                if f not in listed:
                    assert f(sub) is None, (f.__name__, combo)
            count += 1
    return count


def test_triple_chain_failure_follows_the_chains_outcome_flips():
    # three POVMs at 120 degrees, purity 0.6, unbiased within 1e-12: their
    # three chain orders all fail (f(v_i) = 5.36), but the chain flips POVM 1,
    # whose bias is negative, and then the order through -a_1 costs
    # f(v0) = 3.6. A fourth POVM on the segment a_2 -> -a_1 lengthens no
    # path, so the four pass the chain, and the triple must pass nothing on
    a = [(0.6 * math.cos(t), 0.6 * math.sin(t), 0.0) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    middle = tuple((x - y) / 2 for x, y in zip(a[1], a[0]))
    povms = [BinaryQubitPovm(b, v) for b, v in zip((-1e-13, 1e-13, 1e-13, 1e-13), a + [middle])]
    decide = closed_form_decider(povms)
    for combo in itertools.combinations(range(1, 5), 3):
        decide(combo)
    v = decide((1, 2, 3, 4))
    assert v == realizer.best_chain_ordering(povms)[1]
    assert (v.decision, v.criterion_id) == (COMPATIBLE, "biased-chain")


def test_decider_scores_seven_povms_by_the_stable_chain_order(monkeypatch):
    # best_chain_ordering searches orders for up to six POVMs; seven go to
    # general_binary_sufficient, which no benchmark task reaches
    v = np.random.default_rng(0).normal(size=(7, 3))
    povms = [BinaryQubitPovm(0.05 + 0.01 * k, 0.1 * v[k] / np.linalg.norm(v[k])) for k in range(7)]
    asked = []
    stable = realizer.general_binary_sufficient
    monkeypatch.setattr(realizer, "general_binary_sufficient", lambda sub: asked.append(len(sub)) or stable(sub))
    decide = closed_form_decider(povms)
    struct = structure_of(povms, decide)
    assert struct.maximal == {frozenset(range(1, 8))} and not struct.undecided
    assert asked == [7]
    v = decide(tuple(range(1, 8)))
    assert v == stable(povms) and (v.decision, v.criterion_id) == (COMPATIBLE, "biased-chain")


def test_decider_table_matches_the_registry_scan_on_the_golden_pool():
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "decide_golden.json"
    sets = json.loads(golden.read_text())["sets"]
    assert len(sets) == 240
    count = sum(_check_decider_against_registry_scan(povms_from_json_dict(e)) for e in sets)
    assert count == sum(2 ** len(e["povms"]) - len(e["povms"]) - 1 for e in sets)


# 2-7 POVMs, biased and unbiased mixed: purities shared or not, Bloch vectors
# coplanar or not, so that every shape and every criterion comes up
_mixed_sets = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, 0.0, 0.0, 2e-12, -2e-12, 0.05, -0.2]), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.floats(0.3, 0.75)), min_size=n, max_size=n),
        st.floats(0.3, 0.75),
        st.booleans(),
    )
)


@settings(max_examples=100)
@given(_mixed_sets)
def test_decider_table_matches_the_registry_scan_on_mixed_sets(case):
    biases, angles, heights, own_etas, eta, coplanar = case
    povms = []
    for b, a, h, own in zip(biases, angles, heights, own_etas):
        v = np.array([math.cos(a), math.sin(a), 0.0 if coplanar else h])
        povms.append(BinaryQubitPovm(b, (eta if own is None else own) * v / np.linalg.norm(v)))
    _check_decider_against_registry_scan(povms)
