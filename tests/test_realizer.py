import dataclasses
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
from jmqubit.criteria import pair_unbiased, planar_symmetric_nwise
from jmqubit.realizer import (
    MISC_SCENARIOS,
    UNDECIDED_INTERVAL_N5,
    joint_digest,
    mixed_purity_povms,
    non_coplanar_povms,
)
from conftest import random_orthogonal


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
    povms = mixed_purity_povms()
    assert povms[3].eta == pytest.approx(1.0)
    for p in povms[:3]:
        assert p.eta == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
    # E2 and E3 sit symmetrically about E1
    assert povms[1].bloch[1] == pytest.approx(-povms[2].bloch[1], abs=1e-15)


def test_non_coplanar_recipe_geometry():
    povms = non_coplanar_povms()
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
    compat = (dataclasses.replace(cert.compatible[0], subset=(1, 3)),) + cert.compatible[1:]
    incompat = (dataclasses.replace(cert.incompatible[0], subset=(1, 2)),) + cert.incompatible[1:]
    for tampered, claim in (
        (dataclasses.replace(cert, compatible=compat), "compatibility of [1, 3]"),
        (dataclasses.replace(cert, incompatible=incompat), "incompatibility of [1, 2]"),
    ):
        rep = verify_certificate(tampered, "oracle")
        assert not rep.ok
        assert rep.issues == (f"oracle contradicts {claim}",)
        assert not rep.inconclusive


def test_atlas_manifest_shape():
    manifest = atlas_manifest()
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
        for path in sorted((Path(__file__).parent / "data").glob("*.json"))
        if path.name != "oracle_runs.json"  # oracle answers, not a certificate
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
