import contextlib
import copy
import functools
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmqubit import (
    JmStructure,
    JointPovm,
    RealizationCertificate,
    n_cycle,
    povms_from_json_dict,
    povms_to_json_dict,
    realize_n_cycle,
)
from jmqubit import cli, realizer
from jmqubit.cli import main, parse_angle

DATA = Path(__file__).parent / "data"
# the stored certificates; data/oracle_runs.json holds oracle answers
CERTIFICATES = sorted(p for p in DATA.glob("*.json") if p.name != "oracle_runs.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_povms(tmp_path, povms, name="povms.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"povms": povms}))
    return str(path)


def test_parse_angle_suffixes():
    assert parse_angle("90deg") == pytest.approx(math.pi / 2)
    assert parse_angle("1.5rad") == pytest.approx(1.5)
    assert parse_angle("0.25") == pytest.approx(0.25)
    from jmqubit.cli import CliError

    with pytest.raises(CliError):
        parse_angle("abc")


def test_bounds_planar_symmetric_table(capsys):
    code, out, err = run(capsys, "bounds", "--family", "planar-symmetric", "--n", "3..8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,bound"
    row4 = [l for l in lines if l.startswith("planar-symmetric,4,")][0]
    assert float(row4.split(",")[2]) == pytest.approx(0.6532814824381883, abs=1e-15)


def test_bounds_pair_angle(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "pair-angle", "--angle", "90deg")
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert value == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "planar-symmetric", "--n", "0"],
        ["--family", "planar-symmetric", "--n=-1"],
        ["--family", "n-cycle", "--n", "9..3"],
        ["--family", "pair-angle", "--angle", "nan"],
    ],
    ids=["n-zero", "n-negative", "n-empty-range", "angle-nan"],
)
def test_bounds_rejects_bad_input_exits_65(capsys, args):
    code, out, err = run(capsys, "bounds", *args)
    assert code == 65
    assert out == "" and err.startswith("error: ")


def test_main_dispatches_by_name_at_call_time(tmp_path, capsys, monkeypatch):
    path = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.5, 0, 0]}])
    assert run(capsys, "check", path)[0] == 0  # the parser now exists
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.input) or 0)
    assert run(capsys, "check", path) == (0, "", "")
    assert seen == [path]


def test_no_state_carries_across_parses(tmp_path, capsys, monkeypatch):
    for _ in range(2):
        code, out, _ = run(capsys, "bounds", "--family", "pair-angle", "--angle", "30deg")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header and one row
    path = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.5, 0, 0]}])
    modes = []
    real = cli._decider_for_mode
    monkeypatch.setattr(
        cli, "_decider_for_mode", lambda povms, mode: modes.append(mode) or real(povms, mode)
    )
    assert run(capsys, "check", "--mode", "oracle", path)[0] == 0
    assert run(capsys, "check", path)[0] == 0
    assert modes == ["oracle", "closed-form"]


def test_check_single_povm_trivially_compatible(tmp_path, capsys):
    path = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.5, 0, 0]}])
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["structure"]["maximal"] == [[1]]


def test_check_reports_verdicts(tmp_path, capsys):
    path = write_povms(
        tmp_path,
        [
            {"bias": 0.0, "bloch": [0.9, 0, 0]},
            {"bias": 0.0, "bloch": [0, 0.9, 0]},
        ],
    )
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    payload = json.loads(out)
    [entry] = payload["incompatible"]
    assert entry["subset"] == [1, 2]
    assert entry["criterion"] == "pair-general"
    assert entry["margin"] < 0


def test_check_lists_minimal_incompatible_sets_of_24_cycle(tmp_path, capsys):
    cert = realize_n_cycle(24)
    path = write_povms(tmp_path, povms_to_json_dict(cert.povms)["povms"])
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    payload = json.loads(out)
    assert JmStructure.from_json_dict(payload["structure"]) == n_cycle(24)
    assert payload["undecided"] == []
    non_adjacent = sorted(
        [i, j] for i in range(1, 25) for j in range(i + 1, 25) if j - i not in (1, 23)
    )
    assert len(non_adjacent) == 252
    assert sorted(e["subset"] for e in payload["incompatible"]) == non_adjacent
    assert all(e["margin"] < 0 for e in payload["incompatible"])


def test_check_unknown_exits_3(tmp_path, capsys):
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    path = write_povms(
        tmp_path,
        [{"bias": 0.0, "bloch": list(0.56 * d)} for d in dirs],
    )
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    assert json.loads(out)["undecided"] == [[1, 2, 3, 4]]


def test_check_both_settles_golden_set_with_finite_margins(tmp_path, capsys):
    # mixed-purity-6-06 left {1, 3, 4, 5} to an oracle run that ended at
    # max_iter; a Newton-settled verdict must not print an infinite margin,
    # which is not JSON
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "decide_golden.json"
    entry = next(s for s in json.loads(golden.read_text())["sets"] if s["id"] == "mixed-purity-6-06")
    path = write_povms(tmp_path, entry["povms"])
    code, out, _ = run(capsys, "check", path, "--mode", "both")

    def no_constant(name):
        raise ValueError(f"non-finite number {name} in check output")

    payload = json.loads(out, parse_constant=no_constant)
    assert code == 0 and payload["undecided"] == []
    assert [1, 3, 4, 5] in [e["subset"] for e in payload["incompatible"] if e["criterion"] == "oracle"]


def test_check_oracle_mode_resolves_unknown(tmp_path, capsys):
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    path = write_povms(
        tmp_path,
        [{"bias": 0.0, "bloch": list(0.56 * d)} for d in dirs],
    )
    code, out, _ = run(capsys, "check", path, "--mode", "both")
    assert code == 0
    assert json.loads(out)["undecided"] == []


def test_malformed_json_exits_64(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 64
    assert "malformed" in err


@pytest.mark.parametrize(
    "povm",
    [
        {"bias": 0.9, "bloch": [0.9, 0, 0]},  # |b| > 1 - |a|: not a POVM
        {"bias": float("nan"), "bloch": [0.5, 0, 0]},
        {"bias": 0.0, "bloch": [float("inf"), 0, 0]},
    ],
)
def test_check_rejects_invalid_povm_exits_65(tmp_path, capsys, povm):
    path = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0, 0.5, 0]}, povm])
    code, out, err = run(capsys, "check", path)
    assert code == 65
    assert out == ""
    assert err.startswith("error:")


def test_joint_chain_roundtrip(tmp_path, capsys):
    path = write_povms(
        tmp_path,
        [
            {"bias": 0.1, "bloch": [0.5, 0, 0]},
            {"bias": -0.05, "bloch": [0, 0.4, 0]},
        ],
    )
    code, out, _ = run(capsys, "joint", path)
    assert code == 0
    joint = JointPovm.from_json_dict(json.loads(out))
    povms = povms_from_json_dict(json.loads((tmp_path / "povms.json").read_text()))
    for k, p in enumerate(povms, start=1):
        m = joint.marginal_povm(k)
        assert abs(m.bias - p.bias) < 1e-12
        assert np.max(np.abs(m.bloch - p.bloch)) < 1e-12


def test_joint_oracle_witness_reloads(tmp_path, capsys):
    # the pair CI runs: the joint written with --out loads back through
    # JointPovm.from_json_dict at its default tolerance, EPS_MARG
    path = write_povms(
        tmp_path,
        [{"bias": 0.0, "bloch": [0.6, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.6, 0]}],
    )
    out_path = tmp_path / "joint.json"
    code, _, err = run(capsys, "joint", path, "--constructor", "oracle", "--out", str(out_path))
    assert code == 0
    assert "Newton step(s)" in err and "after 0 iterations" not in err
    joint = JointPovm.from_json_dict(json.loads(out_path.read_text()))
    povms = povms_from_json_dict(json.loads((tmp_path / "povms.json").read_text()))
    assert joint.marginal_error(povms) < 1e-12


def test_joint_chain_violation_exits_65(tmp_path, capsys):
    path = write_povms(
        tmp_path,
        [
            {"bias": 0.0, "bloch": [0.9, 0, 0]},
            {"bias": 0.0, "bloch": [0, 0.9, 0]},
        ],
    )
    code, _, err = run(capsys, "joint", path)
    assert code == 65


def test_realize_verify_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "realize", "--structure", "n-specker", "--n", "5")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out2, err = run(capsys, "verify", str(cert_path), "--mode", "both")
    assert code == 0
    assert json.loads(out2)["ok"] is True


def test_verify_oracle_mode_without_duals_is_inconclusive(tmp_path, capsys, monkeypatch):
    from jmqubit import OracleParams, oracle

    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "4")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    # no Farkas dual can be found: with the Newton polish and the checkpoints
    # off, every incompatible pair runs to max_iter, bounded here to keep the
    # test short
    params = OracleParams(max_iter=1000)
    decide = oracle.decide
    monkeypatch.setattr(oracle._AffineProjector, "polish", lambda *args: None)
    monkeypatch.setattr(oracle, "DUAL_EVERY", params.max_iter + 1)
    monkeypatch.setattr(oracle, "decide", lambda povms: decide(povms, params))
    code, out, _ = run(capsys, "verify", str(cert_path), "--mode", "oracle")
    assert code == 3
    report = json.loads(out)
    assert report["ok"] is True and report["issues"] == []
    cert = RealizationCertificate.from_json_dict(json.loads(cert_path.read_text()))
    assert report["inconclusive"] == [
        f"oracle inconclusive on {list(e.subset)}: no checked Farkas dual after "
        "1000 of max_iter = 1000 Dykstra iterations and 0 Newton steps"
        for e in cert.incompatible
    ]


def test_realize_four_vertex_variants(capsys):
    for extra in ([], ["--variant", "non-coplanar"]):
        code, out, _ = run(capsys, "realize", "--structure", "four-vertex-6", *extra)
        assert code == 0
        cert = RealizationCertificate.from_json_dict(json.loads(out))
        assert cert.claimed.sorted_maximal() == [[1, 2], [1, 3], [1, 4]]


def test_realize_bad_eta_exits_65(capsys):
    code, _, err = run(
        capsys, "realize", "--structure", "n-cycle", "--n", "4", "--eta", "0.99"
    )
    assert code == 65


def test_realize_unknown_structure_exits_65(capsys):
    code, _, err = run(capsys, "realize", "--structure", "nonsense")
    assert code == 65
    assert "known" in err


@pytest.mark.parametrize("family", sorted(cli.REALIZE_N_CAP))
def test_realize_n_cap(tmp_path, capsys, family):
    cap = cli.REALIZE_N_CAP[family]
    out = tmp_path / "cert.json"
    code, _, _ = run(capsys, "realize", "--structure", family, "--n", str(cap), "--out", str(out))
    assert code == 0 and json.loads(out.read_text())["label"] == f"{cap}-{family[2:]}"
    code, out, err = run(capsys, "realize", "--structure", family, "--n", str(cap + 1))
    assert code == 65 and out == ""
    assert f"cap of {cap}" in err
    with pytest.raises(SystemExit):
        main(["realize", "--help"])
    assert f"{family} (at most {cap})" in " ".join(capsys.readouterr().out.split())


def test_verify_failure_exits_2(tmp_path, capsys):
    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "4")
    d = json.loads(out)
    d["structure"]["maximal"] = [[1, 2, 3, 4]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(d))
    code, out2, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert json.loads(out2)["ok"] is False


def _set_incompat_subset(subset):
    def tamper(d):
        d["evidence"]["incompatible"][0]["subset"] = subset

    return tamper


def _set_povm(d):
    d["povms"][0] = {"bias": 0.9, "bloch": [0.9, 0, 0]}  # |b| > 1 - |a|: not a POVM


def _set_structure_n(d):
    d["structure"]["n"] = 6  # six vertices for four POVMs


def _shrink_joint(d):
    e = d["evidence"]["compatible"][0]
    e["subset"] = e["subset"] + [3]  # a 3-element subset with a 2-element joint


def _nan_witness(d):
    e = d["evidence"]["compatible"][0]
    for entry in e["joint"]["effects"].values():
        entry["alpha"] = math.nan
    # a matching digest, so only the finiteness check stands in the way
    e["digest"] = hashlib.sha256(json.dumps(e["joint"], sort_keys=True).encode()).hexdigest()


def _duplicate_mask(d):
    effects = d["evidence"]["compatible"][0]["joint"]["effects"]
    key = next(iter(effects))
    effects["0" + key] = effects[key]  # the same outcome mask under a second key


def _effects_list(d):
    joint = d["evidence"]["compatible"][0]["joint"]
    joint["effects"] = list(joint["effects"].values())  # an array, not an object of masks


@pytest.mark.parametrize(
    "tamper",
    [
        _set_incompat_subset([2, 9]),  # index beyond n = 4
        _set_incompat_subset([0, 2]),  # index 0 would read the last POVM
        _set_incompat_subset([2, 2]),
        _set_incompat_subset([1.0, 3]),
        _set_povm,
        _shrink_joint,
        _set_structure_n,
        _nan_witness,
        _duplicate_mask,
        _effects_list,
    ],
    ids=[
        "index-high", "index-zero", "duplicate", "non-integer", "invalid-povm", "joint-size",
        "structure-n", "nan-witness", "duplicate-mask", "effects-list",
    ],
)
def test_verify_rejects_malformed_certificate_exits_65(tmp_path, capsys, tamper):
    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "4")
    d = json.loads(out)
    tamper(d)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 65
    assert out == ""
    assert err.startswith("error: bad certificate schema")


@pytest.mark.parametrize("name", ["5-cycle.json", "5-specker.json"])
def test_certificates_written_by_earlier_versions_still_verify(capsys, name):
    # written by `jmqubit realize` before joints were stored as mask and row arrays
    path = Path(__file__).parent / "data" / name
    d = json.loads(path.read_text())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["ok"]
    again = RealizationCertificate.from_json_dict(d).to_json_dict()
    assert json.dumps(again, sort_keys=True) == json.dumps(d, sort_keys=True)


def test_atlas_builds_each_certificate_once(tmp_path, capsys, monkeypatch):
    from jmqubit import realizer

    calls = []
    build = realizer.realize_four_vertex
    monkeypatch.setattr(
        realizer, "realize_four_vertex", lambda *a, **k: calls.append(a) or build(*a, **k)
    )
    code, _, _ = run(capsys, "atlas", "--out", str(tmp_path / "atlas"))
    assert code == 0
    assert len(calls) == 21


def test_atlas_writes_certificates(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    code, out, _ = run(capsys, "atlas", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["entries"]) == 20
    files = sorted(p.name for p in out_dir.iterdir())
    assert "four-vertex-6-mixed-purity.json" in files
    assert "four-vertex-6-non-coplanar.json" in files
    assert len(files) == 22  # manifest + 19 planar + 2 special


def test_stdout_json_reparses_bit_exact(capsys):
    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "5")
    cert = RealizationCertificate.from_json_dict(json.loads(out))
    assert json.dumps(cert.to_json_dict(), sort_keys=True) == json.dumps(
        json.loads(out), sort_keys=True
    )


# ---------------------------------------------------------------------------
# schema-level fuzzing of the loaders: one JSON node replaced by a value of
# another type must end in a documented exit code, never in a traceback

DOCUMENTED_EXITS = {0, 2, 3, 64, 65}


@functools.lru_cache(maxsize=None)
def _valid_documents() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["realize", "--structure", "n-cycle", "--n", "5"]) == 0
    cert = json.loads(out.getvalue())
    return {"verify": cert, "check": {"povms": cert["povms"]}}


def _node_paths(node, path=()) -> list:
    """The key path of every node of a JSON document, the root included."""
    paths = [path]
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            paths += _node_paths(child, path + (key,))
    return paths


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_json_values = st.one_of(
    _scalars,
    st.sampled_from([math.nan, 1e308, -1e308, math.inf, -math.inf, 10**400, "1", "nan"]),
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=2),
)


@settings(max_examples=150)
@given(data=st.data())
@pytest.mark.parametrize("command", ["verify", "check"])
def test_loaders_survive_schema_fuzzing(tmp_path_factory, command, data):
    doc = _valid_documents()[command]
    path = data.draw(st.sampled_from(_node_paths(doc)), label="path")
    value = data.draw(_json_values, label="value")
    target = tmp_path_factory.getbasetemp() / f"fuzz-{command}.json"
    target.write_text(json.dumps(_replaced(doc, path, value)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(target)])
    assert code in DOCUMENTED_EXITS


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(indent=2, sort_keys=True), byte for byte

_keys = st.one_of(st.text(max_size=4), st.sampled_from(["é", '"\n\\', " ", "\x00", "\U0001f600", ""]))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).map(lambda i: i * (-1) ** (i % 2)),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(max_size=6),
    _keys,
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
        # flat lists of numbers, some with a bool among them
        st.lists(st.one_of(st.integers(), st.floats(), st.booleans()), max_size=6),
        st.lists(st.floats(), max_size=6).map(tuple),
        # keys json.dumps converts itself
        st.dictionaries(st.integers(-9, 9), kids, max_size=3),
    ),
    max_leaves=40,
)


@settings(max_examples=300)
@given(_trees)
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_rejects_what_json_dumps_rejects():
    for bad in ({"a": [object()]}, {1: 2, "a": 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._dumps(bad)


@pytest.fixture
def checked_dumps(monkeypatch):
    """cli._dumps, checked against json.dumps on every payload it writes."""
    texts = []
    dumps = cli._dumps

    def checked(payload):
        text = dumps(payload)
        assert text == json.dumps(payload, indent=2, sort_keys=True)
        texts.append(text)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)
    return texts


NAMED_REALIZE = (
    [["--structure", "n-cycle", "--n", str(n)] for n in (3, 5, 12)]
    + [["--structure", "n-specker", "--n", str(n)] for n in (3, 5, 8)]
    + [["--structure", f"four-vertex-{i}"] for i in realizer.ATLAS_IDS]
    + [["--structure", "four-vertex-6", "--variant", "non-coplanar"]]
    + [["--structure", name] for name in sorted(realizer.MISC_SCENARIOS)]
)


@pytest.mark.parametrize("argv", NAMED_REALIZE, ids=lambda a: "-".join(a[1::2]))
def test_dumps_writes_realize_payloads(capsys, checked_dumps, argv):
    code, out, _ = run(capsys, "realize", *argv)
    assert code == 0 and checked_dumps == [out[:-1]]


def test_dumps_writes_atlas_and_data_payloads(tmp_path, capsys, checked_dumps):
    code, out, _ = run(capsys, "atlas", "--out", str(tmp_path))
    assert code == 0 and len(checked_dumps) == 23  # manifest, 21 certificates, stdout
    for path in tmp_path.iterdir():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    for path in CERTIFICATES:
        for command in ("check", "verify"):
            code, out, _ = run(capsys, command, str(path))
            assert code == 0 and checked_dumps[-1] == out[:-1]
    assert len(checked_dumps) == 23 + 2 * len(CERTIFICATES)
