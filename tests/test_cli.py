import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jmqubit import (
    JmStructure,
    JointPovm,
    RealizationCertificate,
    n_cycle,
    pair_same_purity_bound,
    povms_from_json_dict,
    povms_to_json_dict,
    realize_n_cycle,
)
from jmqubit import cli, realizer
from jmqubit.cli import main, parse_angle
from jmqubit.povm import EPS_MARG

DATA = Path(__file__).parent / "data"
# the stored certificates that verify; data/oracle_runs.json holds oracle
# answers, and data/near-*-triple-ft.json certificates verify rejects
CERTIFICATES = sorted(DATA.glob("5-*.json"))


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
    "angles",
    [["--angle", "-30deg"], ["--angle=-30deg"], ["--angle", "-1e-1"],
     ["--angle", "-30deg", "--angle=10deg", "--angle", "-1e-1"]],
    ids=["split", "joined", "split-exponent", "repeated"],
)
def test_bounds_pair_angle_takes_negative_angles(capsys, angles):
    # argparse reads -30deg after --angle as an option unless main joins them
    code, out, err = run(capsys, "bounds", "--family", "pair-angle", *angles)
    texts = [a.partition("=")[2] or a for a in angles if a != "--angle"]
    rows = [f"pair-angle,{phi!r},{pair_same_purity_bound(phi)!r}" for phi in map(parse_angle, texts)]
    assert (code, out) == (0, "\n".join(["family,angle_radians,bound", *rows]) + "\n")
    assert err == f"bounds: {len(rows)} row(s) for family pair-angle\n"


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


# main hands the arguments after a subcommand's name to that subcommand's
# parser: the Namespace must be the one the top-level parser gives. Each
# subcommand with its defaults, every option, and - as its input.
_ARGVS = [
    ["check"],
    ["check", "-"],
    ["check", "p.json", "--mode", "both", "--out", "o.json"],
    ["check", "--mode=oracle", "-"],
    ["joint"],
    ["joint", "-", "--constructor", "oracle", "--out", "j.json"],
    ["realize", "--structure", "n-cycle"],
    ["realize", "--structure", "four-vertex-6", "--n", "5", "--eta", "0.7",
     "--variant", "non-coplanar", "--out", "c.json"],
    ["verify"],
    ["verify", "-", "--mode", "both", "--out", "r.json"],
    ["verify", "c.json", "--mode", "oracle"],
    ["atlas"],
    ["atlas", "--out", "dir"],
    ["bounds", "--family", "pair-angle"],
    ["bounds", "--family", "planar-symmetric", "--n", "3..8", "--out", "b.csv"],
    ["bounds", "--family=pair-angle", "--angle", "30deg", "--angle", "1rad"],
]


@pytest.mark.parametrize("argv", _ARGVS, ids=[" ".join(a) for a in _ARGVS])
def test_main_parses_as_the_top_level_parser(monkeypatch, argv):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 0)
    assert main(list(argv)) == 0
    top_level, _ = cli.build_parser()
    [args] = seen
    assert args == top_level.parse_args(argv)
    assert args.command == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--bogus", "x.json"],
        ["bogus"],
        [],
        ["--bogus"],
        ["realize", "--structure", "n-cycle", "--n", "abc"],
        ["check", "--mode", "nope"],
        ["bounds"],  # --family is required
        ["check", "a.json", "b.json"],
        ["bounds", "--family", "pair-angle", "--angle", "--angle=1rad"],
        ["realize", "--structure", "n-cycle", "--n", "5", "--eta", "--out", "c.json"],
    ],
    ids=["unknown-flag", "unknown-subcommand", "no-subcommand", "top-level-flag",
         "n-not-int", "bad-choice", "missing-required", "extra-argument",
         "angle-without-value", "eta-without-value"],
)
def test_usage_errors_exit_64(capsys, argv):
    # 64 is sysexits' EX_USAGE; argparse's own 2 is the code of a failed verify
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: jmqubit") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["bounds", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jmqubit")


def test_usage_error_exits_64_as_a_process():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["check", "--bogus", "x.json"], ["bogus"]):
        done = subprocess.run(
            [sys.executable, "-m", "jmqubit.cli", *argv],
            capture_output=True, env=env, text=True, timeout=120,
        )
        assert done.returncode == 64, done.stderr
        assert done.stdout == "" and "Traceback" not in done.stderr


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


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "POVM set must be a JSON object, got an array"),
        ({"povms": "ab"}, 'POVM set field "povms" must be an array of objects, got a string'),
        ({"povms": {}}, 'POVM set field "povms" must be an array of objects, got an object'),
        ({"povms": [{"bias": 0.0, "bloch": [0.5, 0, 0]}, 7]}, 'POVM set field "povms" must be an array of objects; POVM 2 is a number'),
        ({}, 'missing field "povms"'),
        ({"povms": [{"bloch": [0.5, 0, 0]}]}, 'missing field "bias"'),
    ],
    ids=["array", "povms-string", "povms-object", "povm-number", "no-povms", "no-bias"],
)
def test_check_rejects_misshapen_povm_set_exits_65(tmp_path, capsys, doc, message):
    path = tmp_path / "povms.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (65, "", f"error: bad POVM-set schema: {message}\n")


@pytest.mark.parametrize("command", ["check", "verify"])
def test_povm_outside_bias_bound_exits_65_naming_it(tmp_path, capsys, command):
    # |b| + |a| = 0.3 + 0.8 > 1: the effect E(+1) has eigenvalue (1.3 + 0.8)/2 > 1
    bad = {"bias": 0.3, "bloch": [0.0, 0.8, 0.0]}
    if command == "check":
        good = [{"bias": 0.0, "bloch": [0.5, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.5, 0]}]
        path = write_povms(tmp_path, [*good, bad])
    else:
        _, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "4")
        d = json.loads(out)
        d["povms"][2] = bad
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(d))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (65, "")
    # a value out of range, not a schema fault
    assert err.startswith("error: POVM 3 is not a valid POVM") and "bias-bound |b| <= 1-|a|" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "povm, field",
    [
        ({"bias": "0.0", "bloch": [0.5, 0, 0]}, "bias"),
        ({"bias": False, "bloch": [0.5, 0, 0]}, "bias"),
        ({"bias": 0.0, "bloch": ["0.5", 0.1, 0]}, "bloch"),
        ({"bias": 0.0, "bloch": [0.5, True, 0]}, "bloch"),
        ({"bias": 0.0, "bloch": "0.5"}, "bloch"),
    ],
    ids=["bias-string", "bias-false", "bloch-string", "bloch-true", "bloch-not-array"],
)
@pytest.mark.parametrize("command", ["check", "joint"])
def test_povm_loader_rejects_strings_and_booleans_exits_65(tmp_path, capsys, povm, field, command):
    # float() reads "0.0" and False as numbers; the loader must not
    path = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0, 0.5, 0]}, povm])
    code, out, err = run(capsys, command, path)
    assert (code, out) == (65, "")
    assert err.startswith("error: bad POVM-set schema") and f"POVM {field}" in err


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


# CI's extremal triple: POVM 3 has |b| + |a| = 1, so the feasible set has no
# interior and the oracle's joint is proven within witness_tol only
EXTREMAL_TRIPLE = [
    {"bias": 0.030900336632816494, "bloch": [0.040738253257624944, -0.34680254229500473, 0.3032756139148775]},
    {"bias": 0.06146318712210597, "bloch": [0.19046651252457275, 0.036035487834820794, -0.49948717117770575]},
    {"bias": -0.3332867802368755, "bloch": [-0.30229873880472, 0.4579077328149888, -0.3787380336752896]},
]


@pytest.mark.parametrize(
    "povms, extremal",
    [(EXTREMAL_TRIPLE, True), ([{"bias": 0.0, "bloch": [0.6, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.6, 0]}], False)],
    ids=["extremal-triple", "unbiased-pair"],
)
def test_joint_oracle_states_the_tolerance_it_meets(tmp_path, capsys, povms, extremal):
    path = write_povms(tmp_path, povms)
    code, out, err = run(capsys, "joint", path, "--constructor", "oracle")
    assert code == 0
    joint = json.loads(out)
    JointPovm.from_json_dict(joint, tol=1e-8)
    steps = int(re.search(r"after (\d+) Newton", err).group(1))
    residual = float(re.search(r"PSD and marginals within (\S+?)[;\s]", err).group(1))
    assert steps >= 1
    assert (residual > EPS_MARG) == extremal
    assert ("reloads at witness_tol = 1e-08, not at EPS_MARG" in err) == extremal
    if extremal:
        with pytest.raises(ValueError):
            JointPovm.from_json_dict(joint)
    else:
        JointPovm.from_json_dict(joint)


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

    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "5")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    # one Newton step proves every compatible pair of the 5-cycle, while each
    # incompatible pair needs a second step for its Farkas dual
    params = OracleParams(max_iter=1)
    decide = oracle.decide
    monkeypatch.setattr(oracle, "decide", lambda povms: decide(povms, params))
    code, out, _ = run(capsys, "verify", str(cert_path), "--mode", "oracle")
    assert code == 3
    report = json.loads(out)
    assert report["ok"] is True and report["issues"] == []
    cert = RealizationCertificate.from_json_dict(json.loads(cert_path.read_text()))
    assert report["inconclusive"] == [
        f"oracle inconclusive on {list(e.subset)}: no checked Farkas dual after "
        "1 of max_iter = 1 Newton steps"
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


KNOWN_STRUCTURES = (
    ["n-cycle", "n-specker"] + [f"four-vertex-{i}" for i in range(1, 21)] + sorted(realizer.MISC_SCENARIOS)
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["realize", "--structure", "n-cycle", "--n", "5", "--eta", "0.1"],
            "eta 0.1 outside the window (0.7159209561595877, 0.7936044933348412]",
        ),
        (
            ["realize", "--structure", "n-cycle", "--n", "5", "--eta", "-1e-3"],
            "eta -0.001 outside the window (0.7159209561595877, 0.7936044933348412]",
        ),
        (
            ["realize", "--structure", "n-cycle", "--n", "5", "--eta=-1e-3"],
            "eta -0.001 outside the window (0.7159209561595877, 0.7936044933348412]",
        ),
        (
            ["realize", "--structure", "n-cycle", "--n", "5", "--eta", "-inf"],
            "eta -inf outside the window (0.7159209561595877, 0.7936044933348412]",
        ),
        (
            ["realize", "--structure", "four-vertex-6", "--eta", "inf"],
            "eta inf outside the window (0.7653668647301796, 0.8504300947672565]",
        ),
        (
            ["realize", "--structure", "four-vertex-6", "--eta", "nan"],
            "eta nan outside the window (0.7653668647301796, 0.8504300947672565]",
        ),
        (
            ["realize", "--structure", "four-vertex-6", "--variant", "non-coplanar", "--eta", "inf"],
            "eta inf outside the window (0.7758146081336156, 0.8164965809277261]",
        ),
        (
            ["realize", "--structure", "four-vertex-6", "--variant", "non-coplanar", "--eta", "nan"],
            "eta nan outside the window (0.7758146081336156, 0.8164965809277261]",
        ),
        (["realize", "--structure", "four-vertex-x"], f"unknown structure 'four-vertex-x'; known: {KNOWN_STRUCTURES}"),
        (["realize", "--structure", "four-vertex-33"], "atlas id must be 1..20"),
        (["joint", "PAIR"], "chain inequality violated by 0.545584412271571"),
        (["bounds", "--family", "n-cycle", "--n", "2"], "cycle needs N >= 3"),
        (["bounds", "--family", "planar-symmetric", "--n", "3.."], "bad --n range '3..'"),
        (["realize", "--structure", "n-cycle"], "n-cycle needs --n"),
        (["check", "EMPTY"], "POVM set is empty"),
        (["bounds", "--family", "n-cycle"], "bounds needs --n (e.g. 3..8)"),
        (["bounds", "--family", "planar-symmetric"], "bounds needs --n (e.g. 3..8)"),
        (["bounds", "--family", "pair-angle"], "pair-angle needs --angle (e.g. 90deg)"),
        (["check", "DIR"], "cannot read DIR: [Errno 21] Is a directory: 'DIR'"),
    ],
    ids=[
        "realize-eta", "realize-eta-exponent", "realize-eta-joined", "realize-eta-minus-inf", "realize-6-inf", "realize-6-nan", "realize-6-non-coplanar-inf", "realize-6-non-coplanar-nan",
        "realize-id-text", "realize-id-range", "joint-chain", "bounds-window", "bounds-open-range",
        "realize-no-n", "check-empty", "bounds-cycle-no-n", "bounds-planar-no-n", "bounds-no-angle",
        "check-directory",
    ],
)
def test_value_errors_exit_65_with_their_message(tmp_path, capsys, argv, message):
    files = {
        "PAIR": write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.9, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.9, 0]}]),
        "EMPTY": write_povms(tmp_path, [], "empty.json"),
        "DIR": str(tmp_path),
    }
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out, err) == (65, "", f"error: {message.replace('DIR', str(tmp_path))}\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["check", "POVMS"], "."),
        (["joint", "POVMS"], "missing/joint.json"),
        (["realize", "--structure", "n-cycle", "--n", "5"], "missing/c5.json"),
        (["verify", str(DATA / "5-cycle.json")], "."),
        (["bounds", "--family", "n-cycle", "--n", "3..5"], "."),
        (["atlas"], "taken"),  # a file where the directory belongs
    ],
    ids=["check", "joint", "realize", "verify", "bounds", "atlas"],
)
def test_unwritable_out_exits_65(tmp_path, capsys, argv, out):
    povms = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.5, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.5, 0]}])
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / out)
    code, stdout, err = run(capsys, *(povms if a == "POVMS" else a for a in argv), "--out", out)
    assert code == 65 and stdout == ""
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


@pytest.mark.parametrize("before", [None, b"x" * 1_000_000, b"x"], ids=["new", "over-longer", "over-shorter"])
def test_out_holds_exactly_the_stdout_bytes(tmp_path, capsys, before):
    # --out rewrites a file in place and cuts it to the new length; a new
    # file gets mode 0o666 & ~umask
    argv = ["realize", "--structure", "n-cycle", "--n", "5"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "c5.json"
    if before is not None:
        path.write_bytes(before)
    assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
    assert path.read_bytes() == stdout.encode()
    if before is None:
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_out_to_dev_null_exits_0(tmp_path, capsys):
    # a device cannot be truncated, and is not
    povms = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.6, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.6, 0]}])
    code, out, err = run(capsys, "check", povms, "--out", os.devnull)
    assert (code, out) == (0, "") and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "verify"])
@pytest.mark.parametrize(
    "data", [b"[" * 200_000 + b"]" * 200_000, b"\xff\xfe{"], ids=["nested", "not-utf8"]
)
def test_deep_or_undecodable_json_exits_64(tmp_path, capsys, command, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert code == 64 and out == ""
    assert err.startswith(f"error: malformed JSON in {path}: ")


def test_stdin_is_read_as_utf8():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "jmqubit.cli", "check", "-"],
        input=b"\xff\xfe{", capture_output=True, env=env, timeout=120,
    )
    assert done.returncode == 64 and done.stdout == b""
    assert done.stderr.startswith(b"error: malformed JSON in -: 'utf-8' codec can't decode"), done.stderr


def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    povms = [{"bias": 0.0, "bloch": [0.9, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.9, 0]}]
    from_file = run(capsys, "check", write_povms(tmp_path, povms))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(json.dumps({"povms": povms}).encode())))
    assert run(capsys, "check", "-") == from_file
    assert from_file[0] == 0


def test_joint_oracle_on_an_incompatible_pair_exits_2(tmp_path, capsys):
    path = write_povms(tmp_path, [{"bias": 0.0, "bloch": [0.9, 0, 0]}, {"bias": 0.0, "bloch": [0, 0.9, 0]}])
    code, out, err = run(capsys, "joint", path, "--constructor", "oracle")
    assert (code, out) == (2, "")
    assert err.startswith("error: oracle status likely-infeasible (residual ")


def test_joint_refuses_more_measurements_than_a_joint_holds(tmp_path, capsys):
    povms = [{"bias": 0.0, "bloch": [0.01, 0, 0]}] * 21
    code, out, err = run(capsys, "joint", write_povms(tmp_path, povms))
    assert (code, out) == (65, "")
    assert err == "error: a joint POVM holds at most 20 measurements, got 21\n"
    out_path = tmp_path / "joint.json"
    code, _, _ = run(capsys, "joint", write_povms(tmp_path, povms[:20]), "--out", str(out_path))
    assert code == 0
    joint = JointPovm.from_json_dict(json.loads(out_path.read_text()))
    assert joint.n == 20 and joint.marginal_error(povms_from_json_dict({"povms": povms[:20]})) <= EPS_MARG


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


def test_verify_rejects_eta_outside_its_window_exits_2(tmp_path, capsys):
    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "4")
    d = json.loads(out)
    lo, hi = d["eta_window"]
    d["eta"] = hi + 0.01  # the POVMs and their witnesses stay as they are
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(d))
    code, out2, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert json.loads(out2)["issues"] == [f"eta {hi + 0.01} outside window ({lo}, {hi}]"]


def test_verify_rejects_triple_anchor_as_incompatibility_proof_exits_2(tmp_path, capsys):
    # triple-anchor is sufficient-only: it never proves a triple incompatible
    code, out, _ = run(capsys, "realize", "--structure", "5-triple-cycle")
    d = json.loads(out)
    entry = next(e for e in d["evidence"]["incompatible"] if e["criterion"] == "triple-ft")
    entry["criterion"] = "triple-anchor"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(d))
    code, out2, _ = run(capsys, "verify", str(path))
    assert code == 2
    report = json.loads(out2)
    assert report["ok"] is False
    assert report["issues"] == [f"criterion triple-anchor does not prove {entry['subset']} incompatible"]


# three nearly parallel unbiased POVMs, compatible, with a well-formed
# triple-ft entry claiming [1, 2, 3] incompatible: four data points in two
# tight clusters, where the Fermat-Torricelli solve must not crash; near-axis,
# within 1e-11 of one axis, puts a Newton iterate exactly on a data point
@pytest.mark.parametrize("name", ["near-parallel-triple-ft.json", "near-axis-triple-ft.json"])
def test_verify_rejects_triple_ft_entry_on_nearly_parallel_povms_exits_2(capsys, name):
    code, out, err = run(capsys, "verify", str(DATA / name))
    assert code == 2 and "Traceback" not in err
    report = json.loads(out)
    assert report["issues"] == ["criterion triple-ft does not prove [1, 2, 3] incompatible"]


def _set_incompat_subset(subset):
    def tamper(d):
        d["evidence"]["incompatible"][0]["subset"] = subset

    return tamper


def _set_povm(d):
    d["povms"][0] = {"bias": 0.9, "bloch": [0.9, 0, 0]}  # |b| > 1 - |a|: not a POVM


def _drop_eta(d):
    del d["eta"]


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


def _one_window_bound(d):
    d["eta_window"] = d["eta_window"][:1]


def _effects_list(d):
    joint = d["evidence"]["compatible"][0]["joint"]
    joint["effects"] = list(joint["effects"].values())  # an array, not an object of masks


_SCHEMA = "error: bad certificate schema"


@pytest.mark.parametrize(
    "tamper, prefix",
    [
        (_set_incompat_subset([2, 9]), _SCHEMA),  # index beyond n = 4
        (_set_incompat_subset([0, 2]), _SCHEMA),  # index 0 would read the last POVM
        (_set_incompat_subset([2, 2]), _SCHEMA),
        (_set_incompat_subset([1.0, 3]), _SCHEMA),
        (_set_povm, "error: POVM 1 is not a valid POVM"),  # a bad value, not a schema fault
        (_shrink_joint, _SCHEMA),
        (_set_structure_n, _SCHEMA),
        (_nan_witness, _SCHEMA),
        (_duplicate_mask, _SCHEMA),
        (_effects_list, _SCHEMA),
        (_drop_eta, f'{_SCHEMA}: missing field "eta"\n'),
        (_one_window_bound, f"{_SCHEMA}: eta_window must hold two bounds\n"),
    ],
    ids=[
        "index-high", "index-zero", "duplicate", "non-integer", "invalid-povm", "joint-size",
        "structure-n", "nan-witness", "duplicate-mask", "effects-list", "no-eta", "one-window-bound",
    ],
)
def test_verify_rejects_malformed_certificate_exits_65(tmp_path, capsys, tamper, prefix):
    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "4")
    d = json.loads(out)
    tamper(d)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 65
    assert out == ""
    assert err.startswith(prefix)


def _set_joint_n(value):
    def tamper(d):
        d["evidence"]["compatible"][0]["joint"]["n"] = value

    return tamper


def _set_mask_key(key):
    def tamper(d):
        # the stored digest is left as it was: it still matches the joint the key reads as
        effects = d["evidence"]["compatible"][0]["joint"]["effects"]
        effects[key] = effects.pop("3")

    return tamper


def _structure_n_float(d):
    d["structure"]["n"] = 5.0


def _empty_effects(d):
    d["evidence"]["compatible"][2]["joint"]["effects"] = {}


def _set_povm_field(key, value):
    def tamper(d):
        d["povms"][1][key] = value

    return tamper


def _set_effect_entry(index, value):
    def tamper(d):
        # the stored digest is left as it was: the loader must reject the entry first
        effect = next(iter(d["evidence"]["compatible"][0]["joint"]["effects"].values()))
        if index == 0:
            effect["alpha"] = value
        else:
            effect["bloch"][index - 1] = value

    return tamper


@pytest.mark.parametrize(
    "tamper, field",
    [
        (_set_joint_n(2.7), "joint n"),
        (_set_joint_n("2"), "joint n"),
        (_set_joint_n(True), "joint n"),
        (_structure_n_float, "structure n"),
        (_set_mask_key(" 3"), "outcome mask key ' 3'"),
        (_set_mask_key("03"), "outcome mask key '03'"),
        (_set_mask_key("+3"), "outcome mask key '+3'"),
        (_set_mask_key("٣"), "outcome mask key '٣'"),
        (_set_mask_key("x"), "outcome mask key 'x'"),
        (_empty_effects, "joint effects"),
        (_set_povm_field("bias", "0.0"), "POVM bias"),
        (_set_povm_field("bias", False), "POVM bias"),
        (_set_povm_field("bloch", ["0.5", 0.1, 0]), "POVM bloch"),
        (_set_effect_entry(0, "0.25"), "effect alpha"),
        (_set_effect_entry(0, True), "effect alpha"),
        (_set_effect_entry(2, "0"), "effect bloch component"),
        (_set_effect_entry(3, False), "effect bloch component"),
    ],
    ids=[
        "joint-n-float", "joint-n-string", "joint-n-bool", "structure-n-float",
        "key-space", "key-leading-zero", "key-plus", "key-arabic-indic", "key-letter", "empty-effects",
        "bias-string", "bias-false", "bloch-string", "alpha-string", "alpha-true",
        "effect-bloch-string", "effect-bloch-false",
    ],
)
def test_verify_rejects_loose_certificate_input_exits_65(tmp_path, capsys, tamper, field):
    code, out, _ = run(capsys, "realize", "--structure", "n-cycle", "--n", "5")
    d = json.loads(out)
    tamper(d)
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (65, "")
    assert err.startswith("error: bad certificate schema") and field in err


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
    first = run(capsys, "atlas", "--out", str(out_dir))
    assert first[0] == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["entries"]) == 20
    files = sorted(p.name for p in out_dir.iterdir())
    assert "four-vertex-6-mixed-purity.json" in files
    assert "four-vertex-6-non-coplanar.json" in files
    assert len(files) == 22  # manifest + 19 planar + 2 special
    # a second run, over files made longer, writes the same bytes
    written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    for name, data in written.items():
        (out_dir / name).write_bytes(data + b"x" * 1000)
    assert run(capsys, "atlas", "--out", str(out_dir)) == first
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == written


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


def _is_povm_or_effect_number(doc, path) -> bool:
    """Whether path leads to a number of a POVM (its bias or a Bloch
    component) or of a stored joint's effect (its alpha or a Bloch
    component)."""
    node = doc
    for key in path:
        node = node[key]
    if type(node) not in (int, float):
        return False
    return path[:1] == ("povms",) or (len(path) >= 7 and path[3:5] == ("joint", "effects"))


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
    # a string or a boolean where a POVM or an effect holds a number is
    # rejected, not read as float() reads it
    if isinstance(value, (str, bool)) and _is_povm_or_effect_number(doc, path):
        assert code == 65, (path, value)


@pytest.mark.parametrize("value", ["0.0", "1", False, True])
@pytest.mark.parametrize("command", ["verify", "check"])
def test_loaders_reject_every_povm_and_effect_number_as_string_or_bool(tmp_path, command, value):
    # the fuzzing test's rule, on every such node of the documents
    doc = _valid_documents()[command]
    paths = [path for path in _node_paths(doc) if _is_povm_or_effect_number(doc, path)]
    assert len(paths) >= 20  # five POVMs of four numbers, and the effects' for verify
    for path in paths[:: max(1, len(paths) // 40)]:
        target = tmp_path / "doc.json"
        target.write_text(json.dumps(_replaced(doc, path, value)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(target)]) == 65, (path, value)


# ---------------------------------------------------------------------------
# a reader that has gone: `jmqubit realize ... | head -c 10`


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--structure", "n-cycle", "--n", "16"],  # written in many blocks
        ["bounds", "--family", "planar-symmetric", "--n", "3"],  # flushed at exit
    ],
    ids=["realize", "bounds"],
)
def test_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the command writes a byte
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "jmqubit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(indent=2, sort_keys=True), byte for byte

_keys = st.one_of(
    st.text(max_size=4), st.sampled_from(["é", '"\n\\', " ", "\x00", "\U0001f600", "", "%s", "a,b"])
)
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).map(lambda i: i * (-1) ** (i % 2)),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
)
_leaves = st.one_of(_atoms, st.text(max_size=6), _keys)
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

# lists of flat lists, as `maximal` and `undecided`: empty inner lists,
# bools, None and tuples among them
_flat_lists = st.one_of(st.lists(_atoms, max_size=4), st.lists(_atoms, max_size=4).map(tuple))
_index_lists = st.lists(_flat_lists, min_size=1, max_size=5)

# record lists, as check's `incompatible` and a certificate's `povms`: the
# same keys in every record, each key's values all atoms, all strings
# (escapes included) or all flat lists, or else mixed
_strings = st.one_of(st.text(max_size=4), st.sampled_from(['a,b', '"q"', "\\", "\n", "%s", "é", "[1]", "{}"]))
_column_values = {"atoms": _atoms, "strings": _strings, "lists": _flat_lists}
_column_values["mixed"] = st.one_of(*_column_values.values())


class _SubDict(dict):
    pass


@st.composite
def _record_lists(draw, kids):
    """A list of records; one record in three is then spoiled: it gets a
    nested value, becomes a dict subclass, an int-keyed, an empty or a
    smaller dict, trades a key for another, or a None joins the list."""
    keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(_column_values))) for _ in keys]
    records = [
        {k: draw(_column_values[kind]) for k, kind in zip(keys, kinds)}
        for _ in range(draw(st.integers(1, 4)))
    ]
    i, k = draw(st.integers(0, len(records) - 1)), keys[0]
    spoil = draw(st.sampled_from(
        [None, None, None, None, None, None, "nested", "subclass", "int-keys", "empty", "smaller", "other-key", "none"]
    ))
    if spoil == "nested":
        records[i][k] = draw(kids)
    elif spoil == "subclass":
        records[i] = _SubDict(records[i])
    elif spoil == "int-keys":
        records[i] = dict(enumerate(records[i].values()))
    elif spoil == "empty":
        records[i] = {}
    elif spoil == "smaller":
        del records[i][k]
    elif spoil == "other-key":
        records[i][draw(_keys.filter(lambda key: key not in keys))] = records[i].pop(k)
    elif spoil == "none":
        records.insert(i, None)
    return records


_dumps_inputs = st.one_of(
    _trees,
    _record_lists(_trees),
    _index_lists,
    # the same at a deeper indent
    st.dictionaries(_keys, st.one_of(_record_lists(_trees), _index_lists), min_size=1, max_size=2),
)


@settings(max_examples=300)
@given(_dumps_inputs)
@example([{}, None])
@example([{"subset": [1, 2], "criterion": "a,b", "margin": -0.0}, {"subset": [], "criterion": "%s", "margin": math.nan}])
@example([[], [1, True], (2.5, None)])
@example([[]])
@example([{"a": 1}, {"a": [1]}])
@example([{"a": 1}, {"a": 1, "b": 2}])
@example([{"a": 1, "b": 2}, {"a": 1, "c": 2}])
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def _digest_of(joint) -> str:
    return hashlib.sha256(json.dumps(joint.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_named_certificates_write_as_json_dumps(named_certificates):
    """Each certificate is written as json.dumps writes it, with its joints
    as dicts or as JointPovm objects, and each digest is the sha256 of
    json.dumps of its joint, as built and as reloaded from the written text."""
    for cert in named_certificates:
        expected = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
        assert cli._dumps(cert.to_json_dict()) == expected, cert.label
        written = cli._dumps(cert.to_json_dict(joint_objects=True))
        assert written == expected, cert.label
        loaded = RealizationCertificate.from_json_dict(json.loads(written))
        for built, back in zip(cert.compatible, loaded.compatible):
            assert built.digest == back.digest == _digest_of(built.joint), cert.label
            assert realizer.joint_digest(back.joint) == _digest_of(back.joint) == back.digest


_entries = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, -1e-7]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.integers(4, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1))
), st.data())
@example((4, {2, 10, 3}), None)
def test_joint_is_written_from_its_canonical_text(n_masks, data):
    n, masks = n_masks
    masks = sorted(masks, reverse=True)  # keys sort as strings, not in storage order
    if data is None:
        rows = [(-0.0, 5e-324, 1e16, 1e-7)] * len(masks)
    else:
        rows = data.draw(st.lists(st.tuples(*[_entries] * 4), min_size=len(masks), max_size=len(masks)))
    joint = JointPovm(n, masks, rows)
    d = joint.to_json_dict()
    assert joint.canonical_text == json.dumps(d, sort_keys=True)
    assert realizer.joint_digest(joint) == _digest_of(joint)
    for payload, plain in (
        (joint, d),
        ([{"joint": joint, "subset": [1]}], [{"joint": d, "subset": [1]}]),
        ({"evidence": {"compatible": [[joint]]}}, {"evidence": {"compatible": [[d]]}}),
    ):
        assert cli._dumps(payload) == json.dumps(plain, indent=2, sort_keys=True)


def test_joint_without_effects_is_written_as_json_dumps():
    joint = JointPovm(2, np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
    assert cli._dumps({"joint": joint}) == json.dumps({"joint": joint.to_json_dict()}, indent=2, sort_keys=True)


def test_dumps_rejects_what_json_dumps_rejects():
    for bad in ({"a": [object()]}, {1: 2, "a": 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._dumps(bad)


@pytest.fixture
def checked_dumps(monkeypatch):
    """cli._dumps, checked against json.dumps on every payload it writes. A
    payload may hold a certificate's joints as JointPovm objects, which are
    written as their to_json_dict()."""
    texts = []
    dumps = cli._dumps

    def checked(payload):
        text = dumps(payload)
        assert text == json.dumps(payload, indent=2, sort_keys=True, default=JointPovm.to_json_dict)
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
