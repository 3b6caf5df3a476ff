"""The benchmark's three workloads and the checks behind ``failed``.

Each workload turns a seed into a list of tasks. A task's ``run`` is the only
timed part: one call into jmqubit (``cli.main`` or ``oracle.decide``), looked
up on its module at call time so that the traced run sees its wrappers. Its
``check`` runs afterwards, untimed, and returns an Outcome.

Each check names the exit codes it accepts: 0, or 3 exactly when the output
lists undecided subsets or inconclusive items. Any other code fails the task,
whether the CLI documents it (2, 64, 65) or not.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "decide_golden.json"
BAND = 5e-3  # oracle problems this close to the iff boundary are skipped


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    answers: int = 0  # verdicts that need iff or witness backing
    uncertified: int = 0  # those without it
    stdout_bytes: int = 0
    oracle_evidence: int = 0


@dataclass
class Task:
    label: str
    run: object  # () -> output
    check: object  # output -> Outcome
    fault: object = None  # output -> deliberately wrong output, for the self-test


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def cli_runner(jm, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = jm.cli.main(list(argv))
        return CliOutput(code, out.getvalue(), err.getvalue())

    return run


def fail(reason: str, **kw) -> Outcome:
    return Outcome(False, reason, **kw)


def _rotation(rng) -> np.ndarray:
    """A uniformly random rotation or reflection of R^3."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# structures as sets of frozensets, built here rather than taken from jmqubit


def maximal_of(d: dict) -> frozenset:
    return frozenset(frozenset(s) for s in d["maximal"])


def antichain(n: int, sets) -> tuple:
    """(n, maximal sets) with singletons added and non-maximal sets dropped."""
    fam = {frozenset(s) for s in sets} | {frozenset([v]) for v in range(1, n + 1)}
    return n, frozenset(s for s in fam if not any(s < t for t in fam))


def cyc(N: int, gaps) -> list:
    """Sets {k, k+g1, ...} for every start k, indices taken cyclically."""
    return [frozenset((k - 1 + g) % N + 1 for g in (0,) + tuple(gaps)) for k in range(1, N + 1)]


def expected_structure(name: str, N: int) -> tuple:
    if name == "n-cycle":
        return antichain(N, cyc(N, [1]))
    if name == "n-specker":
        return antichain(N, itertools.combinations(range(1, N + 1), N - 1))
    misc = {
        "4-complete": (4, cyc(4, [1]) + cyc(4, [2])),
        "5-complete": (5, cyc(5, [1]) + cyc(5, [2])),
        "5-triple-cycle": (5, cyc(5, [1, 2])),
        "6-two-step-pairs": (6, cyc(6, [1]) + cyc(6, [2])),
        "6-consecutive-triples": (6, cyc(6, [1, 2])),
        "6-triples-antipodal-pairs": (6, cyc(6, [1, 2]) + cyc(6, [3])),
    }
    n, sets = misc[name]
    return antichain(n, sets)


def same_structure(d: dict, expected: tuple) -> bool:
    return int(d["n"]) == expected[0] and maximal_of(d) == expected[1]


def canonical(n: int, maximal) -> tuple:
    """Smallest relabelling of a structure; equal for isomorphic structures."""
    return min(
        tuple(sorted(tuple(sorted(perm[v - 1] for v in m)) for m in maximal))
        for perm in itertools.permutations(range(1, n + 1))
    )


def singletons_only(d: dict) -> dict:
    return {"n": d["n"], "maximal": [[v] for v in range(1, int(d["n"]) + 1)]}


def corrupt_structure(out: CliOutput) -> CliOutput:
    """Claim every subset incompatible, or every subset compatible if that is
    what the output said already."""
    payload = json.loads(out.stdout)
    s = payload["structure"]
    if all(len(m) == 1 for m in s["maximal"]):
        payload["structure"] = {"n": s["n"], "maximal": [list(range(1, int(s["n"]) + 1))]}
    else:
        payload["structure"] = singletons_only(s)
    return CliOutput(out.code, json.dumps(payload), out.stderr)


def undocumented_exit(out: CliOutput) -> CliOutput:
    return CliOutput(1, out.stdout, out.stderr)


# ---------------------------------------------------------------------------
# certify: realize --out, verify, check for each named structure; atlas --out
# and a verify of each of its certificates


CYCLES = (8, 10, 12, 14, 16)
SPECKERS = (5, 6, 7, 8)


def _verify_outcome(out: CliOutput, cert_path: Path, expected) -> Outcome:
    if out.code not in (0, 3):
        return fail(f"verify exit {out.code}")
    report = json.loads(out.stdout)
    cert = json.loads(cert_path.read_text())
    evidence = cert["evidence"]["compatible"] + cert["evidence"]["incompatible"]
    oracle_entries = sum(1 for e in cert["evidence"]["incompatible"] if e["criterion"] == "oracle")
    # closed-form verify lists each oracle entry once more as inconclusive
    uncertified = oracle_entries + max(0, len(report["inconclusive"]) - oracle_entries)
    kw = dict(answers=len(evidence), uncertified=uncertified,
              stdout_bytes=len(out.stdout), oracle_evidence=oracle_entries)
    if report["ok"] is not True or report["issues"]:
        return fail(f"verify not ok: {report['issues']}", **kw)
    if (out.code == 3) != bool(report["inconclusive"]):
        return fail(f"verify exit {out.code} with {len(report['inconclusive'])} inconclusive", **kw)
    if not same_structure(cert["structure"], expected):
        return fail("certificate structure differs from the named structure", **kw)
    return Outcome(True, **kw)


def certify(jm, seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    realizer = jm.realizer
    named = (
        [("n-cycle", N, realizer.n_cycle_window(N)) for N in CYCLES]
        + [("n-specker", N, realizer.n_specker_window(N)) for N in SPECKERS]
        + [(tag, None, s["window"]()) for tag, s in sorted(realizer.MISC_SCENARIOS.items())]
    )
    tasks = []
    for k in rng.permutation(len(named)):
        name, N, (lo, hi) = named[k]
        # a seeded purity in the middle half of the structure's window
        eta = lo + (0.25 + 0.5 * float(rng.random())) * (hi - lo)
        label = f"{N}-{name[2:]}" if N else name
        expected = expected_structure(name, N)
        cert_path = workdir / f"{label}.cert.json"
        povm_path = workdir / f"{label}.povms.json"
        argv = ["realize", "--structure", name, "--eta", repr(eta), "--out", str(cert_path)]
        if N:
            argv += ["--n", str(N)]

        def check_realize(out, cert_path=cert_path, povm_path=povm_path, expected=expected):
            if out.code != 0:
                return fail(f"realize exit {out.code}: {out.stderr.strip()}")
            cert = json.loads(cert_path.read_text())
            povm_path.write_text(json.dumps({"povms": cert["povms"]}))
            if not same_structure(cert["structure"], expected):
                return fail("claimed structure differs from the named structure")
            return Outcome(True)

        def check_check(out, expected=expected):
            if out.code != 0:
                return fail(f"check exit {out.code}")
            payload = json.loads(out.stdout)
            kw = dict(stdout_bytes=len(out.stdout))
            if payload["undecided"] or not same_structure(payload["structure"], expected):
                return fail("check structure differs from the named structure", **kw)
            return Outcome(True, **kw)

        tasks += [
            Task(f"realize:{label}", cli_runner(jm, argv), check_realize, undocumented_exit),
            Task(f"verify:{label}", cli_runner(jm, ["verify", str(cert_path)]),
                 lambda out, c=cert_path, e=expected: _verify_outcome(out, c, e), undocumented_exit),
            Task(f"check:{label}", cli_runner(jm, ["check", str(povm_path)]),
                 check_check, corrupt_structure),
        ]

    atlas_dir = workdir / "atlas"
    manifest: dict = {}

    def check_atlas(out):
        if out.code != 0:
            return fail(f"atlas exit {out.code}")
        entries = json.loads(out.stdout)["entries"]
        manifest.clear()
        manifest.update({e["id"]: e["structure"] for e in entries})
        kw = dict(stdout_bytes=len(out.stdout))
        if sorted(manifest) != list(range(1, 21)):
            return fail("atlas manifest does not list ids 1..20", **kw)
        forms = {canonical(4, [tuple(m) for m in s["maximal"]]) for s in manifest.values()}
        if len(forms) != 20:
            return fail("atlas structures are not 20 distinct four-vertex structures", **kw)
        if len(list(atlas_dir.glob("four-vertex-*.json"))) != 21:
            return fail("atlas did not write 21 certificates", **kw)
        return Outcome(True, **kw)

    tasks.append(Task("atlas", cli_runner(jm, ["atlas", "--out", str(atlas_dir)]),
                      check_atlas, undocumented_exit))
    cert_names = [f"four-vertex-{i}" for i in range(1, 21) if i != 6]
    cert_names += ["four-vertex-6-mixed-purity", "four-vertex-6-non-coplanar"]
    for cname in sorted(cert_names, key=lambda c: int(c.split("-")[2])):
        atlas_id = int(cname.split("-")[2])
        path = atlas_dir / f"{cname}.json"

        def check_atlas_cert(out, path=path, atlas_id=atlas_id):
            if atlas_id not in manifest:
                return fail("no atlas manifest to compare against")
            s = manifest[atlas_id]
            return _verify_outcome(out, path, (int(s["n"]), maximal_of(s)))

        tasks.append(Task(f"verify:{cname}", cli_runner(jm, ["verify", str(path)]),
                          check_atlas_cert, undocumented_exit))
    return tasks


# ---------------------------------------------------------------------------
# decide: check --mode closed-form on every POVM set of the golden pool


def subset_status(n: int, structure: dict, undecided) -> dict:
    """'C', 'I' or 'U' for every subset of size >= 2."""
    maximal = [frozenset(m) for m in structure["maximal"]]
    und = {frozenset(u) for u in undecided}
    out = {}
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            s = frozenset(combo)
            out[s] = "C" if any(s <= m for m in maximal) else ("U" if s in und else "I")
    return out


def check_decide(out: CliOutput, entry: dict) -> Outcome:
    n = entry["n"]
    if out.code not in (0, 3):
        return fail(f"check exit {out.code}")
    payload = json.loads(out.stdout)
    structure, undecided = payload["structure"], payload["undecided"]
    kw = dict(answers=2**n - n - 1, uncertified=len(undecided), stdout_bytes=len(out.stdout))
    if (out.code == 3) != bool(undecided):
        return fail(f"exit {out.code} with {len(undecided)} undecided subsets", **kw)
    if int(structure["n"]) != n or any(
        not m or min(m) < 1 or max(m) > n for m in structure["maximal"]
    ):
        return fail("structure has the wrong vertex range", **kw)
    now = subset_status(n, structure, undecided)
    for u in map(frozenset, undecided):
        # three-valued downward closure: an undecided set lies in no compatible
        # set and has no incompatible subset
        if now[u] != "U" or any(
            now[frozenset(c)] == "I"
            for r in range(2, len(u))
            for c in itertools.combinations(sorted(u), r)
        ):
            return fail(f"undecided set {sorted(u)} breaks downward closure", **kw)
    gold = subset_status(n, entry["structure"], entry["undecided"])
    for s, g in gold.items():
        if g != "U" and now[s] != g:
            return fail(f"subset {sorted(s)} went from {g} to {now[s]}", **kw)
    return Outcome(True, **kw)


def decide(jm, seed: int, workdir: Path) -> list:
    """Every set of the golden pool, each turned by its own seeded rotation,
    in seeded order. Rotation changes the numbers jmqubit sees but neither
    the answers nor the work: every criterion depends on the Bloch vectors'
    lengths and angles only."""
    pool = json.loads(GOLDEN.read_text())["sets"]
    rng = np.random.default_rng(seed)
    tasks = []
    for k in rng.permutation(len(pool)):
        entry = pool[k]
        R = _rotation(rng)
        povms = [{"bias": p["bias"], "bloch": [float(x) for x in R @ p["bloch"]]} for p in entry["povms"]]
        path = workdir / f"{entry['id']}.json"
        path.write_text(json.dumps({"povms": povms}))
        tasks.append(Task(
            f"check:{entry['id']}",
            cli_runner(jm, ["check", "--mode", "closed-form", str(path)]),
            lambda out, e=entry: check_decide(out, e),
            corrupt_structure,
        ))
    return tasks


# ---------------------------------------------------------------------------
# oracle: oracle.decide around iff thresholds, answers checked against the iff
# criterion and feasible witnesses against verify_witness


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# Relative distances from the iff threshold, as (sign, magnitude); a run
# jitters each magnitude by up to +-10 %.
PLANAR_OFFSETS = [(s, m) for m in (0.02, 0.06, 0.12) for s in (-1.0, 1.0)]
TRIPLE_OFFSETS = [(-1.0, 0.03), (1.0, 0.03)]
PAIR_OFFSETS = [(-1.0, 0.05), (1.0, 0.05)]
N_TRIPLES = 8
N_PAIRS = 8
SHAPE_SEED = 20200303  # fixes the triple and pair shapes; --seed only moves them


def oracle_shapes(crit, Povm) -> tuple:
    """Fixed unbiased triples (directions, threshold purity) and biased pairs
    (n1, n2, b1, b2, threshold purity), none within BAND of the boundary at
    any offset."""
    rng = np.random.default_rng(SHAPE_SEED)
    top_offset = 1.1 * max(m for _, m in TRIPLE_OFFSETS)
    triples = []
    while len(triples) < N_TRIPLES:
        dirs = np.stack([_unit(rng) for _ in range(3)])
        at_one = crit.triple_unbiased([1.0] * 3, dirs)
        if math.isnan(at_one.margin):
            continue
        # the FT objective scales with eta: margin(eta) = 4 - eta * (4 - margin(1))
        threshold = 4.0 / (4.0 - at_one.margin)
        if threshold * (1.0 + top_offset) <= 1.0:
            triples.append((dirs, threshold))
    pairs = []
    while len(pairs) < N_PAIRS:
        n1, n2 = _unit(rng), _unit(rng)
        b1, b2 = (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.2)) for _ in range(2))
        top = 1.0 - max(abs(b1), abs(b2))

        def compatible(eta):
            return crit.pair_general(Povm(b1, eta * n1), Povm(b2, eta * n2)).is_compatible

        if compatible(top):
            continue
        lo, hi = 0.0, top  # compatible at lo, incompatible at hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if compatible(mid) else (lo, mid)
        if lo * (1.0 + 1.1 * max(m for _, m in PAIR_OFFSETS)) <= top:
            pairs.append((n1, n2, b1, b2, lo))
    return triples, pairs


def oracle_problems(jm, seed: int) -> list:
    """(label, povms, iff verdict) in seeded order. The seed rotates every
    problem's Bloch vectors and jitters its distance from the threshold."""
    crit = jm.criteria
    Povm = jm.povm.BinaryQubitPovm
    rng = np.random.default_rng(seed)

    def offset(sign, mag):
        return sign * mag * (0.9 + 0.2 * float(rng.random()))

    problems = []
    for N in (3, 4, 5, 6):
        bound = crit.planar_nwise_bound(N)
        for sign, mag in PLANAR_OFFSETS:
            o = offset(sign, mag)
            eta = bound * (1.0 + o)
            R = _rotation(rng)
            povms = [
                Povm(0.0, eta * (R @ [math.cos(k * math.pi / N), math.sin(k * math.pi / N), 0.0]))
                for k in range(N)
            ]
            problems.append((f"planar-N{N}:{o:+.4f}", povms, crit.planar_symmetric_nwise(N, eta)))
    triples, pairs = oracle_shapes(crit, Povm)
    for t, (dirs, threshold) in enumerate(triples):
        for sign, mag in TRIPLE_OFFSETS:
            o = offset(sign, mag)
            eta = threshold * (1.0 + o)
            units = dirs @ _rotation(rng).T
            v = crit.triple_unbiased([eta] * 3, units)
            problems.append((f"triple{t}:{o:+.4f}", [Povm(0.0, eta * u) for u in units], v))
    for t, (n1, n2, b1, b2, threshold) in enumerate(pairs):
        for sign, mag in PAIR_OFFSETS:
            o = offset(sign, mag)
            eta = threshold * (1.0 + o)
            R = _rotation(rng)
            povms = [Povm(b1, eta * (R @ n1)), Povm(b2, eta * (R @ n2))]
            problems.append((f"pair{t}:{o:+.4f}", povms, crit.pair_general(*povms)))
    for label, _, v in problems:
        if abs(v.margin) < BAND:
            raise RuntimeError(f"oracle problem {label} lies within the skipped band")
    return [problems[k] for k in rng.permutation(len(problems))]


def check_oracle(jm, res, povms, verdict) -> Outcome:
    orc = jm.oracle
    compatible = verdict.decision == "compatible"
    if res.status == orc.INCONCLUSIVE:
        return Outcome(True, answers=1, uncertified=1)
    if res.status == orc.FEASIBLE:
        if not compatible:
            return fail("feasible, but the iff criterion says incompatible", answers=1)
        if not orc.verify_witness(res.witness, povms, res.params.witness_tol):
            return fail("feasible witness fails verify_witness", answers=1)
        return Outcome(True, answers=1)
    if res.status == orc.LIKELY_INFEASIBLE:
        if compatible:
            return fail("likely-infeasible, but the iff criterion says compatible", answers=1, uncertified=1)
        return Outcome(True, answers=1, uncertified=1)
    return fail(f"unknown oracle status {res.status!r}", answers=1)


def swap_status(jm):
    orc = jm.oracle

    def fault(res):
        other = orc.LIKELY_INFEASIBLE if res.status == orc.FEASIBLE else orc.FEASIBLE
        return replace(res, status=other)

    return fault


def oracle(jm, seed: int, workdir: Path) -> list:
    tasks = []
    for label, povms, verdict in oracle_problems(jm, seed):
        tasks.append(Task(
            label,
            lambda p=povms: jm.oracle.decide(p),
            lambda res, p=povms, v=verdict: check_oracle(jm, res, p, v),
            swap_status(jm),
        ))
    return tasks


WORKLOADS = {"certify": certify, "decide": decide, "oracle": oracle}
