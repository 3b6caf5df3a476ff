"""Write decide_golden.json: the decide workload's pool of POVM sets and the
structures that ``jmqubit check --mode closed-form`` gave for them.

The pool is fixed (POOL_SEED); the benchmark's --seed only picks sets from
it, so every run can be checked against these answers. Regenerate only on
purpose, from a commit whose answers are to become the reference:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_SEED = 20200302
PER_STRATUM = 20
FAMILIES = ("mixed-purity", "same-purity-3d", "coplanar-same-purity", "biased")
SIZES = (5, 6, 7)


def _unit(rng, planar=False):
    v = rng.normal(size=3)
    if planar:
        v[2] = 0.0
    return v / np.linalg.norm(v)


def povm_set(rng, family: str, n: int) -> list:
    """Purities sit around the pair and triple thresholds."""
    if family == "mixed-purity":
        rows = [(0.0, rng.uniform(0.55, 0.9) * _unit(rng)) for _ in range(n)]
    elif family == "same-purity-3d":
        eta = rng.uniform(0.55, 0.85)
        rows = [(0.0, eta * _unit(rng)) for _ in range(n)]
    elif family == "coplanar-same-purity":
        eta = rng.uniform(0.65, 0.95)
        rows = [(0.0, eta * _unit(rng, planar=True)) for _ in range(n)]
    else:
        rows = []
        for _ in range(n):
            b = rng.uniform(-0.3, 0.3)
            rows.append((b, rng.uniform(0.5, 0.9) * (1.0 - abs(b)) * _unit(rng)))
    return [{"bias": float(b), "bloch": [float(x) for x in a]} for b, a in rows]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from jmqubit import cli

    rng = np.random.default_rng(POOL_SEED)
    sets = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = Path(tmp) / "set.json"
        for family in FAMILIES:
            for n in SIZES:
                for k in range(PER_STRATUM):
                    povms = povm_set(rng, family, n)
                    path.write_text(json.dumps({"povms": povms}))
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(["check", "--mode", "closed-form", str(path)])
                    if code not in (0, 3):
                        raise SystemExit(f"check exited {code} on {family} n={n} #{k}")
                    payload = json.loads(out.getvalue())
                    sets.append({
                        "id": f"{family}-{n}-{k:02d}",
                        "family": family,
                        "n": n,
                        "povms": povms,
                        "structure": payload["structure"],
                        "undecided": payload["undecided"],
                    })
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    doc = {
        "about": "check --mode closed-form answers of the commit below; see README.md",
        "commit": commit,
        "pool_seed": POOL_SEED,
        "sets": sets,
    }
    (HERE / "decide_golden.json").write_text(json.dumps(doc, indent=1) + "\n")
    und = sum(len(s["undecided"]) for s in sets)
    print(f"wrote {len(sets)} sets, {und} undecided subsets in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
