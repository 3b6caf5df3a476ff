"""Print the ROADMAP "Measured baseline" rows from traced benchmark runs.

    python3 perfbench/run.py --workload certify --seed 7 --trace 1
    python3 perfbench/run.py --workload decide --seed 7 --trace 1
    python3 perfbench/run.py --workload oracle --seed 7 --trace 1
    python3 perfbench/baseline.py --seed 7

Times are raw span times (not scaled), as medians over the traced passes.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def load(workload: str, seed: int) -> tuple:
    with gzip.open(OUT / f"{workload}-seed{seed}-trace1.spans.json.gz", "rt") as f:
        spans = json.load(f)
    record = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    return spans, record


def per_task(spans) -> dict:
    """(task label, span name) -> list of inclusive seconds, one per span."""
    out = defaultdict(list)
    names, tasks = spans["names"], spans["tasks"]
    for nid, start, end, _parent, task in spans["spans"]:
        out[tasks[task], names[nid]].append((end - start) / 1e9)
    return out


def median_call(durations: dict, label: str, name: str) -> float:
    return statistics.median(durations[label, name])


def share(durations: dict, part: str, whole: str, select=lambda label: True) -> tuple:
    num = sum(sum(v) for (label, name), v in durations.items() if name == part and select(label))
    den = sum(sum(v) for (label, name), v in durations.items() if name == whole and select(label))
    return num / den, den


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed

    spans, _ = load("certify", seed)
    d = per_task(spans)
    print("n-cycle N=16, median per traced call:")
    for label, name in (("realize:16-cycle", "realizer.realize"), ("verify:16-cycle", "realizer.verify"),
                        ("realize:16-cycle", "cli.realize"), ("verify:16-cycle", "cli.verify"),
                        ("check:16-cycle", "cli.check")):
        print(f"  {name:18s} {median_call(d, label, name):.3f} s")

    spans, record = load("oracle", seed)
    d = per_task(spans)
    runs = record["oracle_runs_first_pass"]
    print("oracle.decide per call on the planar families, over all traced passes:")
    for N in (3, 4, 5, 6):
        ms = [1e3 * t for (lab, name), v in d.items()
              if name == "oracle.decide" and lab.startswith(f"planar-N{N}:") for t in v]
        its = [r[2] for r in runs if spans["tasks"][r[3]].startswith(f"planar-N{N}:")]
        print(f"  N={N}: {statistics.median(ms):.1f} ms median, {min(ms):.1f}-{max(ms):.1f} ms; "
              f"iterations {min(its)}-{max(its)}")
    ms = [1e3 * t for (lab, name), v in d.items() if name == "oracle.decide" for t in v]
    print(f"  all {len(spans['tasks'])} problems: {statistics.median(ms):.1f} ms median per call")

    spans, _ = load("decide", seed)
    d = per_task(spans)
    for title, select in (("all sets", lambda lab: True), ("7-POVM sets", lambda lab: lab.rsplit("-", 2)[1] == "7")):
        co, total = share(d, "criteria.chain_order", "cli.check", select)
        ft, _ = share(d, "criteria.ft", "cli.check", select)
        print(f"decide, {title}: chain ordering {100 * co:.0f} %, Fermat-Torricelli "
              f"{100 * ft:.0f} % of {total:.2f} s in check")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
