"""Self-test of the benchmark's checks.

For each workload, runs a few tasks twice: as they are, where every check
must pass, and with each output replaced by a deliberately wrong one (the
task's ``fault``: an undocumented exit code, a flipped structure, a swapped
oracle status), where every check must fail, so failed_frac > 0.

    python3 perfbench/selftest.py      # from the root of a checkout
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # sets the BLAS thread variables before numpy loads
from workloads import WORKLOADS

PICK = {
    # realize -> verify -> check of two small structures, the atlas and two
    # of its certificates; the first tasks of the other workloads
    "certify": lambda label: label.endswith((":5-specker", ":4-complete"))
    or label in ("atlas", "verify:four-vertex-1", "verify:four-vertex-6-non-coplanar"),
    "decide": None,
    "oracle": None,
}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ok = True
    for workload, pick in PICK.items():
        workdir = run.ROOT / ".perfbench_work" / f"selftest-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            jm, _ = run.fresh_import()
            tasks = WORKLOADS[workload](jm, 0, workdir)
            tasks = [t for t in tasks if pick(t.label)] if pick else tasks[:10]
            clean, faulty = run.Tally(), run.Tally()
            for t in tasks:
                clean.add(t.label, run.execute(t)[1])
            for t in tasks:
                faulty.add(t.label, run.execute(t, fault=t.fault)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        good = clean.failed == 0 and faulty.failed == faulty.attempted
        ok = ok and good
        print(f"{workload}: {len(tasks)} tasks; failed_frac {clean.failed / clean.attempted!r} as "
              f"they are, {faulty.failed / faulty.attempted!r} with wrong answers -> "
              f"{'ok' if good else 'NOT OK'}")
        for label, reason in clean.reasons.items():
            print(f"  unexpected failure {label}: {reason}")
        missed = [t.label for t in tasks if t.label not in faulty.reasons]
        if missed:
            print(f"  wrong answers not caught: {missed}")
    try:
        (run.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
