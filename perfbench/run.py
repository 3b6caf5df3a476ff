"""jmqubit benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload {certify,decide,oracle} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...   # every workload, one report

Run from the root of a checkout. jmqubit is imported from ./src; the run
fails (exit 2, no result line) when it is not there. The seed makes the
inputs; jmqubit only sees the generated inputs.

Set-up (importing jmqubit afresh and making the inputs) is repeated
SETUP_REPEATS times and its median reported as setup_s. The loop then runs
whole passes over the task list until --seconds have passed, starting each
task when the previous one has returned and checking every output. Task and
set-up times are scaled to the machine's speed at the time they ran (see
reference_loop).

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
every task twice in each pass, once plain and once with spans recorded
(spans.py), and reports the per-layer metrics, each per pass over the task
list, with trace_overhead_frac = traced task time / plain task time - 1.

The last line of stdout is the result as JSON. A fuller record, with the
machine, the settings, per-task times and the per-span table, goes to
.perfbench_out/; the spans themselves go there as gzip-compressed JSON.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({v: "1" for v in BLAS_THREAD_VARS})  # before numpy loads

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, fail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# Seconds the reference loop takes on an uncontended core of the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs). Times are scaled by
# REFERENCE_S / (the loop's time around the measured interval).
REFERENCE_S = 1.3e-3
LAYERS = ("cli", "realizer", "structures", "criteria", "surgery", "povm", "oracle")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least MIN_BEYOND samples above it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            return p
    return 50.0


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics. Unlike a plain percentile it moves
    smoothly when two neighbouring tasks swap places, which matters when the
    quantile falls in a gap between groups of similar tasks."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(200 * n) + 0.5) / (200 * n)  # 200 grid points per order statistic
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, 200).sum(axis=1)
    return float(w @ x / w.sum())


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array numpy and JSON
    work that does not touch jmqubit: the machine's speed right now.

    Other tenants of a shared machine slow every process on it by up to a
    factor of two, for seconds to minutes at a time. Dividing a task's time
    by this loop's time around it (see loop) removes most of that: on a
    2-vCPU Xeon virtual machine, the coefficient of variation of one-second
    medians of task times fell from about 0.2 to about 0.05.
    """
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 64).reshape(16, 4)
    acc, d = 0.0, {}
    for i in range(1000):
        d[i % 50] = (i * 0.5, str(i))
        acc += d[i % 50][0] ** 0.5
    for i in range(75):
        b = a * (1.0 + i * 1e-3)
        acc += float(np.linalg.norm(b[:, 1:], axis=1).sum()) + float((b.T @ b)[0, 0])
    acc += len(json.dumps({"x": [[i * 0.1, i * 0.2] for i in range(150)]}, indent=2))
    return time.perf_counter() - t0


def fresh_import():
    """Import jmqubit from this checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "jmqubit" or m.startswith("jmqubit.")]:
        del sys.modules[name]
    jm = importlib.import_module("jmqubit")
    modules = {name: importlib.import_module(f"jmqubit.{name}") for name in LAYERS}
    return jm, modules


def setup(workload: str, seed: int, workdir: Path):
    """Repeated set-up. Returns the scaled and raw times of each, and the
    modules and tasks of the last."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = reference_loop()
        t0 = time.perf_counter()
        jm, modules = fresh_import()
        tasks = WORKLOADS[workload](jm, seed, workdir)
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * 2.0 * REFERENCE_S / (before + reference_loop()))
    return times, raw, jm, modules, tasks


class Tally:
    """Outcomes of every executed task."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.answers = 0
        self.uncertified = 0
        self.stdout_bytes = 0
        self.oracle_evidence = 0
        self.reasons: dict = {}

    def add(self, label: str, outcome) -> None:
        self.attempted += 1
        self.answers += outcome.answers
        self.uncertified += outcome.uncertified
        self.stdout_bytes += outcome.stdout_bytes
        self.oracle_evidence += outcome.oracle_evidence
        if not outcome.ok:
            self.failed += 1
            self.reasons.setdefault(label, outcome.reason)


def execute(task, fault=None):
    """Run one task (timed) and check it (untimed). Returns (seconds, Outcome)."""
    t0 = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:
        return time.perf_counter() - t0, fail(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    try:
        if fault is not None:
            out = fault(out)
        return elapsed, task.check(out)
    except Exception as exc:
        return elapsed, fail(f"check raised {type(exc).__name__}: {exc}")


def loop(tasks, seconds: float, tracer=None) -> dict:
    """Whole passes until `seconds` have passed.

    Per task, lists of the scaled and raw seconds of its plain runs and of
    the scaled seconds of its traced runs (with a tracer); a Tally of each
    kind of run; and the peak RSS, read before the benchmark's own
    arithmetic on the results can add to it.
    """
    kinds = [("plain", None)] + ([("traced", tracer)] if tracer is not None else [])
    tallies = {"plain": Tally(), "traced": Tally()}
    runs = []  # (kind, task index, raw seconds), each between refs[k] and refs[k + 1]
    refs = [reference_loop()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not runs:
        for i, task in enumerate(tasks):
            for kind, tr in kinds:
                if tr is None:
                    dt, outcome = execute(task)
                else:
                    tr.task = i
                    with tr:
                        dt, outcome = execute(task)
                runs.append((kind, i, dt))
                refs.append(reference_loop())
                tallies[kind].add(task.label, outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    r = {k: [[] for _ in tasks] for k in ("plain", "plain_raw", "traced")}
    for k, (kind, i, dt) in enumerate(runs):
        # the machine's speed around the run: the median of the six nearest
        # reference timings, three before and three after, so that one
        # disturbed timing does not skew it
        r[kind][i].append(dt * REFERENCE_S / statistics.median(refs[max(0, k - 2):k + 4]))
        if kind == "plain":
            r["plain_raw"][i].append(dt)
    r["tally"], r["traced_tally"] = tallies["plain"], tallies["traced"]
    r["peak_rss_mb"] = peak_rss_mb
    return r


def end_to_end(plain, tally, setup_times, peak_rss_mb) -> tuple:
    per_task = [statistics.median(ts) for ts in plain]
    n = len(per_task)
    p = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "tasks_per_s": n / sum(per_task),
        "task_p50_ms": 1e3 * hd_quantile(per_task, 0.5),
        "task_tail_ms": 1e3 * hd_quantile(per_task, p / 100.0),
        "peak_rss_mb": peak_rss_mb,
        "certified_frac": 1.0 - tally.uncertified / tally.answers,
    }
    samples = {
        "setup_s": {"repeats": len(setup_times), "values": setup_times},
        "task_p50_ms": {"percentile": 50, "samples": n},
        "task_tail_ms": {
            "percentile": p,
            "samples": n,
            "beyond": sum(1 for t in per_task if 1e3 * t > metrics["task_tail_ms"]),
            "estimator": "Harrell-Davis",
        },
        "per_task": "median of the task's scaled time over the passes",
        "passes": len(plain[0]),
    }
    return metrics, samples


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    if not (ROOT / "src" / "jmqubit" / "__init__.py").is_file():
        print(f"error: no jmqubit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{run_id}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        setup_times, setup_raw, jm, modules, tasks = setup(args.workload, args.seed, workdir)
        if not str(Path(jm.__file__).resolve()).startswith(str(ROOT / "src")):
            print(f"error: imported jmqubit from {jm.__file__}", file=sys.stderr)
            return 2
        tracer = Tracer(modules) if args.trace else None
        r = loop(tasks, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    plain, tally, traced_tally = r["plain"], r["tally"], r["traced_tally"]
    passes = len(plain[0])
    record = {
        "workload": args.workload,
        "settings": {
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "setup_repeats": SETUP_REPEATS, "shape": "closed loop, one client, one thread",
            "tasks_per_pass": len(tasks), "passes": passes,
        },
        "machine": machine_info(),
        "reference_s": REFERENCE_S,
        "setup_raw_s": setup_raw,
        "per_task_ms": {t.label: [1e3 * x for x in ts] for t, ts in zip(tasks, plain)},
        "per_task_raw_ms": {t.label: [1e3 * x for x in ts] for t, ts in zip(tasks, r["plain_raw"])},
    }
    if args.trace:
        total_plain = sum(map(sum, plain))
        extra = {
            "stdout_bytes": traced_tally.stdout_bytes,
            "oracle_evidence": traced_tally.oracle_evidence,
            "trace_overhead_frac": sum(map(sum, r["traced"])) / total_plain - 1.0,
        }
        metrics = layer_metrics(tracer, passes, extra)
        record["spans_per_pass"] = tracer.per_name(passes)
        record["oracle_runs_first_pass"] = tracer.oracle_runs[: len(tracer.oracle_runs) // passes]
        tracer.write(outdir / f"{run_id}.spans.json.gz", [t.label for t in tasks])
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.reasons.update(traced_tally.reasons)
        record["samples"] = {"passes": passes, "oracle.iterations_p50": len(tracer.oracle_runs)}
    else:
        metrics, record["samples"] = end_to_end(plain, tally, setup_times, r["peak_rss_mb"])

    report = {}
    for spec in declared_metrics(args.trace):
        report[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
    failed_frac = tally.failed / tally.attempted
    uncertified_frac = tally.uncertified / tally.answers if tally.answers else 0.0
    record.update({
        "metrics": report,
        "failed_frac": failed_frac,
        "uncertified_frac": uncertified_frac,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
    })
    (outdir / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"# {run_id}: {len(tasks)} tasks x {passes} passes; nproc {m['nproc']}, "
          f"{m['cpu_model']}, Python {m['python']}, numpy {m['numpy']}, BLAS {m['blas']} "
          f"threads {m['blas_threads']}")
    for name, v in report.items():
        print(f"{args.workload} {name} = {v['value']!r} {v['unit']}")
    if not args.trace:
        s = record["samples"]["task_tail_ms"]
        print(f"{args.workload} task_tail_ms is the Harrell-Davis p{s['percentile']:g} of "
              f"{s['samples']} tasks ({s['beyond']} beyond), task_p50_ms its p50; "
              f"setup_s is the median of {SETUP_REPEATS}")
    print(f"{args.workload} failed_frac = {failed_frac!r} fraction "
          f"({tally.failed} of {tally.attempted})")
    print(f"{args.workload} uncertified_frac = {uncertified_frac!r} fraction "
          f"({tally.uncertified} of {tally.answers})")
    for label, reason in list(tally.reasons.items())[:10]:
        print(f"# FAILED {label}: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    code = 0
    for workload in ("certify", "decide", "oracle"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["certify", "decide", "oracle", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
