"""Spans recorded from the benchmark around calls into jmqubit's modules.

The tracer replaces a public function on the attribute its caller looks up
(for example ``realizer.pair_general``, which the closed-form decider reads
from the realizer module's globals) with a wrapper that records a span, and
puts every original back on ``restore``. Nothing inside the package changes.

A span is (name, start_ns, end_ns, parent span index, task id). Spans stay in
memory in a flat integer array and are written out once, at the end of a run.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (owner, attribute, span name). An owner is a module name or "JointPovm".
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_realize", "cli.realize"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_atlas", "cli.atlas"),
    ("cli", "structure_of", "structures.structure_of"),
    ("cli", "build_general_binary_joint", "surgery.joint"),
    ("cli", "povms_from_json_dict", "povm.json"),
    ("realizer", "structure_of", "structures.structure_of"),
    ("realizer", "realize_n_cycle", "realizer.realize"),
    ("realizer", "realize_n_specker", "realizer.realize"),
    ("realizer", "realize_misc", "realizer.realize"),
    ("realizer", "realize_four_vertex", "realizer.realize"),
    ("realizer", "atlas_manifest", "realizer.atlas_manifest"),
    ("realizer", "verify_certificate", "realizer.verify"),
    ("realizer", "joint_digest", "realizer.digest"),
    ("realizer", "pair_general", "criteria.pair"),
    ("realizer", "pair_unbiased", "criteria.pair"),
    ("realizer", "triple_unbiased", "criteria.triple_ft"),
    ("realizer", "planar_symmetric_nwise", "criteria.nwise"),
    ("realizer", "n_necessary_sufficient", "criteria.nwise"),
    ("realizer", "best_chain_ordering", "criteria.chain_order"),
    ("realizer", "general_binary_sufficient", "criteria.general_chain"),
    ("realizer", "surgery_mtuple", "surgery.joint"),
    ("realizer", "build_general_binary_joint", "surgery.joint"),
    ("realizer", "povms_to_json_dict", "povm.json"),
    ("realizer", "povms_from_json_dict", "povm.json"),
    ("criteria", "chain_margin", "criteria.chain_margin"),
    ("criteria", "fermat_torricelli", "criteria.ft"),
    ("surgery", "chain_margin", "criteria.chain_margin"),
    ("oracle", "decide", "oracle.decide"),
    ("oracle", "verify_witness", "oracle.verify_witness"),
    ("JointPovm", "validate", "povm.validate"),
    ("JointPovm", "to_json_dict", "povm.json"),
    ("JointPovm", "from_json_dict", "povm.json"),
)

DECIDER = "realizer.decider"  # closures returned by realizer.closed_form_decider


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list = []
        self.name_ids: dict = {}
        self.spans = array("q")  # 5 integers per span
        self.stack: list = []  # [span index, name, child ns] of open spans
        self.task = -1
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.errors = defaultdict(int)
        self.calls_under = defaultdict(int)  # (name, parent name) -> calls
        self.subsets = 0
        self.undecided = 0
        self.oracle_runs: list = []  # (N, status, iterations, task id)
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans) // 5
            spans.extend((nid, 0, 0, parent[0] if parent else -1, self.task))
            frame = [index, name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                spans[5 * index + 1] = t0
                spans[5 * index + 2] = t1
                if parent:
                    parent[2] += dur
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[2]
                self.calls_under[name, parent[1] if parent else None] += 1
            if on_return is not None:
                on_return(result, args)
            return result

        return traced

    # -- hooks reading what a call returned ------------------------------

    def _on_structure(self, result, args):
        n = len(args[0])
        self.subsets += 2**n - n - 1
        self.undecided += len(result.undecided)

    def _on_oracle(self, result, args):
        self.oracle_runs.append((len(args[0]), result.status, result.iterations, self.task))

    def install(self) -> None:
        hooks = {
            "structures.structure_of": self._on_structure,
            "oracle.decide": self._on_oracle,
        }
        owners = dict(self.modules)
        owners["JointPovm"] = self.modules["povm"].JointPovm
        for owner_name, attr, name in TARGETS:
            owner = owners[owner_name]
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, hooks.get(name)))
            else:
                new = self.wrap(name, raw, hooks.get(name))
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        realizer = self.modules["realizer"]
        factory = realizer.closed_form_decider
        self._saved.append((realizer, "closed_form_decider", factory))
        realizer.closed_form_decider = lambda *a, **k: self.wrap(DECIDER, factory(*a, **k))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path, task_labels) -> None:
        """Write every span, gzip-compressed JSON; times are nanoseconds."""
        rows = [list(self.spans[i:i + 5]) for i in range(0, len(self.spans), 5)]
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "task"],
            "names": self.names,
            "tasks": task_labels,
            "spans": rows,
        }
        with gzip.open(path, "wt") as f:
            json.dump(payload, f, separators=(",", ":"))

    def per_name(self, passes: int) -> dict:
        """Calls, inclusive and self seconds of every span name, per pass."""
        return {
            name: {
                "calls": self.calls[name] / passes,
                "s": self.total_ns[name] / 1e9 / passes,
                "self_s": self.self_ns[name] / 1e9 / passes,
            }
            for name in self.names
        }


def layer_metrics(tr: Tracer, passes: int, extra: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json, each per pass over the inputs.

    ``extra`` carries what the benchmark counts itself: stdout bytes and
    oracle evidence entries of traced tasks, and the trace overhead.
    """
    def calls(name):
        return tr.calls[name] / passes

    def incl(name):
        return tr.total_ns[name] / 1e9 / passes

    def own(name):
        return tr.self_ns[name] / 1e9 / passes

    runs = tr.oracle_runs
    iters = [r[2] for r in runs]

    def mean_iters(rows):
        return sum(r[2] for r in rows) / len(rows) if rows else 0.0

    from_order = tr.calls_under["criteria.chain_margin", "criteria.chain_order"]
    m = {
        "structures.structure_of_self_s": own("structures.structure_of"),
        "structures.subsets": tr.subsets / passes,
        "structures.decider_call_ratio": (
            tr.calls[DECIDER] / tr.subsets if tr.subsets else 0.0
        ),
        "structures.undecided": tr.undecided / passes,
        "realizer.realize_self_s": own("realizer.realize"),
        "realizer.verify_self_s": own("realizer.verify"),
        "cli.check_s": incl("cli.check"),
        "cli.realize_s": incl("cli.realize"),
        "cli.verify_s": incl("cli.verify"),
        "cli.atlas_s": incl("cli.atlas"),
        "cli.stdout_bytes": extra["stdout_bytes"] / passes,
        "criteria.chain_order_calls": calls("criteria.chain_order"),
        "criteria.chain_order_self_s": own("criteria.chain_order"),
        "criteria.chain_margin_calls": calls("criteria.chain_margin"),
        "criteria.chain_margin_s": incl("criteria.chain_margin"),
        "criteria.chain_margin_per_order": (
            from_order / tr.calls["criteria.chain_order"]
            if tr.calls["criteria.chain_order"] else 0.0
        ),
        "criteria.ft_calls": calls("criteria.ft"),
        "criteria.ft_s": incl("criteria.ft"),
        "criteria.ft_unknown": tr.errors["criteria.ft"] / passes,
        "criteria.triple_ft_calls": calls("criteria.triple_ft"),
        "criteria.triple_ft_self_s": own("criteria.triple_ft"),
        "criteria.pair_calls": calls("criteria.pair"),
        "criteria.pair_s": incl("criteria.pair"),
        "criteria.nwise_calls": calls("criteria.nwise"),
        "criteria.nwise_s": incl("criteria.nwise"),
        "realizer.decider_calls": calls(DECIDER),
        "realizer.decider_self_s": own(DECIDER),
        "oracle.decide_calls": calls("oracle.decide"),
        "oracle.decide_s": incl("oracle.decide"),
        "oracle.iterations": sum(iters) / passes,
        "oracle.iterations_p50": statistics.median(iters) if iters else 0.0,
        "oracle.iterations_max": max(iters, default=0),
        "oracle.iterations_feasible": mean_iters([r for r in runs if r[1] == "feasible"]),
        "oracle.iterations_infeasible": mean_iters([r for r in runs if r[1] != "feasible"]),
    }
    for n in range(2, 7):
        m[f"oracle.iterations_n{n}"] = mean_iters([r for r in runs if r[0] == n])
    m.update({
        "oracle.ms_per_iteration": (
            1e3 * tr.total_ns["oracle.decide"] / 1e9 / sum(iters) if iters else 0.0
        ),
        "oracle.feasible": sum(1 for r in runs if r[1] == "feasible") / passes,
        "oracle.likely_infeasible": sum(1 for r in runs if r[1] == "likely-infeasible") / passes,
        "oracle.inconclusive": sum(1 for r in runs if r[1] == "inconclusive") / passes,
        "oracle.verify_witness_s": incl("oracle.verify_witness"),
        "surgery.joint_calls": calls("surgery.joint"),
        "surgery.joint_s": incl("surgery.joint"),
        "povm.validate_calls": calls("povm.validate"),
        "povm.validate_s": incl("povm.validate"),
        "povm.json_s": incl("povm.json"),
        "realizer.digest_s": incl("realizer.digest"),
        "realizer.oracle_evidence": extra["oracle_evidence"] / passes,
        "trace_overhead_frac": extra["trace_overhead_frac"],
    })
    return m
