"""In-memory span tracer for one solve, installed from outside the solver.

``Tracer.install`` replaces the module attributes through which
``run_algorithm1`` reaches each layer with timing wrappers, so the solver
itself is unchanged.  Every call records a span ``[name, parent, start,
end]``; the parent is the innermost span open when the call began.  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans add up to the time covered by the outermost
spans, and the rest of the solve is the runner's own glue.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

import mfgsolver.lattice
import mfgsolver.network
import mfgsolver.runner
import mfgsolver.sa

# (module, attribute, span name) for every call site the runner goes through
_WRAPPED = [
    (mfgsolver.runner, "dp_backward_sweep", "lattice.dp_backward_sweep"),
    (mfgsolver.runner, "induced_measure", "measures.induced_measure"),
    (mfgsolver.runner, "average_update", "measures.average"),
    (mfgsolver.runner, "systematic_resample", "measures.average"),
    (mfgsolver.runner, "fixed_point_gap", "measures.fixed_point_gap"),
    (mfgsolver.runner, "fit_to_grid", "network.fit_to_grid"),
    (mfgsolver.runner, "train", "sa.train"),
    (mfgsolver.runner, "improvement", "sa.improvement"),
    (mfgsolver.runner, "value_table_to_csv", "runner.csv"),
    (mfgsolver.runner, "control_field_to_csv", "runner.csv"),
    (mfgsolver.runner, "measure_path_to_csv", "runner.csv"),
    (mfgsolver.runner, "paths_to_csv", "runner.csv"),
    (mfgsolver.runner, "save_checkpoint", "runner.checkpoint"),
    (mfgsolver.runner, "simulate_sde", "simulate.simulate_sde"),
    (mfgsolver.sa, "kw_step", "sa.kw_step"),
    (mfgsolver.lattice, "stencil_probabilities",
     "lattice.stencil_probabilities"),
    (mfgsolver.network, "fit_loss", "network.fit_loss"),
    (mfgsolver.network, "grad_fit_loss_raw", "network.grad_fit_loss_raw"),
    # the runner writes resume_state.npz through its module-level ``np``
    (np, "savez", "runner.checkpoint"),
]


class Tracer:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self, h1_coarse: float):
        self.h1_coarse = h1_coarse
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _wrap_sweep(self, fn):
        """Policy sweeps run on both lattices; name them by the lattice."""
        coarse = self._wrap(fn, "lattice.value_sweep_coarse")
        fine = self._wrap(fn, "lattice.value_sweep_fine")
        h1 = self.h1_coarse

        def traced(problem, lattice, *args, **kwargs):
            sweep = coarse if lattice.spacing == h1 else fine
            return sweep(problem, lattice, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module, attr, name in _WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        sweep = mfgsolver.runner.policy_value_sweep
        self._saved.append((mfgsolver.runner, "policy_value_sweep", sweep))
        mfgsolver.runner.policy_value_sweep = self._wrap_sweep(sweep)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> list:
        """Self time of every span: duration minus its children's."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return dict(out)

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` made directly under ``parent_name``."""
        return sum(1 for name, parent, _, _ in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _csv_bytes(out_dir: str) -> int:
    names = ("value_coarse.csv", "value_fine.csv", "controls.csv",
             "measures.csv", "paths.csv")
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)


def _sa_trace_stats(out_dir: str):
    """Projected-step share and mean per-phase gain G_last - G_first."""
    phases: dict = defaultdict(list)
    projected = 0
    with open(os.path.join(out_dir, "trace_sa.jsonl")) as fh:
        for line in fh:
            entry = json.loads(line)
            phases[entry["k"]].append(entry["G"])
            projected += bool(entry["projected"])
    n_steps = sum(len(g) for g in phases.values())
    gain = sum(g[-1] - g[0] for g in phases.values()) / len(phases)
    return projected / n_steps, gain


def layer_metrics(tracer: Tracer, solve_s: float, out_dir: str,
                  report) -> dict:
    """Per-layer metrics of one traced solve, in seconds, counts or ratios."""
    s = tracer.summary()

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    fits = calls("network.fit_to_grid")
    trials = tracer.child_calls("network.fit_to_grid", "network.fit_loss")
    accepted = tracer.child_calls("network.fit_to_grid",
                                  "network.grad_fit_loss_raw") - fits
    kw_total = s.get("sa.kw_step", {}).get("total_s", 0.0)
    csv_s = self_s("runner.csv")
    projected_frac, gain = _sa_trace_stats(out_dir)
    traced = sum(row["self_s"] for row in s.values())
    m = {
        "lattice.stencil_probabilities.calls":
            calls("lattice.stencil_probabilities"),
        "lattice.stencil_probabilities.self_s":
            self_s("lattice.stencil_probabilities"),
        "lattice.dp_backward_sweep.self_s": self_s("lattice.dp_backward_sweep"),
        "lattice.value_sweep_coarse.self_s":
            self_s("lattice.value_sweep_coarse"),
        "lattice.value_sweep_fine.self_s": self_s("lattice.value_sweep_fine"),
        "measures.induced_measure.self_s": self_s("measures.induced_measure"),
        "measures.average.self_s": self_s("measures.average"),
        "measures.fixed_point_gap.calls": calls("measures.fixed_point_gap"),
        "measures.fixed_point_gap.self_s": self_s("measures.fixed_point_gap"),
        "measures.w2_gap": report["w2_gap"],
        "network.fit_to_grid.self_s": self_s("network.fit_to_grid"),
        "network.fit_loss.self_s": self_s("network.fit_loss"),
        "network.grad_fit_loss_raw.self_s":
            self_s("network.grad_fit_loss_raw"),
        "network.fit.grad_calls": calls("network.grad_fit_loss_raw"),
        "network.fit.accept_ratio": accepted / trials if trials else 0.0,
        "sa.train.self_s": self_s("sa.train"),
        "sa.kw_step.calls": calls("sa.kw_step"),
        "sa.kw_step.self_s": self_s("sa.kw_step"),
        "sa.kw_step.s_per_step":
            kw_total / calls("sa.kw_step") if calls("sa.kw_step") else 0.0,
        "sa.improvement.calls": calls("sa.improvement"),
        "sa.improvement.self_s": self_s("sa.improvement"),
        "sa.evals_per_s": calls("sa.improvement") / kw_total if kw_total
        else 0.0,
        "sa.projected_frac": projected_frac,
        "sa.gain": gain,
        "sa.best_g": report["sa_best_g"],
        "simulate.simulate_sde.self_s": self_s("simulate.simulate_sde"),
        "runner.csv.self_s": csv_s,
        "runner.csv.mb_per_s": _csv_bytes(out_dir) / 1e6 / csv_s if csv_s
        else 0.0,
        "runner.checkpoint.self_s": self_s("runner.checkpoint"),
        "runner.glue_s": solve_s - traced,
        "trace.solve_s": solve_s,
        "trace.spans": len(tracer.spans),
    }
    return m
