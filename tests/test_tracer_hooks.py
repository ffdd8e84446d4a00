"""The benchmark tracer wraps solver attributes by name; a rename in the
solver must fail here, not only in a traced benchmark run."""

import importlib.util
import os
import sys

import mfgsolver.runner

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                      "tracer.py")


def load_tracer(monkeypatch):
    # import without writing a bytecode cache next to the benchmark files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_attribute(monkeypatch):
    tracer = load_tracer(monkeypatch)
    targets = [(module, attr) for module, attr, _ in tracer._WRAPPED]
    targets.append((mfgsolver.runner, "policy_value_sweep"))
    before = [getattr(module, attr) for module, attr in targets]
    t = tracer.Tracer(0.2)
    try:
        t.install()
        for (module, attr), fn in zip(targets, before):
            assert getattr(module, attr) is not fn, attr
    finally:
        t.uninstall()
    for (module, attr), fn in zip(targets, before):
        assert getattr(module, attr) is fn, attr


def test_traced_solve_records_the_sa_and_fit_layers(monkeypatch, tmp_path):
    """Every SA phase writes a trace row, and a step goes through the hooks
    the benchmark reads: ``train``, ``kw_step``, the runner's
    ``improvement`` and the fit."""
    tracer = load_tracer(monkeypatch)
    cfg = mfgsolver.runner.RunConfig(
        h1_coarse=0.5, h2_coarse=0.05, h1_fine=0.5, h2_fine=0.05,
        control_points=5, hidden=(4,), fit_max_steps=150, sa_max_steps=2,
        max_iters=2, seed=42, out_dir=str(tmp_path))
    t = tracer.Tracer(cfg.h1_coarse)
    t.install()
    try:
        mfgsolver.runner.run_algorithm1(cfg)
    finally:
        t.uninstall()
    summary = t.summary()
    for name in ("sa.train", "sa.kw_step", "sa.improvement",
                 "network.fit_to_grid"):
        assert summary.get(name, {}).get("calls", 0) >= 1, name
    projected_frac, gain = tracer._sa_trace_stats(str(tmp_path))
    assert 0.0 <= projected_frac <= 1.0 and gain >= 0.0
