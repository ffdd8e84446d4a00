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
