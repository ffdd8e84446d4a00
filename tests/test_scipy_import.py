"""No solve loads scipy: the W2 gap works on node weights in any dimension.
Only ``wasserstein2`` of clouds in d >= 2, which ``validate`` calls, loads
``scipy.optimize``, on its first call.  Each test runs a fresh interpreter,
so what the test process itself has imported does not count."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

from test_measures import reference_w2

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
CONFIG_DIR = os.path.join(HERE, "..", "configs")


def run_python(code, tmp_path):
    """Run ``code`` in a fresh interpreter on the source tree; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_1d_solve_never_imports_scipy_optimize(tmp_path):
    out = run_python(f"""
        import sys
        import mfgsolver
        from mfgsolver.runner import RunConfig, run_algorithm1
        assert "scipy.optimize" not in sys.modules, "import"
        with open({os.path.join(CONFIG_DIR, "lq.cfg")!r}) as fh:
            RunConfig.from_ini(fh.read())
        assert "scipy.optimize" not in sys.modules, "parse"
        cfg = RunConfig(model="lq", h1_coarse=0.5, h2_coarse=0.05,
                        h1_fine=0.5, h2_fine=0.05, control_points=5,
                        hidden=(4,), fit_max_steps=150, sa_max_steps=2,
                        max_iters=3, seed=42, out_dir="run")
        report = run_algorithm1(cfg)
        assert "scipy.optimize" not in sys.modules, "solve"
        print(report.iterations)
        """, tmp_path)
    assert int(out) >= 2  # the W2 gap was taken at least once
    assert (tmp_path / "run" / "report.json").exists()


def test_2d_solve_never_imports_scipy(tmp_path):
    out = run_python(f"""
        import sys
        from mfgsolver.runner import RunConfig, run_algorithm1
        with open({os.path.join(CONFIG_DIR, "mfg2d.cfg")!r}) as fh:
            RunConfig.from_ini(fh.read()).build()
        assert "scipy" not in sys.modules, "parse"
        cfg = RunConfig(model="mfg2d", h1_coarse=0.25, h2_coarse=0.025,
                        h1_fine=0.5, h2_fine=0.05, control_points=5,
                        hidden=(4,), fit_max_steps=30, sa_max_steps=2,
                        max_iters=3, seed=42, out_dir="run")
        report = run_algorithm1(cfg)
        assert "scipy" not in sys.modules, "solve"
        print(report.first_w2_iter)
        """, tmp_path)
    assert int(out) == 2  # the W2 gap was taken, and it stopped the loop
    assert (tmp_path / "run" / "report.json").exists()


def test_2d_wasserstein_loads_the_solver_on_first_call(tmp_path):
    """On 2-D clouds the lazily imported solver gives the reference W2."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(60, 2))
    b = np.round(rng.uniform(-1, 2, size=(60, 2)), 1)
    out = run_python(f"""
        import json, sys
        import numpy as np
        from mfgsolver.measures import wasserstein2
        assert "scipy.optimize" not in sys.modules
        a = np.array({a.tolist()!r})
        b = np.array({b.tolist()!r})
        w = wasserstein2(a, b)
        assert "scipy.optimize" in sys.modules
        print(json.dumps(w.hex()))
        """, tmp_path)
    assert float.fromhex(json.loads(out)) == reference_w2(a, b)
