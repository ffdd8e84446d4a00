"""numpy is the package's one runtime dependency.

Every import in ``src/mfgsolver``, those inside functions included, is of
the standard library, numpy or the package itself, and ``pyproject.toml``
lists numpy alone at runtime.  scipy is a test dependency only: the
references of ``tests/references.py`` use it.  With scipy blocked, every CLI
command and both shipped models run.  The subprocess tests run a fresh
interpreter, so what the test process itself has imported does not count.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

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


def imported_modules(path):
    """The top-level name of every absolute import in the file at ``path``,
    at any depth; relative imports are of the package itself."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library_and_numpy():
    package = os.path.join(SRC, "mfgsolver")
    allowed = set(sys.stdlib_module_names) | {"numpy", "mfgsolver"}
    seen, foreign = set(), []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            for module in imported_modules(os.path.join(package, name)):
                seen.add(module)
                if module not in allowed:
                    foreign.append(f"{name}: {module}")
    assert not foreign
    assert {"numpy", "json", "zipfile"} <= seen  # the walk sees imports


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(HERE, "..", "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


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


def test_every_command_runs_without_scipy(tmp_path):
    """A ``sys.meta_path`` finder makes ``import scipy`` fail; then
    ``validate``, ``riccati``, a tiny solve of each shipped model and
    ``simulate`` of its checkpoint all exit 0."""
    out = run_python("""
        import contextlib, io, json, sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(name + " is blocked")

        sys.meta_path.insert(0, NoScipy())
        from mfgsolver.cli import main
        from mfgsolver.runner import RunConfig

        argvs = [["validate"], ["riccati", "--n", "100"]]
        for model, h1, h2 in (("lq", 0.5, 0.05), ("mfg2d", 0.25, 0.025)):
            with open(model + ".cfg", "w") as fh:
                fh.write(RunConfig(
                    model=model, h1_coarse=h1, h2_coarse=h2, h1_fine=0.5,
                    h2_fine=0.05, control_points=5, hidden=(4,),
                    fit_max_steps=30, sa_max_steps=2, max_iters=3,
                    out_dir=model).to_ini())
            argvs += [["solve", "--config", model + ".cfg"],
                      ["simulate", "--checkpoint", model + "/theta_final.csv",
                       "--out", model + "/sim.csv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [[argv[0], main(argv)] for argv in argvs]
        assert "scipy" not in sys.modules
        print(json.dumps(codes))
        """, tmp_path)
    assert json.loads(out) == [["validate", 0], ["riccati", 0]] + [
        ["solve", 0], ["simulate", 0]] * 2
    for model in ("lq", "mfg2d"):
        assert (tmp_path / model / "sim.csv").exists()
