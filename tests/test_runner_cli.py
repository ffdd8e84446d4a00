import configparser
import dataclasses
import io
import itertools
import json
import os

import numpy as np
import pytest

import mfgsolver.runner as runner
from mfgsolver.cli import main
from mfgsolver.errors import ConfigError
from mfgsolver.runner import CONFIG_SCHEMA, RunConfig, run_algorithm1

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def shipped_config_text(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return fh.read()


def with_key(text, section, key, value):
    """``text`` with ``key = value`` set in ``section`` (added if absent)."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if not cp.has_section(section):
        cp.add_section(section)
    if key is not None:
        cp[section][key] = value
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def tiny_lq_config(out_dir, **overrides):
    kw = dict(
        model="lq",
        model_params={},
        h1_coarse=0.5, h2_coarse=0.05,
        h1_fine=0.5, h2_fine=0.05,
        control_points=5,
        hidden=(4,),
        fit_trigger=1e-3, fit_max_steps=150,
        sa_max_steps=2, n_mc=4,
        max_iters=3,
        n_particles=100,
        seed=42,
        out_dir=str(out_dir),
    )
    kw.update(overrides)
    return RunConfig(**kw)


class TestRunConfig:
    def test_ini_round_trip(self, tmp_path):
        cfg = tiny_lq_config(tmp_path, model_params={"a": 0.1, "rho": 0.2})
        text = cfg.to_ini()
        back = RunConfig.from_ini(text)
        assert back == cfg

    def test_missing_model_name(self):
        with pytest.raises(ConfigError):
            RunConfig.from_ini("[lattice]\nh1_coarse = 0.2\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(model="nope")
        with pytest.raises(ConfigError):
            RunConfig(max_iters=0)
        with pytest.raises(ConfigError):
            RunConfig(w2_q=1.0)
        with pytest.raises(ConfigError):
            RunConfig(stop_rule="sometimes")

    def test_bundled_configs_parse(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in ("lq.cfg", "mfg2d.cfg"):
            with open(os.path.join(root, name)) as fh:
                cfg = RunConfig.from_ini(fh.read())
            assert cfg.model in ("lq", "mfg2d")

    @pytest.mark.parametrize("name", ["lq.cfg", "mfg2d.cfg"])
    def test_shipped_config_round_trip(self, name):
        cfg = RunConfig.from_ini(shipped_config_text(name))
        text = cfg.to_ini()
        assert RunConfig.from_ini(text) == cfg
        assert RunConfig.from_ini(text).to_ini() == text

    def test_schema_names_every_field_once(self):
        fields = [f.name for f in dataclasses.fields(RunConfig)
                  if f.name not in ("model", "model_params")]
        names = [name for _, _, name, _ in CONFIG_SCHEMA]
        assert sorted(names) == sorted(fields)
        keys = [(sec, key) for sec, key, _, _ in CONFIG_SCHEMA]
        assert len(set(keys)) == len(keys)

    def test_absent_keys_take_the_dataclass_defaults(self):
        assert RunConfig.from_ini("[model]\nname = lq\n") == RunConfig()
        cfg = RunConfig.from_ini("[model]\nname = mfg2d\n[sa]\nn_mc = 4\n")
        assert cfg == RunConfig(model="mfg2d", n_mc=4)

    @pytest.mark.parametrize("model,section,key,named", [
        ("lq", "bogus", None, "[bogus]"),
        ("lq", "iteration", "max_iter", "iteration/max_iter"),
        ("lq", "sa", "eps", "sa/eps"),
        ("lq", "model", "sigmaa", "model/sigmaa"),
        ("lq", "model", "horizon", "model/horizon"),
        ("mfg2d", "model", "a", "model/a"),
        ("mfg2d", "model", "t", "model/t")])
    def test_unknown_section_or_key_rejected(self, model, section, key,
                                             named):
        text = with_key(RunConfig(model=model).to_ini(), section, key, "1")
        with pytest.raises(ConfigError, match=named.replace("[", r"\[")):
            RunConfig.from_ini(text)

    def test_bad_interpolation_rejected(self):
        with pytest.raises(ConfigError, match="run/out_dir"):
            RunConfig.from_ini("[model]\nname = lq\n[run]\nout_dir = a%x\n")

    def test_wrong_model_key_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="model/a"):
            RunConfig(model="mfg2d", model_params={"a": 3.0})


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_lq_config(out)
    report = run_algorithm1(cfg)
    return cfg, report


class TestRunner:
    def test_artifacts_emitted(self, tiny_run):
        cfg, _ = tiny_run
        for name in ("config.copy", "trace_sa.jsonl", "trace_fixedpoint.jsonl",
                     "value_fine.csv", "value_coarse.csv", "controls.csv",
                     "measures.csv", "paths.csv", "report.json",
                     "theta_final.csv", "theta_checkpoint_k1.csv"):
            assert os.path.exists(os.path.join(cfg.out_dir, name)), name

    def test_report_consistent_with_trace(self, tiny_run):
        cfg, report = tiny_run
        with open(os.path.join(cfg.out_dir, "trace_fixedpoint.jsonl")) as fh:
            entries = [json.loads(line) for line in fh]
        assert entries[-1]["k"] == report.iterations
        assert entries[-1]["value_change"] == report.value_change

    def test_config_copy_round_trips(self, tiny_run):
        cfg, _ = tiny_run
        with open(os.path.join(cfg.out_dir, "config.copy")) as fh:
            assert RunConfig.from_ini(fh.read()) == cfg

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = tiny_lq_config(tmp_path / sub)
            run_algorithm1(cfg)
            outs.append(tmp_path / sub)
        for name in ("value_fine.csv", "value_coarse.csv", "controls.csv",
                     "measures.csv", "paths.csv", "report.json",
                     "theta_final.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_resume_state_written_atomically(self, tiny_run):
        cfg, report = tiny_run
        names = os.listdir(cfg.out_dir)
        assert "resume_state.npz" in names
        assert not [n for n in names if n.endswith(".tmp")]
        with np.load(os.path.join(cfg.out_dir, "resume_state.npz")) as blob:
            assert int(blob["k"]) == report.iterations

    @pytest.mark.parametrize("name,call", [
        ("dp_backward_sweep", 2), ("fit_to_grid", 2), ("train", 2),
        ("policy_value_sweep", 3), ("policy_value_sweep", 4),
        ("save_checkpoint", 2), ("train", 3)])
    def test_crash_then_resume_is_byte_identical(self, tmp_path, monkeypatch,
                                                 name, call):
        """A run stopped by a failure at a stage boundary of iteration 2 or
        3 and then resumed leaves the same files as an uninterrupted run."""
        full = tiny_lq_config(tmp_path / "full", max_iters=3,
                              stop_rule="value")
        run_algorithm1(full)
        cfg = tiny_lq_config(tmp_path / "part", max_iters=3,
                             stop_rule="value")
        real, calls = getattr(runner, name), itertools.count(1)

        def crash_on_call(*args, **kwargs):
            if next(calls) == call:
                raise RuntimeError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, name, crash_on_call)
        with pytest.raises(RuntimeError, match="injected"):
            run_algorithm1(cfg)
        monkeypatch.undo()
        run_algorithm1(cfg, resume=True)
        names = sorted(os.listdir(full.out_dir))
        assert sorted(os.listdir(cfg.out_dir)) == names
        for fname in names:
            a = (tmp_path / "full" / fname).read_bytes()
            b = (tmp_path / "part" / fname).read_bytes()
            if fname == "config.copy":
                a = a.replace(b"full", b"part")
            if fname != "timing.txt":
                assert a == b, fname

    def test_resume_matches_uninterrupted(self, tmp_path):
        full_cfg = tiny_lq_config(tmp_path / "full", max_iters=4,
                                  stop_rule="value")
        run_algorithm1(full_cfg)
        part_cfg = tiny_lq_config(tmp_path / "part", max_iters=2,
                                  stop_rule="value")
        run_algorithm1(part_cfg)
        part_cfg.max_iters = 4
        run_algorithm1(part_cfg, resume=True)
        assert (tmp_path / "full" / "theta_final.csv").read_bytes() == \
            (tmp_path / "part" / "theta_final.csv").read_bytes()


class TestCli:
    def test_riccati_terminal_row(self, capsys):
        assert main(["riccati", "--n", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,eta_closed_form,eta_ode,diff"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == 0.5

    def test_riccati_params_file(self, tmp_path, capsys):
        p = tmp_path / "params.txt"
        p.write_text("a=0.2\nq=0.1\nc=0.3\nepsilon=0.4\n")
        assert main(["riccati", "--params", str(p), "--n", "100"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(last[1]) == 0.3

    def test_riccati_bad_params_exit_2(self, tmp_path, capsys):
        p = tmp_path / "params.txt"
        p.write_text("epsilon=0.0\n")
        assert main(["riccati", "--params", str(p)]) == 2

    def test_solve_missing_config_exit_2(self, capsys):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_solve_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[lattice]\nh1_coarse = 0.2\n")
        assert main(["solve", "--config", str(bad)]) == 2
        assert "model/name" in capsys.readouterr().err

    @pytest.mark.parametrize("model,line", [
        ("lq", "sigma = abc"), ("lq", "sigma = -1.0"),
        ("mfg2d", "sigma = abc"), ("mfg2d", "sigma = -1.0"),
        ("lq", "sigma = nan"), ("lq", "sigma = inf"), ("lq", "t = nan"),
        ("mfg2d", "horizon = inf")])
    def test_solve_bad_model_scalar_exit_2(self, tmp_path, capsys, model,
                                           line):
        text = tiny_lq_config(tmp_path / "out").to_ini().replace(
            "name = lq", f"name = {model}\n{line}")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and line.split()[0] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,section,key,value,named", [
        ("lq.cfg", "network", "hidden", "x", "network/hidden"),
        ("lq.cfg", "network", "hidden", "0", "hidden"),
        ("lq.cfg", "sa", "p_eps", "2.0", "p_eps"),
        ("lq.cfg", "sa", "eps0", "0", "eps0"),
        ("lq.cfg", "lattice", "h1_coarse", "-0.2", "h1_coarse"),
        ("lq.cfg", "lattice", "h2_coarse", "0.03", "h2_coarse"),
        ("lq.cfg", "lattice", "h1_fine", "0.07", "h1_fine"),
        ("lq.cfg", "sa", "n_mc", "0", "n_mc"),
        ("lq.cfg", "sa", "m_bound", "-1", "m_bound"),
        ("lq.cfg", "iteration", "max_iter", "1", "iteration/max_iter"),
        ("lq.cfg", "model", "sigmaa", "3.0", "model/sigmaa"),
        ("lq.cfg", "bogus", None, None, "[bogus]"),
        ("mfg2d.cfg", "model", "a", "3", "model/a"),
        ("lq.cfg", "sa", "eps0", "nan", "eps0"),
        ("lq.cfg", "sa", "control_band", "nan", "control_band"),
        ("lq.cfg", "run", "n_eval_paths", "-1", "n_eval_paths")])
    def test_solve_bad_input_exit_2(self, tmp_path, capsys, name, section,
                                    key, value, named):
        """A bad key or value in a shipped config exits 2, names the key,
        and leaves no output directory behind."""
        out = tmp_path / "out"
        text = with_key(shipped_config_text(name), "run", "out_dir", str(out))
        path = tmp_path / "bad.cfg"
        path.write_text(with_key(text, section, key, value))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not out.exists()

    def test_solve_infeasible_stepsizes_exit_2(self, tmp_path, capsys):
        # h2/h1^2 = 1 on the fine lattice: the self-loop goes negative
        cfg = tiny_lq_config(tmp_path / "out", h1_fine=0.05, h2_fine=0.0025)
        path = tmp_path / "bad.cfg"
        path.write_text(cfg.to_ini())
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "h2=0.0025" in err
        assert not (tmp_path / "out").exists()

    def test_solve_tiny_run(self, tmp_path, capsys):
        cfg = tiny_lq_config(tmp_path / "out")
        path = tmp_path / "tiny.cfg"
        path.write_text(cfg.to_ini())
        assert main(["solve", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "lq"

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_simulate_from_checkpoint(self, tmp_path, capsys):
        cfg = tiny_lq_config(tmp_path / "out")
        run_algorithm1(cfg)
        ckpt = os.path.join(cfg.out_dir, "theta_final.csv")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--checkpoint", ckpt, "--paths", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("path_id,t,x1")

    def test_simulate_missing_checkpoint_exit_2(self, tmp_path):
        assert main(["simulate", "--checkpoint",
                     str(tmp_path / "none.csv")]) == 2
