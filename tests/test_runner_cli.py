import collections
import configparser
import dataclasses
import io
import itertools
import json
import os
import shutil

import numpy as np
import pytest

import mfgsolver.lattice as lattice
import mfgsolver.runner as runner
import mfgsolver.simulate
from mfgsolver import checks
from mfgsolver.cli import main
from mfgsolver.errors import ConfigError
from mfgsolver.lattice import StepSizes
from mfgsolver.measures import fixed_point_gap
from mfgsolver.network import forward, grad_fit_loss_raw, load_checkpoint
from mfgsolver.problems import riccati_ode_solve
from mfgsolver.runner import CONFIG_SCHEMA, RunConfig, run_algorithm1
from mfgsolver.simulate import paths_to_csv, simulate_sde

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
        sa_max_steps=2,
        max_iters=3,
        seed=42,
        out_dir=str(out_dir),
    )
    kw.update(overrides)
    return RunConfig(**kw)


#: A tiny lq run meets its value trigger at k=2: the LQ population mean
#: stays near that of the initial law.  The tests of iterations 3 and 4 solve
#: this small mfg2d setup instead, which, like configs/mfg2d.cfg, freezes its
#: law at k=2 and, under stop_rule both or value, stops at k=4 by reusing k=3.
TINY_MFG2D = dict(model="mfg2d", h1_coarse=0.25, h2_coarse=0.025,
                  fit_max_steps=30)


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

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_shipped_config_sets_every_schema_key(self, name):
        # a missing key would silently take the dataclass default
        cp = configparser.ConfigParser()
        cp.read_string(shipped_config_text(name))
        keys = {(sec, key) for sec in cp.sections() if sec != "model"
                for key in cp.options(sec)}
        assert keys == {(sec, key) for sec, key, _, _ in CONFIG_SCHEMA}

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
        cfg = RunConfig.from_ini("[model]\nname = mfg2d\n[sa]\nmax_steps = 4\n")
        assert cfg == RunConfig(model="mfg2d", sa_max_steps=4)

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

    @pytest.mark.parametrize("out_dir", ["run%1", "a%%b%", "100%"])
    def test_percent_in_string_round_trips(self, out_dir):
        cfg = tiny_lq_config(out_dir)
        text = cfg.to_ini()
        assert RunConfig.from_ini(text) == cfg
        assert RunConfig.from_ini(text).to_ini() == text

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

    # (runner name, failing call, stop rule, max_iters); with max_iters = 3
    # policy_value_sweep call 3 is iteration 3's fine sweep and call 4 the
    # coarse sweep after the loop
    CRASHES = [("dp_backward_sweep", 2, "value", 3),
               ("fit_to_grid", 2, "value", 3), ("train", 2, "value", 3),
               ("policy_value_sweep", 3, "value", 3),
               ("policy_value_sweep", 4, "value", 3),
               ("save_checkpoint", 2, "value", 3), ("train", 3, "value", 3),
               # stops by W2 at k=2 of 3, then fails on the first artifact
               ("value_table_to_csv", 1, "either", 3),
               # stops at k=4 by reusing k=3: fail in the reused iteration's
               # checkpoint, and in the coarse sweep after the loop
               ("save_checkpoint", 4, "both", 4),
               ("policy_value_sweep", 4, "both", 4)]

    @pytest.mark.parametrize(
        "name,call,rule,iters", CRASHES,
        ids=[f"{n}-{c}" + ("-replay" if i == 4 else "")
             for n, c, _, i in CRASHES])
    def test_crash_then_resume_is_byte_identical(self, tmp_path, monkeypatch,
                                                 name, call, rule, iters):
        """A run stopped by a failure at a stage boundary of iteration 2, 3
        or 4, or while writing the artifacts after its stop rule fired, and
        then resumed leaves the same files as an uninterrupted run."""
        full = tiny_lq_config(tmp_path / "full", max_iters=iters,
                              stop_rule=rule, **TINY_MFG2D)
        report = run_algorithm1(full)
        if rule == "either":
            assert (report.iterations, report.stopped_by) == (2, "w2")
        if iters == 4:
            assert (report.iterations, report.first_w2_iter) == (4, 2)
            assert "replayed=1\n" in (tmp_path / "full" / "timing.txt"
                                       ).read_text()
        cfg = tiny_lq_config(tmp_path / "part", max_iters=iters,
                             stop_rule=rule, **TINY_MFG2D)
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

    @pytest.mark.parametrize("rule", ["value", "both"])
    def test_iteration_after_the_first_frozen_one_is_reused(
            self, tmp_path, monkeypatch, rule):
        """The law freezes at the W2 hit (k=2); k=4 repeats k=3 and reuses
        its result: no DP, fit, SA or fine sweep runs for it."""
        calls = collections.Counter()
        for name in ("dp_backward_sweep", "fit_to_grid", "train",
                     "policy_value_sweep"):
            def counted(*args, _name=name, _real=getattr(runner, name),
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(runner, name, counted)
        cfg = tiny_lq_config(tmp_path, max_iters=4, stop_rule=rule,
                             **TINY_MFG2D)
        report = run_algorithm1(cfg)
        assert (report.iterations, report.first_w2_iter,
                report.first_value_iter, report.stopped_by) == (4, 2, 4, rule)
        assert report.value_change == 0.0
        # three fine sweeps in the loop, one coarse sweep after it
        assert calls == {"dp_backward_sweep": 3, "fit_to_grid": 3,
                         "train": 3, "policy_value_sweep": 4}
        timing = dict(line.split("=") for line in
                      (tmp_path / "timing.txt").read_text().splitlines())
        assert timing.pop("replayed") == "1"
        assert sorted(timing) == sorted(
            f"{stage}_seconds" for stage in (
                "wall", "dp", "measure", "gap", "fit", "sa", "fine_sweep",
                "checkpoint", "artifacts"))
        assert all(float(v) >= 0.0 for v in timing.values())
        rows = [json.loads(line) for line in
                (tmp_path / "trace_sa.jsonl").read_text().splitlines()]
        by_k = {k: [{**r, "k": None} for r in rows if r["k"] == k]
                for k in (3, 4)}
        assert by_k[3] and by_k[3] == by_k[4]
        assert (tmp_path / "theta_checkpoint_k3.csv").read_bytes() == \
            (tmp_path / "theta_checkpoint_k4.csv").read_bytes()

    def test_no_reuse_before_the_law_freezes(self, tmp_path):
        cfg = tiny_lq_config(tmp_path, max_iters=4, stop_rule="either")
        assert run_algorithm1(cfg).iterations == 2
        assert "replayed=0\n" in (tmp_path / "timing.txt").read_text()

    def test_resume_matches_uninterrupted(self, tmp_path):
        full_cfg = tiny_lq_config(tmp_path / "full", max_iters=4,
                                  stop_rule="value", **TINY_MFG2D)
        run_algorithm1(full_cfg)
        part_cfg = tiny_lq_config(tmp_path / "part", max_iters=2,
                                  stop_rule="value", **TINY_MFG2D)
        run_algorithm1(part_cfg)
        part_cfg.max_iters = 4
        run_algorithm1(part_cfg, resume=True)
        assert (tmp_path / "full" / "theta_final.csv").read_bytes() == \
            (tmp_path / "part" / "theta_final.csv").read_bytes()

    def test_resume_state_holds_only_what_a_resume_cannot_rebuild(
            self, tiny_run):
        cfg, _ = tiny_run
        with np.load(os.path.join(cfg.out_dir, "resume_state.npz")) as blob:
            assert sorted(blob.files) == sorted(
                ["k", "m_bar", "m_induced", "theta", "first_w2",
                 "first_value", "best_g", "sa_objective"])

    def test_state_with_a_nan_fine_table_resumes_to_the_same_bytes(
            self, tmp_path):
        """A state in the layout that still stored the fine value table
        resumes, and its table is never read: filled with NaN it still
        leaves the files of an uninterrupted run."""
        full = tiny_lq_config(tmp_path / "full", max_iters=4,
                              stop_rule="value", **TINY_MFG2D)
        run_algorithm1(full)
        part = tiny_lq_config(tmp_path / "part", max_iters=2,
                              stop_rule="value", **TINY_MFG2D)
        run_algorithm1(part)
        steps_f, lat_f = part.build()[3:5]
        state = tmp_path / "part" / "resume_state.npz"
        with np.load(state) as blob:
            old = {k: blob[k] for k in blob.files}
        old["v_fine"] = np.full((steps_f.n_time + 1, lat_f.n_nodes), np.nan)
        np.savez(state, **old)
        part.max_iters = 4
        run_algorithm1(part, resume=True)
        names = sorted(os.listdir(full.out_dir))
        assert sorted(os.listdir(part.out_dir)) == names
        for fname in names:
            a = (tmp_path / "full" / fname).read_bytes()
            b = (tmp_path / "part" / fname).read_bytes()
            if fname == "config.copy":
                a = a.replace(b"full", b"part")
            if fname != "timing.txt":
                assert a == b, fname

    @staticmethod
    def resume_refused(tmp_path, capsys, edit, file="resume_state.npz",
                       **overrides):
        """Solve two iterations, rewrite the state by ``edit(path)``, then
        resume through the CLI, to four iterations and with ``overrides``:
        it must exit 2 with one line naming ``file`` of the run and leave
        every file as it was.  Returns that line."""
        cfg = tiny_lq_config(tmp_path / "out", max_iters=2,
                             stop_rule="value")
        run_algorithm1(cfg)
        state = tmp_path / "out" / "resume_state.npz"
        edit(state)
        before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        path = tmp_path / "tiny.cfg"
        path.write_text(dataclasses.replace(cfg, max_iters=4,
                                            **overrides).to_ini())
        assert main(["solve", "--config", str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert str(tmp_path / "out" / file) in err
        assert err.count("\n") == 1 and err.endswith("\n")
        after = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert after == before
        return err

    @staticmethod
    def rewrite_state(path, **changes):
        """Rewrite the state at ``path`` with ``changes``; a value of None
        drops that array."""
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays.update(changes)
        np.savez(path, **{k: v for k, v in arrays.items() if v is not None})

    @pytest.mark.parametrize("tag", [None, "mc", "exact"])
    def test_resume_under_another_objective_exit_2(self, tmp_path, capsys,
                                                   tag):
        # a state without the tag was written when SA scored the Monte-Carlo
        # estimate, one tagged "exact" by Kiefer-Wolfowitz steps on the exact
        # objective; resuming either would mix two optimisers in one run, so
        # it could not resume to the bytes of an uninterrupted run
        err = self.resume_refused(tmp_path, capsys, lambda state:
                                  self.rewrite_state(state, sa_objective=tag))
        assert "another SA objective" in err

    def test_resume_particle_layout_exit_2(self, tmp_path, capsys):
        """A state whose law is a particle path (n_time+1, n, d), as written
        before the law became node weights, is refused and left alone."""
        def particles(state):
            with np.load(state) as blob:
                n_time = blob["m_bar"].shape[0] - 1
            cloud = np.random.default_rng(0).uniform(0, 1,
                                                     (n_time + 1, 100, 1))
            self.rewrite_state(state, m_bar=cloud, m_induced=cloud)

        self.resume_refused(tmp_path, capsys, particles)

    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "empty"])
    def test_resume_unreadable_state_exit_2(self, tmp_path, capsys, damage):
        """A state cut short by a full disk, or with bytes changed inside
        an array, is refused: one line, not a zip traceback."""
        def spoil(state):
            data = bytearray(state.read_bytes())
            if damage == "truncated":
                data = data[:len(data) // 2]
            elif damage == "corrupt":
                data[len(data) // 2:len(data) // 2 + 64] = bytes(64)
            else:
                data = b""
            state.write_bytes(bytes(data))

        err = self.resume_refused(tmp_path, capsys, spoil)
        assert "not a readable resume state" in err

    @pytest.mark.parametrize("key", ["theta", "k", "best_g"])
    def test_resume_state_missing_a_key_exit_2(self, tmp_path, capsys, key):
        err = self.resume_refused(tmp_path, capsys, lambda state:
                                  self.rewrite_state(state, **{key: None}))
        assert f"lacks {key}" in err

    def test_resume_theta_of_another_network_exit_2(self, tmp_path, capsys):
        """A state saved under [network] hidden = 4 does not resume a run
        of hidden = 5: its theta has 17 entries, the network 21."""
        err = self.resume_refused(tmp_path, capsys, lambda state: None,
                                  hidden=(5,))
        assert "theta of shape (17,), not (21,)" in err

    @pytest.mark.parametrize("k", [0, -3, 1.5, 9])
    def test_resume_k_not_a_committed_iteration_exit_2(self, tmp_path,
                                                       capsys, k):
        """k is an integer >= 1, and the fixed-point trace ends at row k: a
        state of k = 9 beside a trace whose last row is k = 2 would report
        nine iterations after two were run."""
        err = self.resume_refused(
            tmp_path, capsys,
            lambda state: self.rewrite_state(state, k=np.array(k)),
            file="trace_fixedpoint.jsonl" if k == 9 else "resume_state.npz")
        assert ("does not end at the row of k = 9" if k == 9
                else "not an integer >= 1") in err

    @pytest.mark.parametrize("name,damage", [
        ("trace_fixedpoint.jsonl", "missing"),
        ("trace_fixedpoint.jsonl", "empty"),
        ("trace_fixedpoint.jsonl", "garbled"),
        ("trace_fixedpoint.jsonl", "cut"),
        ("trace_fixedpoint.jsonl", "fields"),
        ("trace_sa.jsonl", "missing"),
        ("trace_sa.jsonl", "garbled")])
    def test_resume_damaged_trace_exit_2(self, tmp_path, capsys, name,
                                         damage):
        """The traces are resume input as the state is: a missing trace, a
        row that is not JSON, or a fixed-point trace whose committed row is
        absent, cut short by a crash or without the stop test is refused."""
        def spoil(state):
            trace = state.with_name(name)
            rows = trace.read_text().splitlines(keepends=True)
            trace.unlink()
            last = {"garbled": '{"k": 2, oops}\n', "fields": '{"k": 2}\n',
                    "cut": rows[-1][:-9]}
            if damage == "empty":
                trace.write_text("")
            elif damage != "missing":
                trace.write_text("".join(rows[:-1]) + last[damage])

        self.resume_refused(tmp_path, capsys, spoil, file=name)

    @pytest.mark.parametrize("name,index,delta", [
        ("m_bar", (0, 0), np.nan), ("m_bar", (3, [0, 1]), [-0.1, 0.1]),
        ("m_induced", (-1, 0), 0.5), ("theta", 3, np.nan),
        ("theta", 3, np.inf)], ids=["m_bar-nan", "m_bar-negative",
                                     "m_induced-mass", "theta-nan",
                                     "theta-inf"])
    def test_resume_law_or_theta_out_of_range_exit_2(self, tmp_path, capsys,
                                                     name, index, delta):
        def spoil(state):
            with np.load(state) as blob:
                array = blob[name].copy()
            array[index] += delta
            self.rewrite_state(state, **{name: array})

        err = self.resume_refused(tmp_path, capsys, spoil)
        assert ("theta that is not finite" if name == "theta"
                else "a law at every time") in err


def _ode_off_by_2e6(params, n_steps):
    times, eta = riccati_ode_solve(params, n_steps)
    return times, eta + 2e-6


def _skewed_stencil(*args):
    # 1e-6 of the self-loop moves to the first neighbour: rows still sum to
    # 1, but the one-step mean is off by 1e-6 * h1
    probs = lattice.stencil_probabilities(*args).copy()
    probs[..., 0] -= 1e-6
    probs[..., 1] += 1e-6
    return probs


def _gradient_off_by_1e3(*args):
    loss, g = grad_fit_loss_raw(*args)
    return loss, g + 1e-3


def _first_axis_gap(w_a, w_b, points):
    # couples the x1 marginals only: exact in 1-D, blind to x2 in 2-D
    axis, node_x1 = np.unique(points[:, 0], return_inverse=True)

    def marginal(law):
        return np.stack([np.bincount(node_x1, row, len(axis)) for row in law])

    return fixed_point_gap(marginal(w_a), marginal(w_b), axis[:, None])


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

    def test_riccati_params_is_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["riccati", "--params", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad parameters: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_riccati_too_few_steps_exit_2(self, capsys):
        assert main(["riccati", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "bad parameters: n_steps must be >= 10\n"
        assert captured.out == ""

    def test_solve_missing_config_exit_2(self, capsys):
        assert main(["solve", "--config", "/nonexistent.cfg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_solve_config_is_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read config {tmp_path}: ")
        assert err.count("\n") == 1

    def test_solve_config_not_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[model]\nname = lq\n# caf\xe9\n")
        assert main(["solve", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read config {bad}: ")
        assert "utf-8" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        ("lq.cfg", "lattice", "h1_coarse", "-0.2", "h1_coarse"),
        ("lq.cfg", "lattice", "h2_coarse", "0.03", "h2_coarse"),
        ("lq.cfg", "lattice", "h1_fine", "0.07", "h1_fine"),
        ("lq.cfg", "lattice", "h2_coarse", "0", "h2_coarse"),
        ("lq.cfg", "lattice", "h2_fine", "0", "h2_fine"),
        ("lq.cfg", "sa", "n_mc", "0", "n_mc"),
        ("lq.cfg", "sa", "m_bound", "-1", "m_bound"),
        ("lq.cfg", "iteration", "max_iter", "1", "iteration/max_iter"),
        ("lq.cfg", "model", "sigmaa", "3.0", "model/sigmaa"),
        ("lq.cfg", "bogus", None, None, "[bogus]"),
        ("mfg2d.cfg", "model", "a", "3", "model/a"),
        # keys removed from the schema: a config that still sets one
        ("lq.cfg", "sa", "p_eps", "2.0", "p_eps"),
        ("lq.cfg", "sa", "eps0", "0", "eps0"),
        ("lq.cfg", "sa", "eps0", "nan", "eps0"),
        ("lq.cfg", "sa", "delta0", "0.5", "sa/delta0"),
        ("lq.cfg", "sa", "p_delta", "0.25", "sa/p_delta"),
        ("lq.cfg", "sa", "trigger", "1e-5", "sa/trigger"),
        ("lq.cfg", "sa", "control_band", "inf", "sa/control_band"),
        ("lq.cfg", "iteration", "initial_measure", "uncontrolled",
         "iteration/initial_measure"),
        ("lq.cfg", "iteration", "n_particles", "2000",
         "iteration/n_particles"),
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

    def test_solve_out_with_percent(self, tmp_path, capsys):
        cfg = tiny_lq_config(tmp_path / "unused")
        path = tmp_path / "tiny.cfg"
        path.write_text(cfg.to_ini())
        out = tmp_path / "run%1"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["model"] == "lq"
        copy = RunConfig.from_ini((out / "config.copy").read_text())
        assert copy.out_dir == str(out)

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        assert "passed" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_validate_passes_at_other_seeds(self, seed, capsys):
        assert main(["validate", "--seed", str(seed)]) == 0
        captured = capsys.readouterr()
        assert "passed" in captured.out and not captured.err

    # (attribute of mfgsolver.checks, its broken stand-in, the checks that
    # must fail)
    BROKEN = [
        ("riccati_ode_solve", _ode_off_by_2e6, ["riccati closed form vs ODE"]),
        ("stencil_probabilities", _skewed_stencil,
         ["lq interior rows", "mfg2d interior rows"]),
        ("grad_fit_loss_raw", _gradient_off_by_1e3, ["network gradient"]),
        ("fixed_point_gap", _first_axis_gap, ["fixed-point gap bounds"]),
    ]

    @pytest.mark.parametrize("attr,broken,names", BROKEN,
                             ids=[b[0] for b in BROKEN])
    def test_validate_failure_exits_1(self, monkeypatch, capsys, attr,
                                      broken, names):
        monkeypatch.setattr(checks, attr, broken)
        assert main(["validate"]) == 1
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == len(names)
        for line, name in zip(lines, names):
            assert line.startswith(f"FAIL: {name} (worst ")

    def test_simulate_from_checkpoint(self, tmp_path, capsys):
        cfg = tiny_lq_config(tmp_path / "out")
        run_algorithm1(cfg)
        ckpt = os.path.join(cfg.out_dir, "theta_final.csv")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--checkpoint", ckpt, "--paths", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("path_id,t,x1")

    def test_simulate_uses_the_run_that_wrote_the_checkpoint(
            self, tmp_path, monkeypatch):
        # h1 = 0.2: most nodes print inexactly, and so do the weights, so
        # measures.csv gives the law back to 12 digits, not bit for bit
        cfg = tiny_lq_config(tmp_path / "out", model_params={"sigma": 0.3},
                             h1_coarse=0.2, h2_coarse=0.02)
        run_algorithm1(cfg)
        ckpt = os.path.join(cfg.out_dir, "theta_final.csv")
        out = tmp_path / "sim.csv"
        seen = []

        def recording_sde(problem, policy, mbar_path, *args, **kwargs):
            seen.append(mbar_path)
            return simulate_sde(problem, policy, mbar_path, *args, **kwargs)

        monkeypatch.setattr(mfgsolver.simulate, "simulate_sde", recording_sde)
        assert main(["simulate", "--checkpoint", ckpt, "--paths", "3",
                     "--seed", "5", "--h2", "0.01", "--out", str(out)]) == 0
        # the run's problem and the law of its measures.csv, the mean path
        # reindexed to h2 = 0.01; the run's own law to 12 digits
        problem, _, lat_c = cfg.build()[:3]
        reindex = np.minimum(np.rint(np.arange(101) * 0.01 / 0.02)
                             .astype(int), 50)
        law = np.loadtxt(os.path.join(cfg.out_dir, "measures.csv"),
                         delimiter=",", skiprows=1)[:, -1].reshape(51, -1)
        mbar_path = (law @ lat_c.points)[reindex]
        assert np.array_equal(seen[0], mbar_path)
        with np.load(os.path.join(cfg.out_dir, "resume_state.npz")) as blob:
            np.testing.assert_allclose(
                mbar_path, (blob["m_bar"] @ lat_c.points)[reindex],
                rtol=0, atol=1e-11)
        arch, theta = load_checkpoint(ckpt)
        bundle = simulate_sde(
            problem, lambda t, x: forward(arch, theta, np.full(len(x), t), x),
            mbar_path, 3, StepSizes.for_horizon(1.0, 0.2, 0.01), 5,
            share_common_noise=True)
        paths_to_csv(bundle, tmp_path / "ref.csv")
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_simulate_without_config_copy_exit_2(self, tiny_run, tmp_path,
                                                 capsys):
        cfg, _ = tiny_run
        run = shutil.copytree(cfg.out_dir, tmp_path / "run")
        os.remove(run / "config.copy")
        assert main(["simulate", "--checkpoint",
                     str(run / "theta_final.csv"),
                     "--out", str(tmp_path / "sim.csv")]) == 2
        assert "config.copy" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_simulate_config_with_a_removed_key_exit_2(self, tiny_run,
                                                       tmp_path, capsys):
        # a run directory written while [sa] control_band was a key
        cfg, _ = tiny_run
        run = shutil.copytree(cfg.out_dir, tmp_path / "run")
        (run / "config.copy").write_text(with_key(
            (run / "config.copy").read_text(), "sa", "control_band", "inf"))
        assert main(["simulate", "--checkpoint",
                     str(run / "theta_final.csv"),
                     "--out", str(tmp_path / "sim.csv")]) == 2
        assert "sa/control_band" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_simulate_config_of_other_dimension_exit_2(self, tiny_run,
                                                       tmp_path, capsys):
        cfg, _ = tiny_run
        run = shutil.copytree(cfg.out_dir, tmp_path / "run")
        (run / "config.copy").write_text(
            tiny_lq_config(run, model="mfg2d").to_ini())
        assert main(["simulate", "--checkpoint",
                     str(run / "theta_final.csv"),
                     "--out", str(tmp_path / "sim.csv")]) == 2
        assert "dimension" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("tamper", ["negative weight", "truncated row"])
    def test_simulate_tampered_measures_exit_2(self, tiny_run, tmp_path,
                                               capsys, tamper):
        cfg, _ = tiny_run
        run = shutil.copytree(cfg.out_dir, tmp_path / "run")
        lines = (run / "measures.csv").read_text().splitlines(keepends=True)
        if tamper == "negative weight":
            fields = lines[5].rstrip("\n").split(",")
            fields[-1] = "-" + fields[-1]
            lines[5] = ",".join(fields) + "\n"
        else:
            lines = lines[:-1]
        (run / "measures.csv").write_text("".join(lines))
        assert main(["simulate", "--checkpoint",
                     str(run / "theta_final.csv"),
                     "--out", str(tmp_path / "sim.csv")]) == 2
        assert "measures.csv" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--h2", "0", "h1 and h2 must be positive"),
        ("--paths", "-1", "--paths must be >= 0, got -1")])
    def test_simulate_bad_option_exit_2(self, tiny_run, tmp_path, capsys,
                                        option, value, message):
        cfg, _ = tiny_run
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--checkpoint",
                     os.path.join(cfg.out_dir, "theta_final.csv"),
                     option, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_simulate_missing_checkpoint_exit_2(self, tmp_path):
        assert main(["simulate", "--checkpoint",
                     str(tmp_path / "none.csv")]) == 2
