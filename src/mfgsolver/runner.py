"""End-to-end fixed-point loop, configuration, and artifact emission.

Each global iteration: dynamic programming on the coarse lattice under the
current averaged law, the induced law by the chain's forward equation, 1/k
averaging, least-squares fit of the network to the grid policy,
projected gradient ascent on the exact objective, then a value sweep on the
fine lattice under the network control.
Stops on the Wasserstein gap, the value change, or both, per the configured
rule.  The coarse value table feeds only ``value_coarse.csv``, so it is swept
once, after the loop.

All randomness (the draws of the initial law and the network's initial
parameters) is derived from (seed, fixed tag) substreams that do not depend
on the iteration counter, and the induced law is exact.  Near the fixed
point every stage becomes piecewise constant in the averaged law, so the
loop can land exactly on a stationary point and the value change drops to
zero.  Once the W2 stop fires the law is frozen, so
the iteration after the first frozen one repeats it bit for bit: it reuses
that result and still writes its own trace rows and checkpoint (a resumed run
recomputes it).  ``timing.txt`` holds the wall seconds, the count of reused
iterations and the seconds spent per stage.

After each iteration ``resume_state.npz`` commits what a resume cannot
rebuild (``STATE_KEYS``): the laws, theta, the stop-test counters and the
best G.  The fine value table is a function of theta and the law, so a
resume rebuilds it with the committed iteration's fine sweep; ``load_state``
checks the state and both traces before the run writes anything.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import io
import itertools
import json
import operator
import os
import time
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, NegativeProbability, SolverError
from .lattice import (StepSizes, build_lattice, control_grid,
                      dp_backward_sweep, policy_value_sweep,
                      validate_stepsizes, value_table_to_csv,
                      control_field_to_csv)
from .measures import (average_update, fixed_point_gap, induced_measure,
                       is_law, measure_path_to_csv, w2_stop_threshold)
# not called here: kept only because perfbench/tracer.py wraps
# ``runner.systematic_resample`` by name, until ROADMAP item 7 drops the hook
from .measures import systematic_resample  # noqa: F401
from .network import (NetworkArchitecture, feedback, fit_to_grid, forward,
                      random_theta, save_checkpoint)
from .problems import (LqParams, MfgProblem, lq_problem, mfg2d_problem,
                       riccati_closed_form)
from .sa import gradient, improvement, train
from .seeding import substream
from .simulate import paths_to_csv, simulate_sde


def _widths(text: str) -> tuple:
    return tuple(int(w) for w in text.split(",") if w.strip())


#: Every INI key but ``[model]``, as (section, key, field, cast), in the
#: order ``to_ini`` writes them.  The defaults live in ``RunConfig``.
CONFIG_SCHEMA = (
    ("lattice", "h1_coarse", "h1_coarse", float),
    ("lattice", "h2_coarse", "h2_coarse", float),
    ("lattice", "h1_fine", "h1_fine", float),
    ("lattice", "h2_fine", "h2_fine", float),
    ("lattice", "control_points", "control_points", int),
    ("network", "hidden", "hidden", _widths),
    ("fit", "trigger", "fit_trigger", float),
    ("fit", "max_steps", "fit_max_steps", int),
    ("sa", "max_steps", "sa_max_steps", int),
    ("sa", "m_bound", "m_bound", float),
    ("iteration", "trigger", "iter_trigger", float),
    ("iteration", "max_iters", "max_iters", int),
    ("iteration", "w2_q", "w2_q", float),
    ("iteration", "stop_rule", "stop_rule", str),
    ("run", "seed", "seed", int),
    ("run", "out_dir", "out_dir", str),
    ("run", "n_eval_paths", "n_eval_paths", int),
)

#: The ``[model]`` scalars each model admits, besides ``name``.
MODEL_KEYS = {"lq": ("a", "q", "c", "epsilon", "rho", "sigma", "t"),
              "mfg2d": ("sigma", "horizon")}


@dataclass
class RunConfig:
    """Everything one solve needs; its INI keys are in ``CONFIG_SCHEMA``."""

    model: str = "lq"
    model_params: dict = field(default_factory=dict)
    h1_coarse: float = 0.2
    h2_coarse: float = 0.01
    h1_fine: float = 0.05
    h2_fine: float = 0.002
    control_points: int = 16
    hidden: tuple = (8,)
    fit_trigger: float = 1e-3
    fit_max_steps: int = 10_000
    sa_max_steps: int = 5000
    m_bound: float = 10.0
    iter_trigger: float = 1e-6
    max_iters: int = 50_000
    w2_q: float = 0.5
    stop_rule: str = "either"         # either | both | w2 | value
    seed: int = 0
    out_dir: str = "out"
    n_eval_paths: int = 3

    def __post_init__(self):
        if self.model not in MODEL_KEYS:
            raise ConfigError(f"unknown model '{self.model}'")
        for key, val in self.model_params.items():
            if key not in MODEL_KEYS[self.model]:
                raise ConfigError(f"unknown key model/{key} for {self.model}")
            if not np.isfinite(val):
                raise ConfigError(f"model/{key} must be finite, got {val}")
        for _, _, name, cast in CONFIG_SCHEMA:
            if cast is float and np.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got nan")
        for name in ("fit_max_steps", "sa_max_steps", "max_iters",
                     "control_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_eval_paths < 0:
            raise ConfigError("n_eval_paths must be >= 0")
        for name in ("fit_trigger", "iter_trigger", "m_bound"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.w2_q < 1.0:
            raise ConfigError("w2_q must lie in (0, 1)")
        if self.stop_rule not in ("either", "both", "w2", "value"):
            raise ConfigError(f"unknown stop_rule '{self.stop_rule}'")
        self.build()

    def to_ini(self) -> str:
        # str of a float is its repr; % is doubled so from_ini reads it back
        sections = {"model": {"name": self.model, **self.model_params}}
        for sec, key, name, _ in CONFIG_SCHEMA:
            val = getattr(self, name)
            text = ",".join(map(str, val)) if isinstance(val, tuple) \
                else str(val)
            sections.setdefault(sec, {})[key] = text.replace("%", "%%")
        cp = configparser.ConfigParser()
        cp.read_dict(sections)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unparsable config: {exc}") from exc
        try:
            model = cp.get("model", "name")
        except (configparser.NoSectionError, configparser.NoOptionError):
            raise ConfigError("missing key: model/name")
        schema = {(sec, key): (name, cast)
                  for sec, key, name, cast in CONFIG_SCHEMA}
        sections = {sec for sec, _ in schema} | {"model"}
        params, kwargs = {}, {}
        for sec in cp.sections():
            if sec not in sections:
                raise ConfigError(f"unknown section [{sec}]")
            for key in cp.options(sec):
                if sec == "model":
                    if key == "name":
                        continue
                    name, cast, target = key, float, params
                elif (sec, key) in schema:
                    (name, cast), target = schema[sec, key], kwargs
                else:
                    raise ConfigError(f"unknown key {sec}/{key}")
                try:
                    target[name] = cast(cp.get(sec, key))
                except (ValueError, configparser.Error) as exc:
                    raise ConfigError(f"bad value for {sec}/{key}") from exc
        return cls(model=model, model_params=params, **kwargs)

    def build_problem(self) -> MfgProblem:
        if self.model == "lq":
            return lq_problem(LqParams(**{("T" if k == "t" else k): v for k, v
                                          in self.model_params.items()}))
        return mfg2d_problem(**self.model_params)

    def build(self) -> tuple:
        """The objects a solve consumes: ``(problem, steps_c, lat_c, steps_f,
        lat_f, controls, arch)``.

        A value one of them rejects raises ``ConfigError`` naming its keys.
        """
        where = "bad model parameters"
        try:
            problem = self.build_problem()
            grids = []
            for tag in ("coarse", "fine"):
                h1, h2 = getattr(self, f"h1_{tag}"), getattr(self, f"h2_{tag}")
                where = f"h1_{tag}={h1}, h2_{tag}={h2}"
                steps = StepSizes.for_horizon(problem.horizon, h1, h2)
                grids += [steps, build_lattice(problem, steps)]
            where = f"hidden={self.hidden}"
            arch = NetworkArchitecture.for_problem(problem, hidden=self.hidden)
        except (ValueError, SolverError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        return (problem, *grids, control_grid(problem, self.control_points),
                arch)


@dataclass
class RunReport:
    """Final diagnostics of one solve."""

    model: str
    iterations: int
    value_change: float
    w2_gap: float
    w2_threshold: float
    stopped_by: str
    first_w2_iter: int | None
    first_value_iter: int | None
    sa_best_g: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _check_stepsizes(problem, grids, controls) -> None:
    """Reject infeasible (h1, h2) pairs before any numerical work.

    Each (lattice, steps) pair of ``grids`` is checked over the control
    grid with the population mean at every corner of the state box.
    """
    corners = itertools.product(*zip(problem.domain_lower,
                                     problem.domain_upper))
    for corner in corners:
        for lattice, steps in grids:
            try:
                validate_stepsizes(problem, lattice, steps, np.array(corner),
                                   controls)
            except NegativeProbability as exc:
                raise ConfigError(
                    f"h1={steps.h1}, h2={steps.h2}: {exc}") from exc


@contextlib.contextmanager
def _timed(totals: dict, stage: str):
    """Add the wall seconds spent in the block to ``totals[stage]``."""
    t0 = time.monotonic()
    try:
        yield
    finally:
        totals[stage] += time.monotonic() - t0


def _committed_rows(path: str, k: int) -> list:
    """The complete rows of the trace at ``path`` of iterations up to ``k``,
    the last committed one: a run that stopped before committing its state
    left later rows, and a crash can leave a last row without its newline.
    A missing file, or a complete row that is not a JSON object with an
    integer ``k``, raises ``ConfigError`` naming the file."""
    try:
        with open(path) as fh:
            rows = [row for row in fh if row.endswith("\n")]
        return [row for row in rows
                if operator.index(json.loads(row)["k"]) <= k]
    except (OSError, UnicodeDecodeError, ValueError, TypeError,
            KeyError) as exc:
        raise ConfigError(f"{path} is not a readable trace "
                          f"({type(exc).__name__}); {FRESH}") from exc


def reindex_mean_path(mbar_path: np.ndarray, steps_c: StepSizes,
                      steps_f: StepSizes) -> np.ndarray:
    """Reindex a mean path from the time grid of ``steps_c`` onto that of
    ``steps_f``, taking the nearest time."""
    idx = np.minimum(
        np.rint(np.arange(steps_f.n_time + 1) * steps_f.h2 / steps_c.h2)
        .astype(int), steps_c.n_time)
    return mbar_path[idx]


#: The SA tag of ``resume_state.npz``: projected ascent on the exact gradient.
SA_TAG = "exact-ascent"

#: The arrays of ``resume_state.npz``.  A state written while it still held
#: the fine value table ``v_fine`` resumes too; that table is never read.
STATE_KEYS = ("k", "m_bar", "m_induced", "theta", "first_w2", "first_value",
              "best_g", "sa_objective")

#: The traces a resume cuts back to its committed iteration.
TRACES = ("trace_fixedpoint.jsonl", "trace_sa.jsonl")

FRESH = "start a fresh run without --resume"


def load_state(path: str, arch, law_shape: tuple) -> tuple:
    """The arrays ``STATE_KEYS`` of the resume state at ``path`` and the
    committed rows of each of the ``TRACES`` beside it, checked: a readable
    ``.npz`` with every key, the SA tag ``SA_TAG``, an integer k >= 1, laws
    ``m_bar`` and ``m_induced`` of ``law_shape`` (``measures.is_law``),
    scalar counters, a finite theta of ``arch``, and traces that parse,
    the fixed-point one ending at row k.  Anything else raises
    ``ConfigError`` naming the file, before the run writes anything."""
    try:
        with np.load(path) as blob:
            state = {name: blob[name] for name in STATE_KEYS
                     if name in blob.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a readable resume state "
                          f"({type(exc).__name__}); {FRESH}") from exc
    # a state without the tag was written when SA scored the Monte-Carlo
    # estimate, one tagged "exact" by Kiefer-Wolfowitz steps on the exact
    # objective; continuing either would mix two optimisers in one run
    if "sa_objective" not in state or str(state["sa_objective"]) != SA_TAG:
        raise ConfigError(f"{path} was written under another SA objective; "
                          f"{FRESH}")
    missing = [name for name in STATE_KEYS if name not in state]
    if missing:
        raise ConfigError(f"{path} lacks {', '.join(missing)}; {FRESH}")
    # a particle path, weights on another lattice or a NaN cannot continue
    if not all(state[name].shape == law_shape and is_law(state[name])
               for name in ("m_bar", "m_induced")):
        raise ConfigError(f"{path} does not hold {law_shape} node weight "
                          f"tables that are a law at every time; {FRESH}")
    scalars = ("k", "first_w2", "first_value", "best_g")
    if any(state[name].shape != () for name in scalars):
        raise ConfigError(f"{path} does not hold scalar "
                          f"{', '.join(scalars)}; {FRESH}")
    k = state["k"]
    if not (np.issubdtype(k.dtype, np.integer) and k >= 1):
        raise ConfigError(f"{path} holds k = {k}, not an integer >= 1; "
                          f"{FRESH}")
    if state["theta"].shape != (arch.n_params,):
        raise ConfigError(f"{path} holds theta of shape "
                          f"{state['theta'].shape}, not ({arch.n_params},), "
                          f"the network of [network] hidden = "
                          f"{','.join(map(str, arch.hidden))}; {FRESH}")
    if not np.all(np.isfinite(state["theta"])):
        raise ConfigError(f"{path} holds a theta that is not finite; {FRESH}")
    rows = {name: _committed_rows(os.path.join(os.path.dirname(path), name),
                                  int(k)) for name in TRACES}
    last = json.loads((rows[TRACES[0]] or ["{}"])[-1])
    if last.get("k") != k or not {"w2_gap", "value_change", "w2_hit",
                                  "value_hit"} <= last.keys():
        raise ConfigError(f"{os.path.join(os.path.dirname(path), TRACES[0])}"
                          f" does not end at the row of k = {k}; {FRESH}")
    return state, rows


#: Draws of the initial sampler whose node counts make the initial law.
INITIAL_DRAWS = 20_000


def _initial_law(problem, lattice, steps, seed: int) -> tuple:
    """The node weights w0 (n_nodes,) of ``INITIAL_DRAWS`` draws of the
    initial sampler on the ``"init"`` substream, snapped to the lattice, and
    the chain's law from w0 under the midpoint control and the mean of w0."""
    w0 = np.bincount(lattice.indices_of(problem.initial_sampler(
        substream(seed, "init"), INITIAL_DRAWS)),
        minlength=lattice.n_nodes) / INITIAL_DRAWS
    mid = problem.control_midpoint()
    field = np.broadcast_to(mid, (steps.n_time, lattice.n_nodes, len(mid)))
    mbar_path = np.broadcast_to(w0 @ lattice.points,
                                (steps.n_time + 1, lattice.dims))
    return w0, induced_measure(problem, lattice, steps, field, mbar_path, w0)


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def run_algorithm1(config: RunConfig, resume: bool = False) -> RunReport:
    out = config.out_dir
    t_start = time.monotonic()

    problem, steps_c, lat_c, steps_f, lat_f, controls, arch = config.build()
    _check_stepsizes(problem, ((lat_c, steps_c), (lat_f, steps_f)), controls)
    threshold = w2_stop_threshold(config.w2_q, config.h1_coarse)
    resume_file = os.path.join(out, "resume_state.npz")
    law_shape = (steps_c.n_time + 1, lat_c.n_nodes)
    state, trace_rows = load_state(resume_file, arch, law_shape) \
        if resume and os.path.exists(resume_file) else (None, dict.fromkeys(
            TRACES, []))

    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.copy"), "w") as fh:
        fh.write(config.to_ini())

    # fixed-seed substreams: identical inputs give identical iterations,
    # which lets the loop hit an exact stationary point
    theta_init = random_theta(arch, substream(config.seed, "theta0"))
    w0, m_bar = _initial_law(problem, lat_c, steps_c, config.seed)

    stage_s = dict.fromkeys(("dp", "measure", "gap", "fit", "sa", "fine_sweep",
                             "checkpoint", "artifacts"), 0.0)

    def fine_sweep(theta):
        """Step 6: the fine value table of the network of theta under the
        current mean path, reindexed to the fine times.  A resume rebuilds
        the table of the committed iteration with it, so the state file
        need not hold that table."""
        with _timed(stage_s, "fine_sweep"):
            return policy_value_sweep(
                problem, lat_f, steps_f,
                reindex_mean_path(mbar_path, steps_c, steps_f),
                feedback(arch, theta))

    k_start = 1
    if state is not None:
        k_start = int(state["k"]) + 1
        m_bar = state["m_bar"]
        mbar_path = m_bar @ lat_c.points
        m_induced_prev = state["m_induced"]
        theta = state["theta"]
        first_w2 = int(state["first_w2"]) if state["first_w2"] >= 0 else None
        first_value = int(state["first_value"]) \
            if state["first_value"] >= 0 else None
        best_g = float(state["best_g"])
        # a frozen law is not simulated again: read the committed gap back
        last = json.loads(trace_rows[TRACES[0]][-1])
        gap = np.inf if last["w2_gap"] is None else last["w2_gap"]
        value_change = last["value_change"]
        # replay the stop test: a run that stopped stays stopped
        w2_hit, value_hit = last["w2_hit"], last["value_hit"]
        # the committed iteration's step 6, from the same theta and law
        v_prev = fine_sweep(theta)
    else:
        mbar_path = m_bar @ lat_c.points
        # value tables start from the terminal cost under the initial law
        g0 = problem.terminal_cost(lat_f.points, mbar_path[-1])
        v_prev = np.broadcast_to(g0, (steps_f.n_time + 1,
                                      lat_f.n_nodes)).copy()
        m_induced_prev = None
        theta = theta_init.copy()
        first_w2 = None
        first_value = None
        best_g = -np.inf
        gap = value_change = np.inf
        w2_hit = value_hit = False

    # a resumed run first cuts both traces back to the committed iteration
    trace_fp, trace_sa = (open(os.path.join(out, name), "w")
                          for name in TRACES)
    for fh, name in zip((trace_fp, trace_sa), TRACES):
        fh.writelines(trace_rows[name])
        fh.flush()

    k = k_start - 1
    rule = config.stop_rule
    replay, replayed = None, 0

    def iterate(k, measure_frozen):
        """Steps 1-6 of iteration ``k``: (fit loss, SA rows, theta, v_k)."""
        nonlocal m_bar, mbar_path, gap, m_induced_prev
        # Step 1: grid policy under the frozen averaged law
        with _timed(stage_s, "dp"):
            _, field_k = dp_backward_sweep(problem, lat_c, steps_c, mbar_path,
                                           controls)
        # once the measure fixed point is reached the law stays frozen, and
        # the remaining iterations refine the policy and value only
        if not measure_frozen:
            with _timed(stage_s, "measure"):
                # Step 2: induced law of the controlled chain
                m_new = induced_measure(problem, lat_c, steps_c, field_k,
                                        mbar_path, w0)
                # Step 3: damped averaging
                m_bar = average_update(m_bar, m_new, k)
                mbar_path = m_bar @ lat_c.points
            with _timed(stage_s, "gap"):
                gap = (fixed_point_gap(m_new, m_induced_prev, lat_c.points)
                       if m_induced_prev is not None else np.inf)
            m_induced_prev = m_new
        # Step 4: network fit to the grid policy (fixed init)
        with _timed(stage_s, "fit"):
            theta0, fit_loss = fit_to_grid(
                arch, theta_init, field_k, lat_c, steps_c,
                trigger=config.fit_trigger, max_steps=config.fit_max_steps,
                m_bound=config.m_bound)
        # Step 5: projected gradient ascent on the exact objective
        with _timed(stage_s, "sa"):
            sa_trace: list = []
            sa_args = (problem, lat_c, steps_c, mbar_path, arch)
            theta = train(theta0, config.m_bound, config.sa_max_steps,
                          functools.partial(improvement, *sa_args),
                          functools.partial(gradient, *sa_args),
                          trace=sa_trace)

        # Step 6: value sweep on the fine lattice under the network control
        return fit_loss, sa_trace, theta, fine_sweep(theta)

    try:
        while True:
            hit = {"w2": w2_hit, "value": value_hit,
                   "either": w2_hit or value_hit,
                   "both": first_w2 is not None and first_value is not None}
            if hit[rule] or k >= config.max_iters:
                break
            k += 1
            frozen = first_w2 is not None
            if replay is None:
                try:
                    result = iterate(k, frozen)
                except SolverError as exc:
                    raise type(exc)(f"iteration {k}: {exc}") from exc
                # a frozen iteration depends only on the frozen law and fixed
                # seeds, so the next one would repeat it bit for bit
                replay = result if frozen else None
            else:
                result, replayed = replay, replayed + 1
            fit_final_loss, sa_trace, theta, v_k = result
            for entry in sa_trace:
                trace_sa.write(json.dumps({**entry, "k": k}) + "\n")
            best_g = max(best_g, *(e["G"] for e in sa_trace))
            # Step 7: squared value change on the fine lattice
            value_change = float(np.sum((v_k - v_prev) ** 2))
            v_prev = v_k

            w2_hit = gap < threshold
            value_hit = value_change < config.iter_trigger
            if w2_hit and first_w2 is None:
                first_w2 = k
            if value_hit and first_value is None:
                first_value = k
            trace_fp.write(json.dumps({
                "k": k, "w2_gap": None if not np.isfinite(gap) else gap,
                "threshold": threshold, "value_change": value_change,
                "fit_loss": fit_final_loss,
                "w2_hit": w2_hit, "value_hit": value_hit}) + "\n")
            trace_fp.flush()
            trace_sa.flush()

            with _timed(stage_s, "checkpoint"):
                save_checkpoint(
                    os.path.join(out, f"theta_checkpoint_k{k}.csv"), arch,
                    theta)
                # write then rename, so a crash never leaves a torn state file
                with open(resume_file + ".tmp", "wb") as fh:
                    np.savez(fh, k=k, m_bar=m_bar, m_induced=m_induced_prev,
                             theta=theta,
                             first_w2=-1 if first_w2 is None else first_w2,
                             first_value=-1 if first_value is None
                             else first_value,
                             best_g=best_g, sa_objective=SA_TAG)
                os.replace(resume_file + ".tmp", resume_file)
    finally:
        trace_fp.close()
        trace_sa.close()
    stopped_by = "budget" if not hit[rule] else rule if rule != "either" \
        else "w2" if w2_hit else "value"

    policy = feedback(arch, theta)
    t_artifacts = time.monotonic()
    # final artifacts; the coarse value table feeds only value_coarse.csv
    u_net = policy_value_sweep(problem, lat_c, steps_c, mbar_path, policy)
    value_table_to_csv(os.path.join(out, "value_coarse.csv"), lat_c, steps_c,
                       u_net)
    value_table_to_csv(os.path.join(out, "value_fine.csv"), lat_f, steps_f,
                       v_prev)
    control_field_to_csv(os.path.join(out, "controls.csv"), lat_f, steps_f,
                         policy)
    measure_path_to_csv(os.path.join(out, "measures.csv"), lat_c, steps_c,
                        m_bar)
    save_checkpoint(os.path.join(out, "theta_final.csv"), arch, theta)
    bundle = simulate_sde(problem, policy, mbar_path, config.n_eval_paths,
                          steps_c, int(substream(config.seed, "paths")
                                       .integers(2 ** 62)),
                          share_common_noise=problem.has_common_noise)
    paths_to_csv(bundle, os.path.join(out, "paths.csv"))

    report = RunReport(
        model=config.model, iterations=k, value_change=value_change,
        w2_gap=float(gap) if np.isfinite(gap) else -1.0,
        w2_threshold=threshold, stopped_by=stopped_by,
        first_w2_iter=first_w2, first_value_iter=first_value,
        sa_best_g=best_g if np.isfinite(best_g) else -1.0)
    with open(os.path.join(out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    stage_s["artifacts"] = time.monotonic() - t_artifacts
    # wall time lives outside report.json so reruns stay byte-identical
    with open(os.path.join(out, "timing.txt"), "w") as fh:
        fh.write(f"wall_seconds={time.monotonic() - t_start:.3f}\n"
                 f"replayed={replayed}\n")
        fh.writelines(f"{stage}_seconds={secs:.3f}\n"
                      for stage, secs in stage_s.items())
    return report


# ---------------------------------------------------------------------------
# Benchmark evaluation against the closed-form equilibrium
# ---------------------------------------------------------------------------

def evaluate_lq_policy(params: LqParams, arch, theta, steps: StepSizes,
                       scenario_seed: int, n_particles: int = 10_000):
    """Roll the learned policy through a common-noise scenario.

    Simulates ``n_particles`` agents sharing one common-noise path; the
    analytic benchmark trajectory is driven by the same increments.
    Returns time-averaged errors: control vs (q + eta)(u - x) along our own
    states, empirical conditional mean vs 0.5 + rho*sigma*W0, and the
    representative state vs its analytic twin.
    """
    rng = substream(scenario_seed, "lqeval")
    n_time = steps.n_time
    sq = np.sqrt(steps.h2)
    times = steps.times()
    eta = riccati_closed_form(params, times)
    rho, sig = params.rho, params.sigma
    mix = np.sqrt(1.0 - rho ** 2)

    dw0 = rng.standard_normal(n_time) * sq
    w0 = np.concatenate([[0.0], np.cumsum(dw0)])
    u_an = 0.5 + rho * sig * w0

    x0 = rng.uniform(0.0, 1.0, size=n_particles)
    x_hat = x0.copy()
    x_an = x0.copy()
    err_alpha = 0.0
    err_u = 0.0
    err_x = 0.0
    u_hat_path = np.empty(n_time + 1)
    u_hat_path[0] = x_hat.mean()
    for n in range(n_time):
        t = times[n]
        u_hat = x_hat.mean()
        al_hat = forward(arch, theta, np.full(n_particles, t),
                         x_hat[:, None])[:, 0]
        al_bench = (params.q + eta[n]) * (u_hat - x_hat)
        err_alpha += np.mean(np.abs(al_hat - al_bench))
        err_u += abs(u_hat - u_an[n])
        err_x += np.mean(np.abs(x_hat - x_an))
        dw = rng.standard_normal(n_particles) * sq
        noise = sig * (rho * dw0[n] + mix * dw)
        x_hat = x_hat + (params.a * (u_hat - x_hat) + al_hat) * steps.h2 + noise
        al_an = (params.q + eta[n]) * (u_an[n] - x_an)
        x_an = x_an + (params.a * (u_an[n] - x_an) + al_an) * steps.h2 + noise
        u_hat_path[n + 1] = x_hat.mean()
    err_u += abs(u_hat_path[-1] - u_an[-1])
    err_x += np.mean(np.abs(x_hat - x_an))
    return {
        "alpha": err_alpha / n_time,
        "mean": err_u / (n_time + 1),
        "state": err_x / (n_time + 1),
        "u_hat": u_hat_path,
        "u_analytic": u_an,
    }
