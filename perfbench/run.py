"""Benchmark of the mfgsolver fixed-point loop: time to equilibrium.

    python3 perfbench/run.py --workload lq --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 50

Run from the root of a source checkout; the solver is imported from
``src/`` with no install step.  Each workload is a config generated from a
shipped config (see ``WORKLOADS``) with ``[run] seed`` set to ``--seed``.
Every solve runs in a fresh interpreter, one at a time, with a fresh output
directory and single-threaded BLAS.

With ``--trace 0`` the run first times ``SETUP_REPEATS`` fresh interpreters
from start to a parsed ``RunConfig`` and reports their median, then repeats
untraced solves for about ``--seconds`` seconds and reports the mean wall
and CPU time of the solves (see ``_mean``) and the median of the other
end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced solves and reports the
per-layer metrics of the traced ones (see ``tracer.py``).  Every solve is
checked (``check``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, the metric
names and units coming from ``BENCHMARK.json``.  The lines above it print
every metric with its unit, including the accuracy and failure metrics that
are not in the JSON, and the environment.  The whole record, spans
included, goes to ``.perfbench_results/``.

``--workload all`` runs every workload with and without tracing and exits
with status 1 if any check failed.
"""

import argparse
import configparser
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")

# name -> (shipped config, overrides); the SA budget is cut so that a solve
# fits several times into one run (see README.md for what each one stresses)
WORKLOADS = {
    "lq": ("lq.cfg", {("sa", "max_steps"): "2"}),
    "mfg2d": ("mfg2d.cfg", {("sa", "max_steps"): "1"}),
}

SETUP_REPEATS = 9
MIN_SOLVES = 2
DEADLINE_S = 170.0          # whole run, set-up included
# criterion 7 (LQ accuracy against the Riccati equilibrium): reported for
# every LQ solve, not counted as a failure (see ``criterion7_shortfalls``)
LQ_BOUNDS = {"alpha": 0.1, "mean": 0.05, "state": 0.05}
# criterion 9
VALUE_TRIGGER = 1e-6
MAX_FIRST_W2_ITER = 50

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def _child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(args, 0)
    return subprocess.run([sys.executable, os.path.join(HERE, "solve.py"),
                           *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)


def environment():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: _child_env()[var] for var in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def workload_config(name, seed):
    """INI text of a workload: its shipped config with the overrides."""
    base, overrides = WORKLOADS[name]
    path = os.path.join(ROOT, "configs", base)
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found: run from a source checkout")
    cp = configparser.ConfigParser()
    cp.read(path)
    for (section, key), value in overrides.items():
        cp[section][key] = value
    cp["run"]["seed"] = str(seed)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def measure_setup(cfg_path, deadline):
    """Median seconds from a fresh interpreter to a parsed RunConfig."""
    samples = []
    # the first interpreter also compiles the bytecode cache: not counted
    for i in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        proc = _child(["setup", cfg_path], deadline)
        if proc.returncode != 0:
            raise BenchError(f"solver set-up failed:\n{proc.stderr}")
        if i:
            samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_solve(mode, cfg_path, work, index, deadline):
    """One solve in a fresh interpreter; its record, or an ``error``.

    Every solve writes to the same, freshly created ``out`` directory:
    ``config.copy`` records the path, and it must not differ between solves.
    """
    out = os.path.join(work, "out")
    result = os.path.join(work, f"{mode}{index}.json")
    shutil.rmtree(out, ignore_errors=True)
    try:
        proc = _child([mode, cfg_path, out, result], deadline)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": "killed at the run deadline"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"mode": mode,
                "error": f"exit status {proc.returncode}: {tail[0]}"}
    with open(result) as fh:
        rec = json.load(fh)
    rec["mode"] = mode
    return rec


def check(rec, model, reference):
    """Failed checks of one solve: empty when every check passed."""
    if "error" in rec:
        return [rec["error"]]
    bad = []
    rep = rec["report"]
    first = rep["first_w2_iter"]
    if first is None or first > MAX_FIRST_W2_ITER:
        bad.append(f"first_w2_iter {first} > {MAX_FIRST_W2_ITER}")
    if not 0.0 <= rep["w2_gap"] < rep["w2_threshold"]:
        bad.append(f"w2_gap {rep['w2_gap']} not below "
                   f"{rep['w2_threshold']}")
    if model == "mfg2d" and not rep["value_change"] < VALUE_TRIGGER:
        bad.append(f"value_change {rep['value_change']} >= {VALUE_TRIGGER}")
    for key in LQ_BOUNDS if model == "lq" else ():
        if not math.isfinite(rec["lq_errors"][key]):
            bad.append(f"lq {key} error {rec['lq_errors'][key]} not finite")
    differ = sorted(name for name in set(reference) | set(rec["digests"])
                    if reference.get(name) != rec["digests"].get(name))
    if differ:
        bad.append("artifacts differ from the first solve: "
                   + ", ".join(differ))
    return bad


def criterion7_shortfalls(rec):
    """LQ error measures of one solve that exceed the criterion-7 bounds.

    Criterion 7 is the acceptance suite's accuracy target for the shipped
    ``lq.cfg`` at its shipped seed.  The ``lq`` workload cuts the SA budget
    and runs at any ``--seed``, where the bounds were never claimed and are
    missed at some seeds; a miss is printed and recorded, not counted in
    ``failed``.
    """
    return [f"lq {key} error {rec['lq_errors'][key]:.4f} > {bound}"
            for key, bound in LQ_BOUNDS.items()
            if not rec["lq_errors"][key] <= bound]


def _median(recs, key):
    return statistics.median(r[key] for r in recs)


def _mean(recs, key):
    """Mean over solves, for times.

    The solves of one run do the same work, but a shared host's speed drifts
    by up to 1.5x over tens of seconds, longer than a solve; the mean over
    the whole run varies less from run to run than the median or minimum.
    """
    return statistics.fmean(r[key] for r in recs)


def measure(workload, seed, seconds, trace):
    """Config text, set-up seconds and solve records of one run."""
    cfg_text = workload_config(workload, seed)
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cfg_path = os.path.join(work, "workload.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(cfg_text)
        setup_s = None if trace else measure_setup(cfg_path, deadline)
        modes = ("solve", "trace") if trace else ("solve",)
        recs = []
        t0 = time.monotonic()
        while True:
            for mode in modes:
                recs.append(run_solve(mode, cfg_path, work, len(recs),
                                      deadline))
            rounds = len(recs) // len(modes)
            elapsed = time.monotonic() - t0
            per_round = elapsed / rounds
            if len(recs) >= MIN_SOLVES and elapsed + per_round > seconds:
                break
            if time.monotonic() + per_round > deadline:
                break
        if trace and "error" not in recs[1]:
            os.makedirs(RESULTS, exist_ok=True)
            shutil.copy(os.path.join(work, "trace1.json.spans.jsonl"),
                        os.path.join(RESULTS, f"{workload}.spans.jsonl"))
        return cfg_text, setup_s, recs
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)


def run_workload(workload, seed, seconds, trace, spec):
    """Measure one workload; returns (printable rows, contract result)."""
    model = WORKLOADS[workload][0].split(".")[0]
    env = environment()
    cfg_text, setup_s, recs = measure(workload, seed, seconds, trace)
    done = [r for r in recs if "error" not in r]
    reference = done[0]["digests"] if done else {}
    failures = {i: check(r, model, reference) for i, r in enumerate(recs)}
    failed = sum(1 for bad in failures.values() if bad)
    untraced = [r for r in done if r["mode"] == "solve"]
    traced = [r for r in done if r["mode"] == "trace"]
    if not untraced or (trace and not traced):
        raise BenchError("no solve completed: " + "; ".join(
            bad[0] for bad in failures.values() if bad))

    extra = {"fail_frac": (failed / len(recs), "ratio"),
             "solve_s.median": (_median(untraced, "solve_s"), "s"),
             "best_g": (statistics.median(r["report"]["sa_best_g"]
                                          for r in untraced), "objective"),
             "w2_gap": (statistics.median(r["report"]["w2_gap"]
                                          for r in untraced), "sq_state")}
    shortfalls = {}
    if model == "lq":
        shortfalls = {i: criterion7_shortfalls(r) for i, r in enumerate(recs)
                      if "error" not in r}
        shortfalls = {i: short for i, short in shortfalls.items() if short}
        extra["lq.criterion7_missed"] = (len(shortfalls) / len(done),
                                         "ratio")
        for key in LQ_BOUNDS:
            extra[f"lq.{key}_err"] = (statistics.median(
                r["lq_errors"][key] for r in untraced), "abs")
    if trace:
        names = spec["per_layer"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in names if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (_mean(traced, "solve_s")
                                      - _mean(untraced, "solve_s"))
    else:
        names = spec["end_to_end"]
        values = {key: _mean(untraced, key)
                  for key in ("solve_s", "solve_cpu_s")}
        values.update({key: _median(untraced, key)
                       for key in ("peak_rss_mb", "artifact_mb")})
        values["setup_s"] = setup_s
        values["iterations"] = statistics.median(
            r["report"]["iterations"] for r in untraced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names.items()}

    result = {"correct": failed == 0, "attempted": len(recs),
              "failed": failed, "metrics": metrics}
    rows = [f"workload {workload} seed {seed} trace {trace}: "
            f"{len(recs)} solves, {failed} failed"]
    rows += [f"  FAILED solve {i} ({recs[i]['mode']}): {'; '.join(bad)}"
             for i, bad in failures.items() if bad]
    rows += [f"  criterion 7 missed, solve {i} ({recs[i]['mode']}): "
             f"{'; '.join(short)}" for i, short in shortfalls.items()]
    rows += [f"  {name:40s} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    rows += [f"  {name:40s} {value:.6g} {unit}"
             for name, (value, unit) in extra.items()]
    rows.append("env " + json.dumps(env))
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  seconds=seconds, env=env, config=cfg_text,
                  extra={k: v for k, (v, _) in extra.items()},
                  failures=failures, criterion7_missed=shortfalls,
                  solves=recs)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}"
                                    ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return rows, result


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running solve is killed and reaped and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if args.workload != "all":
            rows, result = run_workload(args.workload, args.seed,
                                        args.seconds, args.trace, spec)
            print("\n".join(rows))
            print(json.dumps(result), flush=True)
            return 0
        all_correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                rows, result = run_workload(workload, args.seed,
                                            args.seconds, trace, spec)
                print("\n".join(rows), flush=True)
                all_correct &= result["correct"]
        return 0 if all_correct else 1
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
