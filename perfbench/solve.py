"""One benchmark operation in a fresh interpreter.

    python3 perfbench/solve.py setup CONFIG
    python3 perfbench/solve.py solve CONFIG OUT_DIR RESULT_JSON
    python3 perfbench/solve.py trace CONFIG OUT_DIR RESULT_JSON

``setup`` imports the solver, parses CONFIG and prints the
``time.monotonic()`` reading at which the ``RunConfig`` is ready; that clock
is shared by all processes, so the caller measures interpreter start to
ready.  ``solve`` runs ``run_algorithm1`` into OUT_DIR and writes the wall
and CPU time of that call, the peak resident memory of this process, the
report, the artifact sizes and digests and, for the LQ model, the
closed-form accuracy to RESULT_JSON.  ``trace`` does the same with the
layer tracer installed and adds the per-layer metrics.
"""

import hashlib
import json
import os
import resource
import sys
import time

from mfgsolver.runner import RunConfig, run_algorithm1

# criterion 7 of the acceptance suite: scenarios and 10,000 particles
LQ_SCENARIOS = (101, 202, 303)
LQ_PARTICLES = 10_000


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _artifacts(out_dir):
    """Size and SHA-256 of every file except the wall-clock ``timing.txt``."""
    digests, total = {}, 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        total += os.path.getsize(path)
        if name != "timing.txt":
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return total, digests


def _lq_errors(cfg, out_dir):
    """Max over the criterion-7 scenarios of the three LQ error measures."""
    from mfgsolver.lattice import StepSizes
    from mfgsolver.network import load_checkpoint
    from mfgsolver.problems import LqParams
    from mfgsolver.runner import evaluate_lq_policy

    arch, theta = load_checkpoint(os.path.join(out_dir, "theta_final.csv"))
    steps = StepSizes.for_horizon(1.0, cfg.h1_coarse, cfg.h2_coarse)
    runs = [evaluate_lq_policy(LqParams(), arch, theta, steps, s,
                               n_particles=LQ_PARTICLES)
            for s in LQ_SCENARIOS]
    return {key: max(float(r[key]) for r in runs)
            for key in ("alpha", "mean", "state")}


def main(argv):
    mode, config_path = argv[0], argv[1]
    with open(config_path) as fh:
        cfg = RunConfig.from_ini(fh.read())
    if mode == "setup":
        print(repr(time.monotonic()))
        return 0
    out_dir, result_path = argv[2], argv[3]
    cfg.out_dir = out_dir
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer(cfg.h1_coarse)
        tracer.install()
    c0 = _cpu_s()
    t0 = time.perf_counter()
    run_algorithm1(cfg)
    solve_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - c0
    if tracer is not None:
        tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    artifact_bytes, digests = _artifacts(out_dir)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report_json = json.load(fh)
    result = {
        "solve_s": solve_s,
        "solve_cpu_s": cpu_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "artifact_mb": artifact_bytes / 1e6,
        "report": report_json,
        "digests": digests,
    }
    if cfg.model == "lq":
        result["lq_errors"] = _lq_errors(cfg, out_dir)
    if tracer is not None:
        from tracer import layer_metrics
        tracer.write(result_path + ".spans.jsonl")
        result["layers"] = layer_metrics(tracer, solve_s, out_dir,
                                         report_json)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
