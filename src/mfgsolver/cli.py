"""Command-line entry point.

Subcommands: ``solve`` runs the full fixed-point loop from a config file;
``riccati`` tabulates the closed-form Riccati solution and its ODE
cross-check; ``validate`` runs the structural checks of ``checks`` (Riccati
closed form, transition rows, network gradient, the bounds of the
fixed-point gap); ``simulate`` rolls out a saved policy checkpoint under the
law of the run that saved it.  No command needs more than numpy.
Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, SolverError


def _cmd_solve(args) -> int:
    from .runner import RunConfig, run_algorithm1

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = RunConfig.from_ini(text)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = args.out
        report = run_algorithm1(config, resume=args.resume)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    print(report.to_json(), end="")
    return 0


def _cmd_riccati(args) -> int:
    from .problems import LqParams, riccati_closed_form, riccati_ode_solve

    try:
        kw = {}
        if args.params:
            with open(args.params) as fh:
                for line in map(str.strip, fh):
                    if line and not line.startswith("#"):
                        key, _, val = line.partition("=")
                        kw[key.strip()] = float(val)
        params = LqParams(**kw)
        times, eta_ode = riccati_ode_solve(params, args.n)
    except (OSError, ValueError, TypeError, SolverError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    eta_cf = riccati_closed_form(params, times)
    print("t,eta_closed_form,eta_ode,diff")
    for t, cf, od in zip(times, eta_cf, eta_ode):
        print(f"{t:.12g},{cf:.12g},{od:.12g},{cf - od:.6g}")
    gap = float(np.max(np.abs(eta_cf - eta_ode)))
    print(f"# max abs diff = {gap:.3e}", file=sys.stderr)
    return 0 if gap <= 1e-6 else 1


def _cmd_validate(args) -> int:
    """Fast structural self-checks, the ``checks`` the acceptance suite runs,
    on small samples drawn from ``--seed``."""
    from . import checks
    from .lattice import StepSizes, build_lattice
    from .network import NetworkArchitecture, random_theta
    from .problems import LqParams, lq_problem, mfg2d_problem
    from .seeding import substream

    rng = substream(args.seed, "validate")
    results = [checks.riccati(LqParams(), 2000)]
    for problem in (lq_problem(LqParams()), mfg2d_problem()):
        steps = StepSizes.for_horizon(problem.horizon, 0.2, 0.01)
        results.append(checks.interior_rows(
            problem, build_lattice(problem, steps), steps, rng, 20))
    arch = NetworkArchitecture(2, 1, (6,), 1.0, (0., 0.), (1., 1.),
                               (0.,), (1.,))
    # arguments are drawn left to right: theta, inputs, targets, coordinates
    results += [checks.network_gradient(
        arch, random_theta(arch, rng), rng.uniform(-1, 1, (5, 3)),
        rng.uniform(0, 1, (5, 1)), rng.choice(arch.n_params, 5, False)),
        checks.gap_bounds(rng, 20)]
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAIL: {r.name} (worst {r.worst:.3e})", file=sys.stderr)
    if failed:
        return 1
    print("all validation checks passed")
    return 0


def _read_law(file_path, lattice, steps) -> np.ndarray:
    """The (n_time+1, n_nodes) law of a ``measures.csv``, checked: a row per
    time and node, the nodes those of ``lattice`` to 12 digits, and weights
    >= 0 that sum to 1 within 1e-9 at every time (``measures.is_law``)."""
    from .measures import is_law

    table = np.loadtxt(file_path, delimiter=",", skiprows=1, ndmin=2)
    n_rows, d = (steps.n_time + 1) * lattice.n_nodes, lattice.dims
    if table.shape != (n_rows, d + 2):
        raise ValueError(f"measures.csv has shape {table.shape}, "
                         f"not {(n_rows, d + 2)}")
    nodes = np.tile(lattice.points, (steps.n_time + 1, 1))
    if np.any(np.abs(table[:, 1:-1] - nodes)
              > 1e-12 * np.maximum(1.0, np.abs(nodes))):
        raise ValueError("measures.csv nodes are not the coarse lattice's")
    law = table[:, -1].reshape(steps.n_time + 1, lattice.n_nodes)
    if not is_law(law):
        raise ValueError("measures.csv weights are not a law at every t")
    return law


def _cmd_simulate(args) -> int:
    """Roll out a checkpoint under the problem and the population law of the
    run that wrote it: ``config.copy`` and ``measures.csv`` beside it."""
    from .lattice import StepSizes
    from .network import feedback, load_checkpoint
    from .runner import RunConfig, reindex_mean_path
    from .simulate import paths_to_csv, simulate_sde

    if args.paths < 0:
        print(f"--paths must be >= 0, got {args.paths}", file=sys.stderr)
        return 2
    run_dir = os.path.dirname(args.checkpoint)
    try:
        arch, theta = load_checkpoint(args.checkpoint)
        with open(os.path.join(run_dir, "config.copy")) as fh:
            config = RunConfig.from_ini(fh.read())
        problem, steps_c, lat_c = config.build()[:3]
        d = problem.dim
        if (arch.state_dim, arch.control_dim) != (d, problem.control_dim):
            raise ConfigError(
                f"checkpoint state/control dimension {arch.state_dim}/"
                f"{arch.control_dim}, config.copy {d}/{problem.control_dim}")
        law = _read_law(os.path.join(run_dir, "measures.csv"), lat_c,
                        steps_c)
        steps = StepSizes.for_horizon(problem.horizon, steps_c.h1, args.h2)
    except (OSError, KeyError, ValueError, SolverError) as exc:
        print(f"cannot simulate {args.checkpoint}: {exc}", file=sys.stderr)
        return 2
    mbar_path = reindex_mean_path(law @ lat_c.points, steps_c, steps)
    bundle = simulate_sde(problem, feedback(arch, theta), mbar_path,
                          args.paths, steps, args.seed,
                          share_common_noise=problem.has_common_noise)
    paths_to_csv(bundle, args.out)
    print(f"wrote {args.paths} paths to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mfgsolver",
        description="Lattice-chain mean-field game solver")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the fixed-point loop")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("riccati", help="tabulate the Riccati solution")
    p.add_argument("--params", default=None)
    p.add_argument("--n", type=int, default=10_000)
    p.set_defaults(func=_cmd_riccati)

    p = sub.add_parser("validate", help="run built-in invariant checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="roll out a saved policy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--paths", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h2", type=float, default=0.01)
    p.add_argument("--out", default="paths.csv")
    p.set_defaults(func=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
