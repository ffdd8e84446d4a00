"""Command-line entry point.

Subcommands: ``solve`` runs the full fixed-point loop from a config file;
``riccati`` tabulates the closed-form Riccati solution and its ODE
cross-check; ``validate`` runs the built-in invariant suite; ``simulate``
rolls out a saved policy checkpoint under the law of the run that saved it.
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
        with open(args.config) as fh:
            config = RunConfig.from_ini(fh.read())
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    try:
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
        if args.params:
            kw = {}
            with open(args.params) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, _, val = line.partition("=")
                    kw[key.strip()] = float(val)
            params = LqParams(**kw)
        else:
            params = LqParams()
    except (FileNotFoundError, ValueError, TypeError, SolverError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    times, eta_ode = riccati_ode_solve(params, args.n)
    eta_cf = riccati_closed_form(params, times)
    print("t,eta_closed_form,eta_ode,diff")
    for t, cf, od in zip(times, eta_cf, eta_ode):
        print(f"{t:.12g},{cf:.12g},{od:.12g},{cf - od:.6g}")
    gap = float(np.max(np.abs(eta_cf - eta_ode)))
    print(f"# max abs diff = {gap:.3e}", file=sys.stderr)
    return 0 if gap <= 1e-6 else 1


def _cmd_validate(args) -> int:
    """Fast structural self-checks: stencil consistency, Riccati agreement,
    network gradient, measure metric axioms."""
    from .lattice import StepSizes, build_lattice, transition_row, \
        check_local_consistency
    from .measures import wasserstein2
    from .network import NetworkArchitecture, random_theta, fit_loss, \
        grad_fit_loss_raw
    from .problems import LqParams, lq_problem, mfg2d_problem, \
        riccati_closed_form, riccati_ode_solve
    from .seeding import substream

    failures = []
    rng = substream(args.seed, "validate")

    params = LqParams()
    times, eta_ode = riccati_ode_solve(params, 2000)
    if np.max(np.abs(riccati_closed_form(params, times) - eta_ode)) > 1e-6:
        failures.append("riccati closed form vs ODE")

    for problem in (lq_problem(params), mfg2d_problem()):
        steps = StepSizes.for_horizon(problem.horizon, 0.2, 0.01)
        lat = build_lattice(problem, steps)
        interior = np.flatnonzero(lat.interior_mask())
        for _ in range(20):
            idx = int(rng.choice(interior))
            al = rng.uniform(problem.control_lower, problem.control_upper)
            mbar = rng.uniform(problem.domain_lower, problem.domain_upper)
            t = float(rng.uniform(0.0, problem.horizon - steps.h2))
            row = transition_row(problem, lat, steps, t, idx, mbar, al)
            total = sum(p for _, p in row.targets)
            if abs(total - 1.0) > 1e-12 or min(p for _, p in row.targets) < 0:
                failures.append(f"{problem.name} row stochasticity")
                break
            if not check_local_consistency(row, problem, lat, steps, t, mbar,
                                           al).passed:
                failures.append(f"{problem.name} local consistency")
                break

    arch = NetworkArchitecture(2, 1, (6,), 1.0, (0., 0.), (1., 1.),
                               (0.,), (1.,))
    theta = random_theta(arch, rng)
    inputs = rng.uniform(-1, 1, (5, 3))
    targets = rng.uniform(0, 1, (5, 1))
    _, g = grad_fit_loss_raw(arch, theta, inputs, targets)
    h = 1e-6
    for j in rng.choice(arch.n_params, 5, replace=False):
        e = np.zeros(arch.n_params)
        e[j] = h
        fd = (fit_loss(arch, theta + e, inputs, targets)
              - fit_loss(arch, theta - e, inputs, targets)) / (2 * h)
        if abs(fd - g[j]) > 1e-5 * (abs(fd) + 1.0):
            failures.append("network gradient")
            break

    for _ in range(20):
        pts = [rng.normal(size=(4, 2)) for _ in range(3)]
        dab = wasserstein2(pts[0], pts[1])
        dbc = wasserstein2(pts[1], pts[2])
        dac = wasserstein2(pts[0], pts[2])
        if dac > dab + dbc + 1e-9 or abs(dab - wasserstein2(pts[1], pts[0])) > 1e-12:
            failures.append("wasserstein metric axioms")
            break
    if wasserstein2(pts[0], pts[0]) > 1e-12:
        failures.append("wasserstein identity")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("all validation checks passed")
    return 0


def _cmd_simulate(args) -> int:
    """Roll out a checkpoint under the problem and the population law of the
    run that wrote it: ``config.copy`` and ``measures.csv`` beside it."""
    from .lattice import StepSizes
    from .measures import mean_path
    from .network import forward, load_checkpoint
    from .runner import RunConfig, reindex_mean_path
    from .simulate import paths_to_csv, simulate_sde

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
        table = np.loadtxt(os.path.join(run_dir, "measures.csv"),
                           delimiter=",", skiprows=1, ndmin=2)
        if table.shape[1] != d + 3:
            raise ValueError(f"measures.csv has {table.shape[1]} columns")
        n = int(table[:, 1].max()) + 1
        # the atoms are coarse lattice nodes printed to 12 digits: snap back
        atoms = lat_c.points[lat_c.indices_of(table[:, 2:2 + d])]
        m_bar = atoms.reshape(steps_c.n_time + 1, n, d)
        steps = StepSizes.for_horizon(problem.horizon, steps_c.h1, args.h2)
    except (OSError, KeyError, ValueError, SolverError) as exc:
        print(f"cannot simulate {args.checkpoint}: {exc}", file=sys.stderr)
        return 2
    mbar_path = reindex_mean_path(mean_path(m_bar), steps_c, steps)

    def policy(t, x):
        return forward(arch, theta, np.full(x.shape[0], t), x)

    bundle = simulate_sde(problem, policy, mbar_path, args.paths, steps,
                          args.seed,
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
