"""Forward path simulation and Monte-Carlo cost estimation.

Two regimes: Euler-Maruyama paths of the continuous dynamics (optionally
driven by a shared common-noise increment across all paths), and paths of
the approximating chain on the lattice.  Both produce a PathBundle that can
be costed against a frozen mean path of the population, shape
(n_time + 1, d), or written to CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LengthMismatch
from .lattice import chain_step, csv_blocks, step_stencils
from .seeding import substream


@dataclass
class PathBundle:
    """Simulated trajectories with the controls actually applied.

    states: (n_paths, n_time + 1, d); controls: (n_paths, n_time, k);
    common_noise: cumulative W0 at each time, (n_time + 1,), or None.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    common_noise: np.ndarray | None = None

    def __post_init__(self):
        n_time = self.times.shape[0] - 1
        if self.states.shape[1] != n_time + 1:
            raise LengthMismatch("states length must match times")
        if self.controls.shape[1] != n_time:
            raise LengthMismatch("controls must have one entry per step")
        if self.common_noise is not None and \
                self.common_noise.shape[0] != n_time + 1:
            raise LengthMismatch("common noise length must match times")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def grid_policy(lattice, field: np.ndarray, steps):
    """Feedback callable from a grid control field (snap-to-grid lookup)."""

    def policy(t, x):
        n = min(int(round(t / steps.h2)), field.shape[0] - 1)
        return field[n][lattice.indices_of(np.atleast_2d(x))]

    return policy


def simulate_sde(problem, policy, mbar_path, n_paths: int, steps, seed: int,
                 x0=None, share_common_noise: bool = False) -> PathBundle:
    """Euler-Maruyama under a feedback policy and a frozen mean path.

    ``policy(t, x)`` maps a (n_paths, d) state batch to (n_paths, k)
    controls.  With ``share_common_noise`` on a common-noise problem, every
    path sees the same W0 increments mixed with idiosyncratic noise as
    sigma * (rho dW0 + sqrt(1 - rho^2) dW); the W0 path is returned so the
    conditional-equilibrium benchmark can be evaluated on it.  States are
    clamped into the domain box only when the model declares it bounded.
    """
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    rng = substream(seed, "sde")
    d = problem.dim
    sq = np.sqrt(steps.h2)
    if x0 is None:
        x = problem.initial_sampler(rng, n_paths)
    else:
        x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, d)).copy()
    states = np.empty((n_paths, steps.n_time + 1, d))
    controls = np.empty((n_paths, steps.n_time, problem.control_dim))
    states[:, 0] = x
    w0 = None
    if share_common_noise and problem.has_common_noise:
        dw0 = rng.standard_normal(steps.n_time) * sq
        w0 = np.concatenate([[0.0], np.cumsum(dw0)])
        rho = problem.noise_rho
        mix = np.sqrt(1.0 - rho ** 2)
    for n in range(steps.n_time):
        t = n * steps.h2
        al = np.asarray(policy(t, x), dtype=float)
        controls[:, n] = al
        b = np.asarray(problem.drift(t, x, mbar_path[n], al), dtype=float)
        b = np.broadcast_to(b, x.shape)
        dw = rng.standard_normal((n_paths, d)) * sq
        if w0 is not None:
            dw = rho * dw0[n] + mix * dw
        x = x + b * steps.h2 + dw @ problem.volatility.T
        if problem.bounded_domain:
            x = np.clip(x, problem.domain_lower, problem.domain_upper)
        states[:, n + 1] = x
    return PathBundle(times=steps.times(), states=states, controls=controls,
                      common_noise=w0)


def simulate_chain(problem, lattice, steps, controls, mbar_path,
                   n_paths: int, seed: int, x0=None) -> PathBundle:
    """Paths of the chain under the controls of ``lattice.step_stencils``,
    with the controls applied: ``chain_step`` on the ``"chain"`` substream
    from ``x0`` snapped to the lattice, or from the initial law."""
    rng = substream(seed, "chain")
    if x0 is None:
        nodes = lattice.indices_of(problem.initial_sampler(rng, n_paths))
    else:
        nodes = np.full(n_paths, lattice.index_of(np.asarray(x0, dtype=float)))
    states = np.empty((n_paths, steps.n_time + 1, problem.dim))
    applied = np.empty((n_paths, steps.n_time, problem.control_dim))
    states[:, 0] = lattice.points[nodes]
    for n, layer, probs in step_stencils(problem, lattice, steps, controls,
                                         mbar_path):
        applied[:, n] = layer[nodes]
        nodes = chain_step(lattice, probs, nodes, rng)
        states[:, n + 1] = lattice.points[nodes]
    return PathBundle(times=steps.times(), states=states, controls=applied)


def estimate_cost(problem, bundle: PathBundle, mbar_path, steps):
    """Sample mean and standard error of the pathwise cost functional.

    Riemann sum of the running cost on the left endpoints plus the terminal
    cost, averaged over paths.
    """
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    totals = np.zeros(bundle.n_paths)
    for n in range(steps.n_time):
        t = n * steps.h2
        totals += problem.running_cost(
            t, bundle.states[:, n], mbar_path[n],
            bundle.controls[:, n]) * steps.h2
    totals += problem.terminal_cost(bundle.states[:, -1], mbar_path[-1])
    mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / np.sqrt(bundle.n_paths)) \
        if bundle.n_paths > 1 else 0.0
    return mean, se


def paths_to_csv(bundle: PathBundle, file_path) -> None:
    d = bundle.states.shape[2]
    k = bundle.controls.shape[2]
    header = ("path_id,t," + ",".join(f"x{i+1}" for i in range(d)) + ","
              + ",".join(f"a{i+1}" for i in range(k)))
    noise = () if bundle.common_noise is None else (bundle.common_noise,)
    if noise:
        header += ",w0"
    n_rows = bundle.times.shape[0]
    # last row repeats the final control (none is applied at T)
    cn = np.minimum(np.arange(n_rows), bundle.controls.shape[1] - 1)
    block = csv_blocks(bundle.times, d + k + len(noise))
    with open(file_path, "w") as fh:
        fh.write(header + "\n")
        for pid in range(bundle.n_paths):
            fh.write(block(pid, np.column_stack((
                bundle.states[pid], bundle.controls[pid, cn], *noise))))
