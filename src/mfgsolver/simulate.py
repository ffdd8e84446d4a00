"""Forward path simulation of the continuous dynamics.

Euler-Maruyama paths under a feedback policy and a frozen mean path of the
population, shape (n_time + 1, d), optionally driven by a shared
common-noise increment across all paths, as a PathBundle that is written to
``paths.csv``.  The approximating chain is never sampled: its expectations
are exact (``lattice``, ``measures``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LengthMismatch
from .lattice import csv_blocks
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
