"""Particle paths of the population law for the mean-field interaction.

A particle path is a float array of shape (n_time + 1, n, d): slice ``n``
holds n equal-weight atoms of the law at time index ``n``.  The models see
the law only through its mean path, shape (n_time + 1, d).  The fixed-point
iteration simulates the optimally controlled chain to get the induced law,
mixes it into the running average with 1/k weights, and stops once the
squared Wasserstein-2 gap drops below (2q/(1-q)) * h1^2.

The mixed law is a weighted cloud of the old and the new atoms; systematic
resampling with a midpoint comb brings it back to n equal atoms.  The weights
are the same in every slice, so the mixing step is one deterministic
selection of particle indices, applied to all slices at once.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import LengthMismatch
from .lattice import csv_blocks, run_chain
from .seeding import substream


def mean_path(path: np.ndarray) -> np.ndarray:
    """Mean of every slice of a particle path, shape (n_time + 1, d)."""
    return np.full(path.shape[1], 1.0 / path.shape[1]) @ path


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def systematic_resample(weights: np.ndarray, n: int,
                        offset: float = 0.5) -> np.ndarray:
    """Indices of n equal-weight atoms drawn by systematic resampling.

    ``weights`` are the nonnegative atom weights, summing to 1.  ``offset``
    in [0, 1) positions the comb; the default midpoint comb makes the
    operation deterministic.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    u = (offset + np.arange(n)) / n
    return np.searchsorted(cum, u, side="left")


# ---------------------------------------------------------------------------
# Averaging and distances
# ---------------------------------------------------------------------------

def average_update(m_bar_prev: np.ndarray, m_new: np.ndarray, k: int):
    """Damped fixed-point update: (k-1)/k of the old average + 1/k of the
    new law, slice by slice.

    Returns the mixed cloud, shape (n_time + 1, n_old + n_new, d), and its
    atom weights, shared by every slice.  At k = 1 the old atoms weigh 0.
    """
    if len(m_bar_prev) != len(m_new):
        raise LengthMismatch("measure paths differ in length")
    if k < 1:
        raise ValueError("k must be >= 1")
    w_old = (k - 1) / k
    w_new = 1.0 / k
    n_old, n_new = m_bar_prev.shape[1], m_new.shape[1]
    weights = np.concatenate([np.full(n_old, 1.0 / n_old) * w_old,
                              np.full(n_new, 1.0 / n_new) * w_new])
    return np.concatenate([m_bar_prev, m_new], axis=1), weights


def wasserstein2(a: np.ndarray, b: np.ndarray, n_atoms: int = 256) -> float:
    """Exact W2 between the equal-atom representations of two clouds.

    ``a`` and ``b`` are (n, d) clouds of equal-weight atoms.  1-D uses
    sorted quantile matching; d >= 2 solves the assignment problem on the
    squared-Euclidean cost matrix.  Clouds of different sizes, or with more
    than ``n_atoms`` atoms, are first resampled to ``n_atoms`` equal atoms
    with a deterministic midpoint comb.
    """
    if a.shape[0] != b.shape[0] or a.shape[0] > n_atoms:
        a = a[systematic_resample(np.full(len(a), 1.0 / len(a)), n_atoms)]
        b = b[systematic_resample(np.full(len(b), 1.0 / len(b)), n_atoms)]
    if a.shape[1] == 1:
        sa = np.sort(a[:, 0])
        sb = np.sort(b[:, 0])
        return float(np.sqrt(np.mean((sa - sb) ** 2)))
    # summed one axis at a time: no (n, n, d) temporary, the same additions
    cost = (a[:, None, 0] - b[None, :, 0]) ** 2
    for i in range(1, a.shape[1]):
        cost += (a[:, None, i] - b[None, :, i]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def fixed_point_gap(m_a: np.ndarray, m_b: np.ndarray,
                    n_atoms: int = 256) -> float:
    """Max over time of the squared W2 distance between two particle paths."""
    if len(m_a) != len(m_b):
        raise LengthMismatch("measure paths differ in length")
    return max(wasserstein2(x, y, n_atoms) ** 2 for x, y in zip(m_a, m_b))


def w2_stop_threshold(q: float, h1: float) -> float:
    """Fixed-point stopping threshold (2q/(1-q)) * h1^2 for q in (0,1)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return 2.0 * q / (1.0 - q) * h1 ** 2


# ---------------------------------------------------------------------------
# Induced measure by chain simulation
# ---------------------------------------------------------------------------

def induced_measure(problem, lattice, steps, controls, mbar_path: np.ndarray,
                    n_particles: int, seed: int) -> np.ndarray:
    """Particle path (n_time + 1, n_particles, d) of the chain under
    ``controls`` and a frozen mean path: ``lattice.run_chain`` on the
    ``"induced"`` substream from the initial law snapped to the lattice."""
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    rng = substream(seed, "induced")
    nodes = lattice.indices_of(problem.initial_sampler(rng, n_particles))
    path = np.empty((steps.n_time + 1, n_particles, lattice.dims))
    run_chain(problem, lattice, steps, controls, mbar_path, nodes, rng, path)
    return path


def measure_path_to_csv(path: np.ndarray, steps, file_path) -> None:
    n_particles, d = path.shape[1:]
    header = "t,particle_id," + ",".join(f"x{i+1}" for i in range(d)) + ",weight"
    block = csv_blocks(np.arange(n_particles), d,
                       np.full(n_particles, 1.0 / n_particles))
    with open(file_path, "w") as fh:
        fh.write(header + "\n")
        for n, sl in enumerate(path):
            fh.write(block(n * steps.h2, sl))
