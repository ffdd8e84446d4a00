"""Empirical measures for the mean-field interaction.

The population law at each time step is a weighted particle cloud.  The
fixed-point iteration simulates the optimally controlled chain to get the
induced law, mixes it into the running average with 1/k weights, and stops
once the squared Wasserstein-2 gap drops below (2q/(1-q)) * h1^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import LengthMismatch
from .seeding import substream


@dataclass
class EmpiricalMeasure:
    """Weighted particle cloud on R^d."""

    particles: np.ndarray   # (n, d)
    weights: np.ndarray     # (n,), nonnegative, sums to 1

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.particles.shape[0] != self.weights.shape[0]:
            raise LengthMismatch("particles and weights differ in length")
        if self.particles.shape[0] < 1:
            raise ValueError("measure needs at least one particle")
        if not np.all(np.isfinite(self.particles)):
            raise ValueError("particles must be finite")
        if np.any(self.weights < -1e-15):
            raise ValueError("weights must be nonnegative")
        s = self.weights.sum()
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {s}, not 1")
        self._mean: np.ndarray | None = None

    @classmethod
    def from_points(cls, points: np.ndarray) -> "EmpiricalMeasure":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, x) -> "EmpiricalMeasure":
        return cls(np.atleast_2d(np.asarray(x, dtype=float)), np.array([1.0]))

    def mean(self) -> np.ndarray:
        if self._mean is None:
            self._mean = self.weights @ self.particles
        return self._mean

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


@dataclass
class MeasurePath:
    """One EmpiricalMeasure per time index, length n_time + 1."""

    slices: list

    def __len__(self):
        return len(self.slices)

    def __getitem__(self, i):
        return self.slices[i]

    def __iter__(self):
        return iter(self.slices)

    @classmethod
    def constant(cls, measure: EmpiricalMeasure, n_time: int) -> "MeasurePath":
        return cls([measure] * (n_time + 1))


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def systematic_resample(measure: EmpiricalMeasure, n: int,
                        offset: float = 0.5) -> EmpiricalMeasure:
    """Systematic resampling to n equal-weight atoms.

    ``offset`` in [0, 1) positions the comb; the default midpoint comb makes
    the operation deterministic.
    """
    cum = np.cumsum(measure.weights)
    cum[-1] = 1.0
    u = (offset + np.arange(n)) / n
    idx = np.searchsorted(cum, u, side="left")
    return EmpiricalMeasure.from_points(measure.particles[idx])


# ---------------------------------------------------------------------------
# Averaging and distances
# ---------------------------------------------------------------------------

def average_update(m_bar_prev: MeasurePath, m_new: MeasurePath,
                   k: int) -> MeasurePath:
    """Damped fixed-point update: (k-1)/k of the old average + 1/k of the
    new law, slice by slice.  k = 1 returns the new path unchanged."""
    if len(m_bar_prev) != len(m_new):
        raise LengthMismatch("measure paths differ in length")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return MeasurePath(list(m_new.slices))
    w_old = (k - 1) / k
    w_new = 1.0 / k
    out = []
    for old, new in zip(m_bar_prev, m_new):
        particles = np.vstack([old.particles, new.particles])
        weights = np.concatenate([old.weights * w_old, new.weights * w_new])
        out.append(EmpiricalMeasure(particles, weights))
    return MeasurePath(out)


def _equalized_clouds(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                      n_atoms: int):
    """Common equal-weight representations for exact assignment."""
    def is_uniform(m):
        return np.allclose(m.weights, 1.0 / m.n_particles, atol=1e-12)

    if (is_uniform(mu) and is_uniform(nu)
            and mu.n_particles == nu.n_particles
            and mu.n_particles <= n_atoms):
        return mu.particles, nu.particles
    a = systematic_resample(mu, n_atoms).particles
    b = systematic_resample(nu, n_atoms).particles
    return a, b


def wasserstein2(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                 n_atoms: int = 256) -> float:
    """Exact W2 between the equal-atom representations of two clouds.

    1-D uses sorted quantile matching; d >= 2 solves the assignment problem
    on the squared-Euclidean cost matrix.  Clouds with more than ``n_atoms``
    support points (or non-uniform weights) are first resampled to
    ``n_atoms`` equal atoms with a deterministic midpoint comb.
    """
    a, b = _equalized_clouds(mu, nu, n_atoms)
    if a.shape[1] == 1:
        sa = np.sort(a[:, 0])
        sb = np.sort(b[:, 0])
        return float(np.sqrt(np.mean((sa - sb) ** 2)))
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def fixed_point_gap(m_a: MeasurePath, m_b: MeasurePath,
                    n_atoms: int = 256) -> float:
    """Max over time of the squared W2 distance between two paths."""
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

def induced_measure(problem, lattice, steps, controls, m_in: MeasurePath,
                    n_particles: int, seed: int) -> MeasurePath:
    """Law of the controlled chain under a frozen interaction path.

    ``controls`` is either a (n_time, n_nodes, k) grid control field or a
    callable ``(t, points) -> (n_nodes, k)``.  Particles start from the
    initial law snapped to the lattice; every slice has equal weights.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    from .lattice import stencil_probabilities

    rng = substream(seed, "induced")
    x0 = problem.initial_sampler(rng, n_particles)
    nodes = lattice.indices_of(x0)
    neigh = lattice.neighbor_indices()
    slices = [EmpiricalMeasure.from_points(lattice.points[nodes])]
    k = problem.control_dim
    for n in range(steps.n_time):
        t = n * steps.h2
        if callable(controls):
            layer = controls(t, lattice.points)
        else:
            layer = controls[n]
        probs = stencil_probabilities(problem, lattice, steps, t, m_in[n],
                                      layer[:, None, :])[:, 0]
        cum = np.cumsum(probs[nodes], axis=1)
        u = rng.uniform(size=n_particles)
        choice = np.argmax(cum > u[:, None], axis=1)
        nodes = neigh[nodes, choice]
        slices.append(EmpiricalMeasure.from_points(lattice.points[nodes]))
    return MeasurePath(slices)


def measure_path_to_csv(path_obj: MeasurePath, steps, file_path) -> None:
    d = path_obj[0].dim
    header = "t,particle_id," + ",".join(f"x{i+1}" for i in range(d)) + ",weight"
    with open(file_path, "w") as fh:
        fh.write(header + "\n")
        for n, m in enumerate(path_obj):
            t = n * steps.h2
            for pid in range(m.n_particles):
                coords = ",".join(f"{c:.12g}" for c in m.particles[pid])
                fh.write(f"{t:.12g},{pid},{coords},{m.weights[pid]:.12g}\n")
