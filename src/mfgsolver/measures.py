"""The population law for the mean-field interaction, as node weights.

A law path is a float array of shape (n_time + 1, n_nodes): row ``n`` holds
the weights of the coarse lattice nodes at time index ``n``, nonnegative and
summing to 1.  The models see the law only through its mean path
``law @ lattice.points``, shape (n_time + 1, d).  The fixed-point iteration
pushes a start law forward under the optimally controlled chain to get the
induced law, exactly, mixes it into the running average with 1/k weights,
and stops once the squared Wasserstein-2 gap drops below
(2q/(1-q)) * h1^2.

The gap compares two law paths time row by time row on the node weights
themselves.  In 1-D it is the exact squared W2, from the quantile coupling of
the two node CDFs.  On a d >= 2 tensor grid it is the Knothe-Rosenblatt cost:
the x1 marginals are coupled by quantiles, then, for each coupled pair of x1
values, the conditional laws of the remaining axes, recursively.  That
coupling is a transport plan, so the cost is an upper bound on the squared
W2 (Santambrogio, *Optimal Transport for Applied Mathematicians*, 2015,
section 2.3), and a gap below the threshold certifies W2 below it.
"""

from __future__ import annotations

import numpy as np

from . import lattice as lattice_module
from .errors import DimensionMismatch, LengthMismatch
from .lattice import _grid_table_to_csv, control_blocks


# ---------------------------------------------------------------------------
# Distances and averaging
# ---------------------------------------------------------------------------

def systematic_resample(weights: np.ndarray, n: int) -> np.ndarray:
    """Indices of n equal-weight atoms drawn by systematic resampling.

    ``weights`` are the nonnegative atom weights, summing to 1.  The comb
    sits at the midpoints (i + 1/2)/n, which makes the operation
    deterministic; an atom of zero weight is never drawn.  No solve calls
    it; the runner keeps a reference for the benchmark tracer.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    u = (0.5 + np.arange(n)) / n
    return np.searchsorted(cum, u, side="left")


def average_update(w_prev: np.ndarray, w_new: np.ndarray, k: int):
    """Damped fixed-point update: (k-1)/k of the old average + 1/k of the
    new law, row by row.  At k = 1 the result is the new law."""
    if len(w_prev) != len(w_new):
        raise LengthMismatch("measure paths differ in length")
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k - 1) / k * w_prev + w_new / k


def is_law(law: np.ndarray) -> bool:
    """Whether every row of ``law`` is a law: weights >= 0 that sum to 1
    within 1e-9 (so none is NaN or inf)."""
    return bool(np.all(law >= 0.0)
                and np.all(np.abs(law.sum(axis=-1) - 1.0) <= 1e-9))


def _quantile_coupling(a: np.ndarray, b: np.ndarray):
    """Monotone coupling of each row pair of ``a`` and ``b`` (B, n), laws on
    the same n sorted points: ``(i, j, mass)``, each (B, 2n), the pieces
    between the merged breakpoints of the two CDFs.  Piece k carries
    ``mass[:, k]`` from point ``i[:, k]`` of ``a`` to point ``j[:, k]`` of
    ``b``; a piece of zero mass may carry any index in range."""
    n = a.shape[1]
    cdfs = np.minimum(np.cumsum(np.stack([a, b]), axis=2), 1.0)
    cdfs[..., -1] = 1.0
    both = np.concatenate(cdfs, axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    mass = np.diff(np.take_along_axis(both, order, axis=1), axis=1,
                   prepend=0.0)
    # a piece of positive mass draws from the first point of each law whose
    # CDF has not been passed: the count of that law's breakpoints before it
    from_a = order < n
    i = np.minimum(np.cumsum(from_a, axis=1) - from_a, n - 1)
    j = np.minimum(np.cumsum(~from_a, axis=1) - ~from_a, n - 1)
    return i, j, mass


def _knothe_rosenblatt_cost(a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """Cost of the Knothe-Rosenblatt coupling of each row pair of ``a`` and
    ``b``, laws of shape (B, n_1, ..., n_d) on the grid of the sorted
    ``axes``: the exact squared W2 when d = 1, an upper bound on it else."""
    x = axes[0]
    if len(axes) == 1:
        i, j, mass = _quantile_coupling(a, b)
        return np.sum(mass * (x[i] - x[j]) ** 2, axis=1)
    rest = tuple(range(2, a.ndim))
    pa, pb = a.sum(axis=rest), b.sum(axis=rest)
    i, j, mass = _quantile_coupling(pa, pb)
    rows = np.arange(len(a))[:, None]

    def conditional(w, p, idx):
        # the laws of the other axes given x1 at each piece, (B * 2n, ...)
        w, p = w[rows, idx], p[rows, idx].reshape(idx.shape + (1,) * len(rest))
        return np.divide(w, p, out=np.zeros_like(w), where=p > 0).reshape(
            (-1,) + w.shape[2:])

    inner = _knothe_rosenblatt_cost(conditional(a, pa, i),
                                    conditional(b, pb, j), axes[1:])
    return np.sum(mass * ((x[i] - x[j]) ** 2 + inner.reshape(mass.shape)),
                  axis=1)


def fixed_point_gap(w_a: np.ndarray, w_b: np.ndarray,
                    points: np.ndarray) -> float:
    """Max over time of the squared W2 gap between two law paths (n_time + 1,
    n_nodes) on the nodes ``points`` (n_nodes, d), a tensor grid in
    ``indexing="ij"`` order as ``Lattice.points`` is: exact in 1-D, the
    Knothe-Rosenblatt upper bound in d >= 2.  Other nodes raise
    ``ValueError``."""
    if len(w_a) != len(w_b):
        raise LengthMismatch("measure paths differ in length")
    # the distinct coordinates per axis (np.unique would load numpy.ma)
    axes = [x[np.diff(x, prepend=-np.inf) > 0]
            for x in np.sort(points.T, axis=1)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    if not np.array_equal(mesh.reshape(-1, len(axes)), points):
        raise ValueError("the nodes are not a tensor grid in ij order")
    shape = (len(w_a),) + mesh.shape[:-1]
    return float(np.max(_knothe_rosenblatt_cost(
        w_a.reshape(shape), w_b.reshape(shape), axes)))


def w2_stop_threshold(q: float, h1: float) -> float:
    """Fixed-point stopping threshold (2q/(1-q)) * h1^2 for q in (0,1)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return 2.0 * q / (1.0 - q) * h1 ** 2


# ---------------------------------------------------------------------------
# Induced law by the chain's forward equation
# ---------------------------------------------------------------------------

def induced_measure(problem, lattice, steps, controls, mbar_path: np.ndarray,
                    w0: np.ndarray) -> np.ndarray:
    """Law path (n_time + 1, n_nodes) of the chain under the controls of
    ``lattice.control_blocks`` and a frozen mean path, from the node weights
    ``w0``: the forward equation w_{n+1}[j] = sum_i w_n[i] P_n(i, j), one
    bincount over ``neighbor_indices`` per step (clamped targets merge
    there), with the controls and stencils evaluated once per block of time
    steps.  It is exact and draws nothing."""
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    neigh = lattice.neighbor_indices().ravel()
    law = np.empty((steps.n_time + 1, lattice.n_nodes))
    law[0] = w0
    for start, stop, layers in control_blocks(lattice, steps, controls):
        # looked up on the module, so that a wrapper set there, such as the
        # benchmark tracer's, sees these calls
        probs = lattice_module.stencil_probabilities(
            problem, lattice, steps, np.arange(start, stop) * steps.h2,
            mbar_path[start:stop], layers[:, :, None, :])[:, :, 0]
        for n, step in enumerate(probs, start):
            law[n + 1] = np.bincount(neigh, (law[n][:, None] * step).ravel(),
                                     lattice.n_nodes)
    return law


def measure_path_to_csv(file_path, lattice, steps, law: np.ndarray) -> None:
    """``measures.csv``: rows ``t,x1..xd,weight``, one per time and node."""
    _grid_table_to_csv(file_path, lattice, steps, law, ["weight"])
