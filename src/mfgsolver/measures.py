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
section 2.3), and a gap below the threshold certifies W2 below it.  No solve
imports scipy.

Only ``wasserstein2`` of clouds in d >= 2 needs ``scipy.optimize`` (for the
assignment problem), so it is imported on the first such call; ``validate``
and the acceptance checks are its only callers.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch
from .lattice import _grid_table_to_csv, step_stencils


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


def linear_sum_assignment(cost: np.ndarray):
    """scipy's assignment solver on ``cost``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(cost)


def wasserstein2(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W2 between two clouds of n equal-weight atoms each, (n, d).

    1-D uses sorted quantile matching; d >= 2 solves the assignment problem
    on the squared-Euclidean cost matrix.  Clouds of different sizes raise
    ``LengthMismatch``.
    """
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch(
            f"clouds of {a.shape[0]} and {b.shape[0]} atoms")
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
    ``lattice.step_stencils`` and a frozen mean path, from the node weights
    ``w0``: the forward equation w_{n+1}[j] = sum_i w_n[i] P_n(i, j), one
    bincount over ``neighbor_indices`` per step (clamped targets merge
    there).  It is exact and draws nothing."""
    neigh = lattice.neighbor_indices().ravel()
    law = np.empty((steps.n_time + 1, lattice.n_nodes))
    law[0] = w0
    for n, _, probs in step_stencils(problem, lattice, steps, controls,
                                     mbar_path):
        law[n + 1] = np.bincount(neigh, (law[n][:, None] * probs).ravel(),
                                 lattice.n_nodes)
    return law


def measure_path_to_csv(file_path, lattice, steps, law: np.ndarray) -> None:
    """``measures.csv``: rows ``t,x1..xd,weight``, one per time and node."""
    _grid_table_to_csv(file_path, lattice, steps, law, ["weight"])
