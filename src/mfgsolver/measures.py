"""The population law for the mean-field interaction, as node weights.

A law path is a float array of shape (n_time + 1, n_nodes): row ``n`` holds
the weights of the coarse lattice nodes at time index ``n``, nonnegative and
summing to 1.  The models see the law only through its mean path
``law @ lattice.points``, shape (n_time + 1, d).  The fixed-point iteration
pushes a start law forward under the optimally controlled chain to get the
induced law, exactly, mixes it into the running average with 1/k weights,
and stops once the squared Wasserstein-2 gap drops below
(2q/(1-q)) * h1^2.

The gap compares two laws through equal-atom representations: systematic
resampling with a midpoint comb turns each row into a fixed number of equal
atoms on the nodes, deterministically.

Only the W2 of clouds in d >= 2 needs ``scipy.optimize`` (for the assignment
problem), so it is imported on the first such call and never by a 1-D run.
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
    deterministic; an atom of zero weight is never drawn.
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


def fixed_point_gap(w_a: np.ndarray, w_b: np.ndarray, points: np.ndarray,
                    n_atoms: int = 256) -> float:
    """Max over time of the squared W2 distance between two law paths on
    the nodes ``points`` (n_nodes, d), each row combed into ``n_atoms``
    equal atoms by ``systematic_resample``."""
    if len(w_a) != len(w_b):
        raise LengthMismatch("measure paths differ in length")
    return max(wasserstein2(points[systematic_resample(x, n_atoms)],
                            points[systematic_resample(y, n_atoms)]) ** 2
               for x, y in zip(w_a, w_b))


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
