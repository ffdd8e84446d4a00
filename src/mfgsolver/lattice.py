"""State/time lattice, locally consistent transition probabilities, and the
backward dynamic-programming sweep with grid-search control.

Transition stencil: each node talks to itself, its axis neighbours
x +- h1*e_i, and (in d >= 2) the diagonal neighbours x +- h1*e_i +- h1*e_j.
Axis probabilities are

    P(x, x +- h1*e_i | alpha) = (a_ii/2 - sum_{j!=i} |a_ij|/2 + b_i^± h1) * h2 / h1^2

with b^+/b^- the positive/negative parts of the drift, diagonal pairs carry
a_ij^± h2 / (2 h1^2), and the self-loop absorbs the remainder.  Off-grid
targets are clamped to the nearest in-box node and their mass merged, which
keeps rows stochastic without touching interior consistency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyControlGrid,
    NegativeProbability,
    NonDivisibleDomain,
)

_SUM_TOL = 1e-12
_NEG_TOL = -1e-12


@dataclass(frozen=True)
class StepSizes:
    """State spacing h1, time step h2, and the time-step count n_time."""

    h1: float
    h2: float
    n_time: int

    def __post_init__(self):
        if self.h1 <= 0 or self.h2 <= 0:
            raise ValueError("h1 and h2 must be positive")
        if self.n_time < 1:
            raise ValueError("n_time must be >= 1")

    @classmethod
    def for_horizon(cls, horizon: float, h1: float, h2: float) -> "StepSizes":
        n = round(horizon / h2)
        if abs(n * h2 - horizon) > 1e-12:
            raise NonDivisibleDomain(
                f"h2={h2} does not tile the horizon {horizon}")
        return cls(h1=h1, h2=h2, n_time=n)

    @property
    def horizon(self) -> float:
        return self.n_time * self.h2

    def times(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * self.h2


class Lattice:
    """Regular grid over the (truncated) state box with flat indexing."""

    def __init__(self, lower: np.ndarray, upper: np.ndarray, spacing: float):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatch("lower/upper must be 1-D of equal length")
        counts = []
        for lo, hi in zip(lower, upper):
            n = (hi - lo) / spacing
            if abs(n - round(n)) > 1e-9:
                raise NonDivisibleDomain(
                    f"h1={spacing} does not tile axis [{lo}, {hi}]")
            counts.append(int(round(n)) + 1)
        self.lower = lower
        self.upper = upper
        self.spacing = float(spacing)
        self.shape = tuple(counts)
        self.dims = len(counts)
        axes = [lo + spacing * np.arange(n) for lo, n in zip(lower, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=1)
        self._neighbors: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    def node(self, flat_index: int) -> np.ndarray:
        return self.points[flat_index]

    def index_of(self, point: np.ndarray) -> int:
        """Flat index of the nearest lattice node (snap-to-grid)."""
        multi = np.clip(
            np.rint((np.asarray(point) - self.lower) / self.spacing).astype(int),
            0, np.array(self.shape) - 1)
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def indices_of(self, points: np.ndarray) -> np.ndarray:
        multi = np.clip(
            np.rint((points - self.lower) / self.spacing).astype(int),
            0, np.array(self.shape) - 1)
        return np.ravel_multi_index(tuple(multi.T), self.shape)

    def stencil_offsets(self) -> np.ndarray:
        """Integer offsets (n_off, d): self, axis pairs, then diagonal pairs."""
        d = self.dims
        offs = [np.zeros(d, dtype=int)]
        for i in range(d):
            for s in (+1, -1):
                e = np.zeros(d, dtype=int)
                e[i] = s
                offs.append(e)
        for i, j in itertools.combinations(range(d), 2):
            for si, sj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                e = np.zeros(d, dtype=int)
                e[i], e[j] = si, sj
                offs.append(e)
        return np.array(offs)

    def neighbor_indices(self) -> np.ndarray:
        """Clamped flat index of every stencil target, shape (n_nodes, n_off)."""
        if self._neighbors is None:
            offs = self.stencil_offsets()
            multi = np.stack(np.unravel_index(np.arange(self.n_nodes), self.shape), axis=1)
            tgt = multi[:, None, :] + offs[None, :, :]
            tgt = np.clip(tgt, 0, np.array(self.shape) - 1)
            self._neighbors = np.ravel_multi_index(
                tuple(np.moveaxis(tgt, 2, 0)), self.shape)
        return self._neighbors

    def interior_mask(self) -> np.ndarray:
        multi = np.stack(np.unravel_index(np.arange(self.n_nodes), self.shape), axis=1)
        return np.all((multi >= 1) & (multi <= np.array(self.shape) - 2), axis=1)


def build_lattice(problem, steps: StepSizes) -> Lattice:
    """Lattice covering the problem's (truncation) box with spacing h1."""
    if problem.domain_lower.shape[0] != problem.dim:
        raise DimensionMismatch("domain box does not match problem dimension")
    if np.any(problem.domain_upper <= problem.domain_lower):
        raise NonDivisibleDomain("domain box is empty")
    return Lattice(problem.domain_lower, problem.domain_upper, steps.h1)


# ---------------------------------------------------------------------------
# Transition probabilities
# ---------------------------------------------------------------------------

def stencil_probabilities(problem, lattice: Lattice, steps: StepSizes,
                          t: float, mbar: np.ndarray,
                          alphas: np.ndarray) -> np.ndarray:
    """Transition probabilities over the stencil for a batch of controls.

    ``mbar`` is the (d,) population mean at time ``t``.  ``alphas`` has
    shape (..., k) broadcast against the node axis: the common case is
    (n_nodes, n_ctrl, k) with nodes from ``lattice.points``.
    Returns probabilities of shape (n_nodes, ..., n_off) aligned with
    ``lattice.stencil_offsets()`` (self first, then +e_i/-e_i per axis,
    then the diagonal quadruples per pair).
    """
    d = lattice.dims
    h1, h2 = steps.h1, steps.h2
    x = lattice.points
    extra = alphas.ndim - 2  # batch axes beyond (node, k)
    xb = x.reshape((x.shape[0],) + (1,) * extra + (d,))
    b = np.asarray(problem.drift(t, xb, mbar, alphas), dtype=float)
    b = np.broadcast_to(b, alphas.shape[:-1] + (d,)) if b.shape != alphas.shape[:-1] + (d,) else b
    a = problem.diffusion_matrix(t)

    n_off = 1 + 2 * d + 2 * d * (d - 1)
    probs = np.empty(b.shape[:-1] + (n_off,))
    scale = h2 / h1 ** 2
    off_diag_abs = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    pos = 1
    for i in range(d):
        base = 0.5 * a[i, i] - 0.5 * off_diag_abs[i]
        bp = np.maximum(b[..., i], 0.0)
        bm = np.maximum(-b[..., i], 0.0)
        probs[..., pos] = (base + bp * h1) * scale
        probs[..., pos + 1] = (base + bm * h1) * scale
        pos += 2
    for i, j in itertools.combinations(range(d), 2):
        ap = max(a[i, j], 0.0)
        am = max(-a[i, j], 0.0)
        probs[..., pos] = 0.5 * ap * scale      # ++
        probs[..., pos + 1] = 0.5 * ap * scale  # --
        probs[..., pos + 2] = 0.5 * am * scale  # +-
        probs[..., pos + 3] = 0.5 * am * scale  # -+
        pos += 4
    others = np.sum(probs[..., 1:], axis=-1)
    probs[..., 0] = 1.0 - others
    low = probs.min()
    if low < _NEG_TOL:
        raise NegativeProbability(
            f"stepsizes infeasible: probability {low:.3e} at t={t}")
    return probs


def chain_step(lattice: Lattice, probs: np.ndarray, nodes: np.ndarray, rng,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Move every chain one step by inverse-CDF sampling of its stencil row.

    ``probs`` holds the stencil probabilities per node, (n_nodes, n_off), or
    per node and row, (n_nodes, P, n_off), in which case ``rows`` (P, 1)
    picks each chain's row of ``nodes`` (P, M).  One uniform is drawn per
    chain of the last axis and shared by all rows.  Returns the new nodes.
    """
    cum = np.cumsum(probs, axis=-1)
    cum = cum[nodes] if rows is None else cum[nodes, rows]
    u = rng.uniform(size=nodes.shape[-1])
    return lattice.neighbor_indices()[nodes,
                                      np.argmax(cum > u[:, None], axis=-1)]


@dataclass
class TransitionRow:
    """One row of the chain's transition matrix, clamped targets merged."""

    source: int
    targets: list  # (flat index, probability) pairs


def transition_row(problem, lattice: Lattice, steps: StepSizes, t: float,
                   x_index: int, mbar: np.ndarray,
                   alpha: np.ndarray) -> TransitionRow:
    """Transition row from one node under one control."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (problem.control_dim,):
        raise DimensionMismatch("alpha has wrong control dimension")
    probs = stencil_probabilities(problem, lattice, steps, t, mbar,
                                  np.broadcast_to(alpha, (lattice.n_nodes, 1, alpha.shape[0])))
    row = probs[x_index, 0]
    neigh = lattice.neighbor_indices()[x_index]
    merged: dict[int, float] = {}
    for idx, p in zip(neigh, row):
        merged[int(idx)] = merged.get(int(idx), 0.0) + float(p)
    return TransitionRow(source=x_index, targets=sorted(merged.items()))


@dataclass
class ConsistencyReport:
    """Empirical one-step moments of a row against the diffusion's b, a."""

    mean: np.ndarray
    cov: np.ndarray
    drift_target: np.ndarray
    cov_target: np.ndarray
    mean_ok: bool
    cov_ok: bool

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.cov_ok


def check_local_consistency(row: TransitionRow, problem, lattice: Lattice,
                            steps: StepSizes, t: float, mbar: np.ndarray,
                            alpha: np.ndarray) -> ConsistencyReport:
    """Diagnostic: does the row match b*h2 / a*h2 at the stated tolerances?

    Interior rows cancel the +- drift split exactly, so the mean is checked
    to 1e-10; the covariance picks up an O(h1*h2) drift contribution and is
    checked within 2(|b|+1)^2 * h1 * h2 elementwise.
    """
    x = lattice.node(row.source)
    deltas = lattice.points[[i for i, _ in row.targets]] - x
    p = np.array([pr for _, pr in row.targets])
    mean = p @ deltas
    second = np.einsum("n,ni,nj->ij", p, deltas, deltas)
    cov = second - np.outer(mean, mean)
    b = np.asarray(problem.drift(t, x, mbar, np.asarray(alpha, dtype=float)),
                   dtype=float)
    a = problem.diffusion_matrix(t)
    drift_target = b * steps.h2
    cov_target = a * steps.h2
    c_bound = 2.0 * (np.linalg.norm(b) + 1.0) ** 2 * steps.h1 * steps.h2
    mean_ok = bool(np.all(np.abs(mean - drift_target) <= 1e-10))
    cov_ok = bool(np.all(np.abs(cov - cov_target) <= c_bound))
    return ConsistencyReport(mean, cov, drift_target, cov_target, mean_ok, cov_ok)


# ---------------------------------------------------------------------------
# Dynamic programming
# ---------------------------------------------------------------------------

def control_grid(problem, points_per_axis: int = 16) -> np.ndarray:
    """Equispaced lexicographic grid over the control box, shape (C, k)."""
    axes = [np.linspace(lo, hi, points_per_axis)
            for lo, hi in zip(problem.control_lower, problem.control_upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def dp_backward_sweep(problem, lattice: Lattice, steps: StepSizes,
                      mbar_path: np.ndarray, controls: np.ndarray):
    """Backward sweep minimizing cost over the control grid.

    ``mbar_path`` holds the population mean at every time index, shape
    (n_time+1, d).
    Returns ``(values, control_field)`` where values has shape
    (n_time+1, n_nodes) and control_field (n_time, n_nodes, k).  Ties in
    the argmin resolve to the lexicographically smallest control (the grid
    is enumerated lexicographically and argmin takes the first minimum).
    """
    controls = np.asarray(controls, dtype=float)
    if controls.size == 0:
        raise EmptyControlGrid("control grid is empty")
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    n_nodes = lattice.n_nodes
    k = controls.shape[1]
    neigh = lattice.neighbor_indices()
    values = np.empty((steps.n_time + 1, n_nodes))
    field = np.empty((steps.n_time, n_nodes, k))
    values[-1] = problem.terminal_cost(lattice.points, mbar_path[-1])
    alphas = np.broadcast_to(controls[None, :, :], (n_nodes,) + controls.shape)
    for n in range(steps.n_time - 1, -1, -1):
        t = n * steps.h2
        mbar = mbar_path[n]
        probs = stencil_probabilities(problem, lattice, steps, t, mbar, alphas)
        v_next = values[n + 1][neigh]                      # (N, n_off)
        q = np.einsum("nco,no->nc", probs, v_next)
        f = problem.running_cost(t, lattice.points[:, None, :], mbar, alphas)
        q += f * steps.h2
        best = np.argmin(q, axis=1)
        values[n] = q[np.arange(n_nodes), best]
        field[n] = controls[best]
    return values, field


def policy_value_sweep(problem, lattice: Lattice, steps: StepSizes,
                       mbar_path: np.ndarray, control_fn) -> np.ndarray:
    """Backward policy evaluation under a fixed feedback control.

    ``mbar_path`` is the (n_time+1, d) mean path; ``control_fn(t, points)``
    returns the (n_nodes, k) control layer.
    """
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    n_nodes = lattice.n_nodes
    neigh = lattice.neighbor_indices()
    values = np.empty((steps.n_time + 1, n_nodes))
    values[-1] = problem.terminal_cost(lattice.points, mbar_path[-1])
    for n in range(steps.n_time - 1, -1, -1):
        t = n * steps.h2
        mbar = mbar_path[n]
        al = control_fn(t, lattice.points)[:, None, :]     # (N, 1, k)
        probs = stencil_probabilities(problem, lattice, steps, t, mbar, al)[:, 0]
        values[n] = (np.einsum("no,no->n", probs, values[n + 1][neigh])
                     + problem.running_cost(t, lattice.points, mbar, al[:, 0]) * steps.h2)
    return values


def validate_stepsizes(problem, lattice: Lattice, steps: StepSizes,
                       mbar: np.ndarray, controls: np.ndarray) -> None:
    """Reject (h1, h2, model) combinations with negative stencil entries.

    Checks every node under every control of ``controls`` with the
    population mean ``mbar``, at the first and the last time step.
    Clipping would silently destroy local consistency, so infeasible
    configurations raise NegativeProbability up front.
    """
    alphas = np.broadcast_to(controls[None, :, :],
                             (lattice.n_nodes,) + controls.shape)
    for t in (0.0, steps.horizon - steps.h2):
        stencil_probabilities(problem, lattice, steps, t, mbar, alphas)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def csv_rows(*columns) -> str:
    """CSV lines of the stacked columns, every value formatted ``%.12g``.

    ``%`` and ``format`` share one float formatter, so the text equals that
    of ``f"{value:.12g}"`` per value; integer ids below 1e12 print as ``str``
    does.
    """
    block = np.column_stack(columns)
    row = ",".join(["%.12g"] * block.shape[1]) + "\n"
    return (row * block.shape[0]) % tuple(block.ravel().tolist())


def _grid_table_to_csv(path, lattice: Lattice, steps: StepSizes,
                       table: np.ndarray, names: list) -> None:
    header = ",".join(["t", *(f"x{i+1}" for i in range(lattice.dims)), *names])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for n, layer in enumerate(table):
            fh.write(csv_rows(np.full(lattice.n_nodes, n * steps.h2),
                              lattice.points, layer))


def value_table_to_csv(path, lattice: Lattice, steps: StepSizes,
                       values: np.ndarray) -> None:
    _grid_table_to_csv(path, lattice, steps, values, ["value"])


def control_field_to_csv(path, lattice: Lattice, steps: StepSizes,
                         field: np.ndarray) -> None:
    _grid_table_to_csv(path, lattice, steps, field,
                       [f"a{i+1}" for i in range(field.shape[2])])
