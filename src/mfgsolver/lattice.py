"""State/time lattice, locally consistent transition probabilities, and the
time blocks of the Markov chain approximation: ``control_blocks`` yields the
controls of each block of time steps to the forward equation
(``measures.induced_measure``) and to ``controls.csv``, and the backward
recursion, written once, is what ``dp_backward_sweep`` runs with a min over
the control grid and ``policy_value_sweep`` with one control per node (the
value table of one policy, from which the SA stage takes its objective and
gradient).  Both time loops run by blocks of time steps (``time_blocks``):
per block they evaluate the controls, one stencil call and the running
costs with a leading time axis, and per step they keep only what depends on
the previous step.  The chain is never sampled: its expectations are exact.
The row-level structural checks live in ``checks``.

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

_NEG_TOL = -1e-12


def _check_positive(h1: float, h2: float) -> None:
    if not (h1 > 0 and h2 > 0):
        raise ValueError("h1 and h2 must be positive")


@dataclass(frozen=True)
class StepSizes:
    """State spacing h1, time step h2, and the time-step count n_time."""

    h1: float
    h2: float
    n_time: int

    def __post_init__(self):
        _check_positive(self.h1, self.h2)
        if self.n_time < 1:
            raise ValueError("n_time must be >= 1")

    @classmethod
    def for_horizon(cls, horizon: float, h1: float, h2: float) -> "StepSizes":
        _check_positive(h1, h2)  # before h2 divides the horizon
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

    def indices_of(self, points: np.ndarray) -> np.ndarray:
        """Flat indices of the nearest lattice nodes (snap-to-grid) of the
        (n, d) ``points``."""
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


#: Budget of (time, node, control) evaluations per block of time steps.
#: The time loops evaluate their controls, stencils and running costs once
#: per block; a block of this size keeps the arrays small (under a few MB).
BLOCK_EVALS = 16_384


def time_blocks(n_time: int, width: int) -> list:
    """The [start, stop) blocks of the time steps 0..n_time-1, ascending,
    each of ``BLOCK_EVALS // width`` steps (at least one; the last may be
    shorter), where ``width`` counts the evaluations of one step."""
    size = max(1, BLOCK_EVALS // width)
    return [(start, min(start + size, n_time))
            for start in range(0, n_time, size)]


# ---------------------------------------------------------------------------
# Transition probabilities
# ---------------------------------------------------------------------------

def stencil_probabilities(problem, lattice: Lattice, steps: StepSizes,
                          t, mbar: np.ndarray,
                          alphas: np.ndarray) -> np.ndarray:
    """Transition probabilities over the stencil for a batch of controls.

    At one time ``t``, ``mbar`` is the (d,) population mean and ``alphas``
    has shape (n_nodes, ..., k) with nodes from ``lattice.points``: the
    common case is (n_nodes, n_ctrl, k).  For a block of times, ``t`` is
    (B,), ``mbar`` (B, d) and ``alphas`` (B, n_nodes, ..., k); the model
    callbacks then see ``t`` and ``mbar`` with singleton axes that broadcast
    against the points.  The covariance ``problem.covariance`` is constant.
    Returns probabilities of shape ``alphas.shape[:-1] + (n_off,)`` aligned
    with ``lattice.stencil_offsets()`` (self first, then +e_i/-e_i per
    axis, then the diagonal quadruples per pair).  A negative or NaN entry
    raises NegativeProbability naming the first such time of the block.
    """
    one = np.ndim(t) == 0
    if one:  # a block of one time
        t, mbar, alphas = [t], np.asarray(mbar)[None], alphas[None]
    d = lattice.dims
    h1, h2 = steps.h1, steps.h2
    t = np.asarray(t, dtype=float)
    shape = t.shape + (1,) * (alphas.ndim - 2)  # against alphas.shape[:-1]
    x = lattice.points.reshape((1, lattice.n_nodes)
                               + (1,) * (alphas.ndim - 3) + (d,))
    b = np.asarray(problem.drift(t.reshape(shape), x,
                                 np.reshape(mbar, shape + (d,)), alphas),
                   dtype=float)
    b = np.broadcast_to(b, alphas.shape[:-1] + (d,))
    a = problem.covariance

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
        ap = np.maximum(a[i, j], 0.0)
        am = np.maximum(-a[i, j], 0.0)
        probs[..., pos] = 0.5 * ap * scale      # ++
        probs[..., pos + 1] = 0.5 * ap * scale  # --
        probs[..., pos + 2] = 0.5 * am * scale  # +-
        probs[..., pos + 3] = 0.5 * am * scale  # -+
        pos += 4
    others = np.sum(probs[..., 1:], axis=-1)
    probs[..., 0] = 1.0 - others
    if not probs.min() >= _NEG_TOL:  # a NaN fails this test too
        low = probs.reshape(len(t), -1).min(axis=1)
        first = int(np.argmax(~(low >= _NEG_TOL)))
        raise NegativeProbability(
            f"stepsizes infeasible: probability {low[first]:.3e} "
            f"at t={t[first]}")
    return probs[0] if one else probs


def control_blocks(lattice: Lattice, steps: StepSizes, controls):
    """Yield ``(start, stop, layers)`` for the blocks of ``time_blocks``
    in order: the (stop - start, n_nodes, k) controls of the time steps
    start..stop-1.  ``controls`` is a (n_time, n_nodes, k) grid field or a
    callable ``(ts, points) -> (B, n_nodes, k)`` of the controls over the
    lattice points at a block of times, evaluated once per block."""
    for start, stop in time_blocks(steps.n_time, lattice.n_nodes):
        yield start, stop, (
            controls(np.arange(start, stop) * steps.h2, lattice.points)
            if callable(controls) else controls[start:stop])


# ---------------------------------------------------------------------------
# Dynamic programming
# ---------------------------------------------------------------------------

def control_grid(problem, points_per_axis: int = 16) -> np.ndarray:
    """Equispaced lexicographic grid over the control box, shape (C, k)."""
    axes = [np.linspace(lo, hi, points_per_axis)
            for lo, hi in zip(problem.control_lower, problem.control_upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _backward(problem, lattice: Lattice, steps: StepSizes,
              mbar_path: np.ndarray, control_layer, width: int,
              field=None) -> np.ndarray:
    """The backward recursion of every sweep: v_n = min_c [E_c v_{n+1} +
    f(., c) h2] over the (B, n_nodes, C, k) layer ``control_layer(ts)`` of
    the times ``ts`` (B,) of a block.  The controls, the stencil and the
    running cost are evaluated once per block of ``time_blocks(n_time,
    width)``, with ``width`` = n_nodes * C; each step keeps only the gather,
    the contraction and the min (skipped for C = 1).  The first minimum
    wins and goes to ``field`` (n_time, n_nodes, k) if given.  Returns the
    (n_time+1, n_nodes) value table."""
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    neigh = lattice.neighbor_indices()
    nodes = np.arange(lattice.n_nodes)
    points = lattice.points[:, None, :]
    values = np.empty((steps.n_time + 1, lattice.n_nodes))
    values[-1] = problem.terminal_cost(lattice.points, mbar_path[-1])
    for start, stop in reversed(time_blocks(steps.n_time, width)):
        ts = np.arange(start, stop) * steps.h2
        alphas = control_layer(ts)
        mbar = mbar_path[start:stop]
        probs = stencil_probabilities(problem, lattice, steps, ts, mbar,
                                      alphas)
        costs = np.broadcast_to(problem.running_cost(
            ts[:, None, None], points, mbar[:, None, None],
            alphas) * steps.h2, alphas.shape[:-1])
        for b in range(stop - start - 1, -1, -1):
            q = np.einsum("nco,no->nc", probs[b],
                          values[start + b + 1][neigh])
            q += costs[b]
            values[start + b] = q[:, 0] if q.shape[1] == 1 else q.min(axis=1)
            if field is not None:
                field[start + b] = alphas[b][nodes, np.argmin(q, axis=1)]
    return values


def dp_backward_sweep(problem, lattice: Lattice, steps: StepSizes,
                      mbar_path: np.ndarray, controls: np.ndarray):
    """Backward sweep minimizing cost over the (C, k) control grid under the
    (n_time+1, d) mean path ``mbar_path``.  Returns ``(values,
    control_field)``, shapes (n_time+1, n_nodes) and (n_time, n_nodes, k).
    Ties go to the lexicographically smallest control, the grid's first."""
    controls = np.asarray(controls, dtype=float)
    if controls.size == 0:
        raise EmptyControlGrid("control grid is empty")
    layer = (lattice.n_nodes,) + controls.shape
    field = np.empty((steps.n_time, lattice.n_nodes, controls.shape[1]))
    values = _backward(problem, lattice, steps, mbar_path,
                       lambda ts: np.broadcast_to(controls, ts.shape + layer),
                       lattice.n_nodes * len(controls), field)
    return values, field


def policy_value_sweep(problem, lattice: Lattice, steps: StepSizes,
                       mbar_path: np.ndarray, control_fn) -> np.ndarray:
    """Backward policy evaluation under the (n_time+1, d) mean path: the
    (n_time+1, n_nodes) value table of the recursion with the one control
    per node of ``control_fn(ts, points)``, (B, n_nodes, k) at a block of
    times ``ts`` (B,)."""
    return _backward(problem, lattice, steps, mbar_path,
                     lambda ts: control_fn(ts, lattice.points)[:, :, None, :],
                     lattice.n_nodes)


def validate_stepsizes(problem, lattice: Lattice, steps: StepSizes,
                       mbar: np.ndarray, controls: np.ndarray) -> None:
    """Reject (h1, h2, model) combinations with negative stencil entries.

    Checks every node under every control of ``controls`` with the
    population mean ``mbar``, at the first and the last time step.
    Clipping would silently destroy local consistency, so infeasible
    configurations raise NegativeProbability up front.
    """
    alphas = np.broadcast_to(controls, (lattice.n_nodes,) + controls.shape)
    for t in (0.0, steps.horizon - steps.h2):
        stencil_probabilities(problem, lattice, steps, t, mbar, alphas)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def csv_blocks(fixed: np.ndarray, n_values: int):
    """Formatter ``block(key, values)`` of a CSV block: per row, the key,
    the row of ``fixed``, (rows,) or (rows, c), then ``n_values`` of
    ``values``.  ``fixed`` is the same in every block and goes into a row
    template once.  Numbers print ``%.12g``, as ``f"{value:.12g}"`` does,
    so integer keys below 1e12 print as ``str`` does."""
    fixed = fixed.reshape(len(fixed), -1)
    row = ",".join(["{key}"] + ["%.12g"] * fixed.shape[1]
                   + ["%%.12g"] * n_values) + "\n"
    template = (row * len(fixed)) % tuple(fixed.ravel().tolist())
    return lambda key, values: (template.replace("{key}", "%.12g" % key)
                                % tuple(values.ravel().tolist()))


def _grid_table_to_csv(path, lattice: Lattice, steps: StepSizes,
                       table, names: list) -> None:
    """Rows ``t,x1..xd,<names>``, one per time and node, of ``table``: an
    array or any iterable of per-time (n_nodes,) or (n_nodes, c) layers,
    written as they come."""
    header = ",".join(["t", *(f"x{i+1}" for i in range(lattice.dims)), *names])
    block = csv_blocks(lattice.points, len(names))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for n, layer in enumerate(table):
            fh.write(block(n * steps.h2, layer))


def value_table_to_csv(path, lattice: Lattice, steps: StepSizes,
                       values: np.ndarray) -> None:
    _grid_table_to_csv(path, lattice, steps, values, ["value"])


def control_field_to_csv(path, lattice: Lattice, steps: StepSizes,
                         controls) -> None:
    """Rows ``t,x1..xd,a1..ak`` of the controls of ``control_blocks``: a
    (n_time, n_nodes, k) field, or a policy ``(ts, points) -> (B, n_nodes,
    k)`` evaluated and written one block of times at a time, so its whole
    field is never held."""
    layers = itertools.chain.from_iterable(
        layers for _, _, layers in control_blocks(lattice, steps, controls))
    first = next(layers)
    _grid_table_to_csv(path, lattice, steps, itertools.chain([first], layers),
                       [f"a{i+1}" for i in range(first.shape[-1])])
