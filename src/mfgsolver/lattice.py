"""State/time lattice, locally consistent transition probabilities, and the
two halves of the Markov chain approximation, each written once: the chain
loop (``run_chain``, around the ``chain_step`` kernel) and the backward
recursion, which ``dp_backward_sweep`` runs with a min over the control grid,
``policy_value_sweep`` with one control per node, and
``policy_start_values`` with one control per node for each of a stack of
policies at once (the exact objective of the SA stage).  The row-level
structural checks live in ``checks``.

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
        return int(self.indices_of(np.atleast_2d(point))[0])

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
    if not low >= _NEG_TOL:  # a NaN fails this test too
        raise NegativeProbability(
            f"stepsizes infeasible: probability {low:.3e} at t={t}")
    return probs


def chain_step(lattice: Lattice, probs: np.ndarray, nodes: np.ndarray, rng,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Move every chain one step by inverse-CDF sampling of its stencil row.

    ``probs`` holds the stencil probabilities per node, (n_nodes, n_off), or
    per node and row, (n_nodes, P, n_off), in which case ``rows`` (P, 1)
    picks each chain's row of ``nodes`` (P, M).  One uniform u is drawn per
    chain of the last axis and shared by all rows.  Returns the new nodes.
    Each move is ``argmax(cum > u)``: the count of columns ``<= u`` of the
    running maximum of ``cum`` (-1e-12 entries make it dip), 0 if all are.
    Columns after the last one with mass in any row repeat its cumulative
    value, so they change no count and are left out.
    """
    n_off = probs.shape[-1]
    mass = probs.reshape(-1, n_off).any(axis=0)
    n_used = n_off - int(np.argmax(mass[::-1]))
    cum = np.maximum.accumulate(np.cumsum(probs[..., :n_used], axis=-1),
                                axis=-1)
    flat = nodes if rows is None else nodes * probs.shape[1] + rows
    u = rng.uniform(size=nodes.shape[-1])
    offset = np.zeros(nodes.shape, dtype=np.intp)
    for col in cum.reshape(-1, n_used).T.copy():
        offset += np.take(col, flat) <= u
    offset[offset == n_used] = 0
    return np.take(lattice.neighbor_indices().ravel(), nodes * n_off + offset)


def run_chain(problem, lattice: Lattice, steps: StepSizes, controls,
              mbar_path: np.ndarray, nodes: np.ndarray, rng, states,
              applied=None) -> None:
    """Run chains from the flat ``nodes`` (M,) by ``chain_step`` on ``rng``,
    under a (n_time, n_nodes, k) grid field or a callable ``(t, points) ->
    (n_nodes, k)``.  ``states`` (n_time+1, M, d) receives their points and
    ``applied`` (n_time, M, k), if given, the control each chain applies."""
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    states[0] = lattice.points[nodes]
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = controls(t, lattice.points) if callable(controls) \
            else controls[n]
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer[:, None, :])[:, 0]
        if applied is not None:
            applied[n] = layer[nodes]
        nodes = chain_step(lattice, probs, nodes, rng)
        states[n + 1] = lattice.points[nodes]


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
              mbar_path: np.ndarray, control_layer, field=None,
              table: bool = True) -> np.ndarray:
    """The backward recursion of every sweep, for R value functions at once:
    v_n[:, r] = min_c [E_{r,c} v_{n+1}[:, r] + f(., c) h2] over the
    (n_nodes, R, C, k) layer ``control_layer(t)``, with one stencil call per
    time step for all rows.  For R = 1 the first minimum wins and goes to
    ``field`` (n_time, n_nodes, k) if given.  Returns the (n_time+1,
    n_nodes, R) value table, or, without ``table``, its t = 0 slice
    (n_nodes, R), holding two slices at a time instead of the table."""
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    neigh = lattice.neighbor_indices()
    nodes = np.arange(lattice.n_nodes)
    points = lattice.points[:, None, None, :]
    v = problem.terminal_cost(lattice.points, mbar_path[-1])[:, None]
    values = None
    for n in range(steps.n_time - 1, -1, -1):
        t = n * steps.h2
        alphas = control_layer(t)
        if n == steps.n_time - 1:
            v = np.broadcast_to(v, (lattice.n_nodes, alphas.shape[1]))
            if table:
                values = np.empty((steps.n_time + 1,) + v.shape)
                values[-1] = v
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], alphas)
        q = np.einsum("nrco,nor->nrc", probs, v[neigh])
        q += problem.running_cost(t, points, mbar_path[n], alphas) * steps.h2
        v = q.min(axis=2)
        if values is not None:
            values[n] = v
        if field is not None:
            field[n] = alphas[nodes, 0, np.argmin(q[:, 0], axis=1)]
    return values if table else v


def dp_backward_sweep(problem, lattice: Lattice, steps: StepSizes,
                      mbar_path: np.ndarray, controls: np.ndarray):
    """Backward sweep minimizing cost over the (C, k) control grid under the
    (n_time+1, d) mean path ``mbar_path``.  Returns ``(values,
    control_field)``, shapes (n_time+1, n_nodes) and (n_time, n_nodes, k).
    Ties go to the lexicographically smallest control, the grid's first."""
    controls = np.asarray(controls, dtype=float)
    if controls.size == 0:
        raise EmptyControlGrid("control grid is empty")
    alphas = np.broadcast_to(controls,
                             (lattice.n_nodes, 1) + controls.shape)
    field = np.empty((steps.n_time, lattice.n_nodes, controls.shape[1]))
    values = _backward(problem, lattice, steps, mbar_path, lambda t: alphas,
                       field)
    return values[..., 0], field


def policy_value_sweep(problem, lattice: Lattice, steps: StepSizes,
                       mbar_path: np.ndarray, control_fn) -> np.ndarray:
    """Backward policy evaluation under the (n_time+1, d) mean path: the
    recursion with the one control per node of ``control_fn(t, points)``."""
    return _backward(problem, lattice, steps, mbar_path,
                     lambda t: control_fn(t, lattice.points)[:, None, None, :]
                     )[..., 0]


def policy_start_values(problem, lattice: Lattice, steps: StepSizes,
                        mbar_path: np.ndarray, control_rows) -> np.ndarray:
    """V(0, .) of R policies at once, shape (n_nodes, R): the recursion with
    the controls ``control_rows(t, points)``, (R, n_nodes, k), one per row
    and node.  Column r is the t = 0 row of ``policy_value_sweep`` under the
    r-th policy, computed without holding the value table."""
    return _backward(problem, lattice, steps, mbar_path,
                     lambda t: control_rows(t, lattice.points)
                     .transpose(1, 0, 2)[:, :, None, :], table=False)


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

def csv_blocks(*columns):
    """Formatter ``block(key, values)`` of a CSV block: per row, the key,
    then ``columns``.  An array, (rows,) or (rows, c), is the same in every
    block and goes into a row template once (the first column is one); an
    int c takes c of ``values`` per row.  Numbers print ``%.12g``, as
    ``f"{value:.12g}"`` does, so ids below 1e12 print as ``str`` does."""
    fields, fixed = ["{key}"], []
    for col in columns:
        if isinstance(col, int):
            fields += ["%%.12g"] * col
        else:
            fixed.append(col.reshape(len(columns[0]), -1))
            fields += ["%.12g"] * fixed[-1].shape[1]
    template = ((",".join(fields) + "\n") * len(columns[0])
                % tuple(np.column_stack(fixed).ravel().tolist()))
    return lambda key, values: (template.replace("{key}", "%.12g" % key)
                                % tuple(values.ravel().tolist()))


def _grid_table_to_csv(path, lattice: Lattice, steps: StepSizes,
                       table: np.ndarray, names: list) -> None:
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
                         field: np.ndarray) -> None:
    _grid_table_to_csv(path, lattice, steps, field,
                       [f"a{i+1}" for i in range(field.shape[2])])
