"""Structural checks of the solver's building blocks, with their bounds.

``mfgsolver validate`` and the acceptance suite run the same checks, each
caller with its own sample sizes and seeds: the Riccati closed form against
its ODE, stochasticity and local consistency of interior transition rows,
the network gradient against central differences, the W2 metric axioms,
and the bounds of the fixed-point gap on node laws.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .lattice import Lattice, StepSizes, stencil_probabilities
from .measures import fixed_point_gap, wasserstein2
from .network import fit_loss, grad_fit_loss_raw
from .problems import riccati_closed_form, riccati_ode_solve


class Check(NamedTuple):
    """Outcome of one check: whether it held and the worst deviation seen."""

    name: str
    passed: bool
    worst: float


class TransitionRow(NamedTuple):
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
    probs = stencil_probabilities(
        problem, lattice, steps, t, mbar,
        np.broadcast_to(alpha, (lattice.n_nodes, 1, alpha.shape[0])))
    merged: dict[int, float] = {}
    for idx, p in zip(lattice.neighbor_indices()[x_index].tolist(),
                      probs[x_index, 0].tolist()):
        merged[idx] = merged.get(idx, 0.0) + p
    return TransitionRow(source=x_index, targets=sorted(merged.items()))


def check_local_consistency(row: TransitionRow, problem, lattice: Lattice,
                            steps: StepSizes, t: float, mbar: np.ndarray,
                            alpha: np.ndarray) -> Check:
    """Does the row's one-step mean and covariance match b*h2 and a*h2?

    Interior rows cancel the +- drift split exactly, so the mean is checked
    to 1e-10; the covariance picks up an O(h1*h2) drift contribution and is
    checked within 2(|b|+1)^2 * h1 * h2 elementwise.  The worst deviation
    is the larger of the two as a fraction of its bound.
    """
    x = lattice.node(row.source)
    deltas = lattice.points[[i for i, _ in row.targets]] - x
    p = np.array([pr for _, pr in row.targets])
    mean = p @ deltas
    cov = np.einsum("n,ni,nj->ij", p, deltas, deltas) - np.outer(mean, mean)
    b = np.asarray(problem.drift(t, x, mbar, np.asarray(alpha, dtype=float)),
                   dtype=float)
    c_bound = 2.0 * (np.linalg.norm(b) + 1.0) ** 2 * steps.h1 * steps.h2
    dev_mean = np.abs(mean - b * steps.h2)
    dev_cov = np.abs(cov - problem.covariance * steps.h2)
    passed = bool(np.all(dev_mean <= 1e-10) and np.all(dev_cov <= c_bound))
    worst = max(np.max(dev_mean) / 1e-10, np.max(dev_cov) / c_bound)
    return Check("local consistency", passed, float(worst))


def interior_rows(problem, lattice: Lattice, steps: StepSizes, rng,
                  n_rows: int) -> Check:
    """``n_rows`` interior rows, each at a random node, time, mean and
    control, drawn in that order: every row sums to 1 within 1e-12, has no
    negative entry and is locally consistent.  Worst: the largest |sum-1|."""
    interior = np.flatnonzero(lattice.interior_mask())
    passed, worst = True, 0.0
    for _ in range(n_rows):
        idx = int(rng.choice(interior))
        t = float(rng.uniform(0.0, steps.horizon - steps.h2))
        m = rng.uniform(problem.domain_lower, problem.domain_upper)
        al = rng.uniform(problem.control_lower, problem.control_upper)
        row = transition_row(problem, lattice, steps, t, idx, m, al)
        probs = np.array([p for _, p in row.targets])
        gap = abs(probs.sum() - 1.0)
        worst = max(worst, gap)
        passed &= bool(gap <= 1e-12 and np.all(probs >= 0.0)) and \
            check_local_consistency(row, problem, lattice, steps, t, m,
                                    al).passed
    return Check(f"{problem.name} interior rows", passed, worst)


def riccati(params, n_steps: int) -> Check:
    """The closed-form Riccati solution against an RK4 solve on ``n_steps``
    steps: within 1e-6 everywhere, and exactly ``c`` at the horizon."""
    times, eta_ode = riccati_ode_solve(params, n_steps)
    gap = float(np.max(np.abs(riccati_closed_form(params, times) - eta_ode)))
    return Check("riccati closed form vs ODE", gap <= 1e-6 and
                 riccati_closed_form(params, params.T) == params.c, gap)


def network_gradient(arch, theta: np.ndarray, inputs: np.ndarray,
                     targets: np.ndarray, coords=None) -> Check:
    """The fit-loss gradient against central differences with step 1e-6 on
    the parameters ``coords`` (all by default): every relative error
    |g - fd| / max(1, |fd|) is at most 1e-5."""
    _, g = grad_fit_loss_raw(arch, theta, inputs, targets)
    h = 1e-6
    rel = []
    for j in range(arch.n_params) if coords is None else coords:
        e = np.zeros(arch.n_params)
        e[j] = h
        fd = (fit_loss(arch, theta + e, inputs, targets)
              - fit_loss(arch, theta - e, inputs, targets)) / (2 * h)
        rel.append(abs(g[j] - fd) / max(1.0, abs(fd)))
    return Check("network gradient", bool(np.all(np.array(rel) <= 1e-5)),
                 float(np.max(rel)))


def wasserstein_axioms(rng, n_triples: int) -> Check:
    """W2 on ``n_triples`` triples of random 4-atom clouds in the plane:
    symmetric, and zero from a cloud to itself, within 1e-12; the triangle
    inequality within 1e-9.  Worst: the largest asymmetry, self-distance or
    triangle excess."""
    passed, worst = True, 0.0
    for _ in range(n_triples):
        a, b, c = (rng.normal(size=(4, 2)) for _ in range(3))
        dab, dbc, dac = wasserstein2(a, b), wasserstein2(b, c), \
            wasserstein2(a, c)
        asym, self_d = abs(dab - wasserstein2(b, a)), wasserstein2(a, a)
        worst = max(worst, asym, self_d, dac - dab - dbc)
        passed &= asym <= 1e-12 and self_d <= 1e-12 and dac <= dab + dbc + 1e-9
    return Check("wasserstein metric axioms", passed, worst)


def gap_bounds(rng, n_pairs: int) -> Check:
    """The fixed-point gap on ``n_pairs`` pairs of one-row laws, each of 8
    equal atoms on random nodes, first on the 5 nodes of [0, 1], then on
    the 25 of [0, 1]^2: symmetric, and zero from a law to itself, within
    1e-12.  In 1-D it equals the squared ``wasserstein2`` of the two atom
    clouds within 1e-12; in 2-D it is at least the squared shift of the
    means, less 1e-12.  Worst: the largest asymmetry, self-distance, 1-D
    mismatch or shortfall below the mean shift."""
    worst = 0.0
    for d in (1, 2):
        points = Lattice(np.zeros(d), np.ones(d), 0.25).points
        for _ in range(n_pairs):
            atoms_a, atoms_b = rng.integers(len(points), size=(2, 8))
            a, b = (np.bincount(atoms, minlength=len(points))[None] / 8
                    for atoms in (atoms_a, atoms_b))
            gap = fixed_point_gap(a, b, points)
            bound = wasserstein2(points[atoms_a], points[atoms_b]) ** 2 \
                if d == 1 else np.sum(((a - b) @ points) ** 2)
            worst = max(worst, abs(gap - fixed_point_gap(b, a, points)),
                        fixed_point_gap(a, a, points),
                        abs(gap - bound) if d == 1 else bound - gap)
    return Check("fixed-point gap bounds", worst <= 1e-12, float(worst))
