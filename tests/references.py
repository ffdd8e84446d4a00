"""References that only the tests use.  The solver never samples its chain;
the Monte-Carlo checks of its exact expectations do, with the chain step
and rollout below.  Beside them: the pathwise cost estimator, the
closed-form LQ equilibrium and the exact W2 between equal-size clouds.
"""

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.optimize import linear_sum_assignment

from mfgsolver.errors import DimensionMismatch, InvalidParams
from mfgsolver.lattice import stencil_probabilities
from mfgsolver.problems import riccati_closed_form
from mfgsolver.seeding import substream
from mfgsolver.simulate import PathBundle


def chain_step(neighbors, probs, nodes, u):
    """Move every chain one step by inverse-CDF sampling of its stencil row:
    ``neighbors`` and ``probs`` are the flat targets and probabilities per
    node, (n_nodes, n_off), ``nodes`` the chains' nodes, (..., M), and ``u``
    their uniforms, (M,), shared along the leading axes.  Each chain moves to
    the first column of its cumulative row above u, or to column 0."""
    cum = np.cumsum(probs[nodes], axis=-1)
    return neighbors[nodes, np.argmax(cum > u[:, None], axis=-1)]


def ref_simulate_chain(problem, lattice, steps, controls, mbar_path, n_paths,
                       seed, x0=None) -> PathBundle:
    """Paths of the chain, one step at a time, under a (n_time, n_nodes, k)
    field or a policy ``(t, points) -> (n_nodes, k)``, with the controls
    applied, from ``x0`` snapped to the lattice or from the initial law."""
    rng = substream(seed, "chain")
    if x0 is None:
        nodes = lattice.indices_of(problem.initial_sampler(rng, n_paths))
    else:
        nodes = np.full(n_paths, lattice.indices_of(np.atleast_2d(x0))[0])
    states = np.empty((n_paths, steps.n_time + 1, problem.dim))
    applied = np.empty((n_paths, steps.n_time, problem.control_dim))
    states[:, 0] = lattice.points[nodes]
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = controls(t, lattice.points) if callable(controls) \
            else controls[n]
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer[:, None, :])[:, 0]
        applied[:, n] = layer[nodes]
        nodes = chain_step(lattice.neighbor_indices(), probs, nodes,
                           rng.uniform(size=n_paths))
        states[:, n + 1] = lattice.points[nodes]
    return PathBundle(times=steps.times(), states=states, controls=applied)


def estimate_cost(problem, bundle: PathBundle, mbar_path, steps):
    """Sample mean and standard error of the pathwise cost: the Riemann sum
    of the running cost on the left endpoints plus the terminal cost."""
    if len(mbar_path) != steps.n_time + 1:
        raise DimensionMismatch("measure path length must be n_time + 1")
    totals = np.zeros(bundle.n_paths)
    for n in range(steps.n_time):
        t = n * steps.h2
        totals += problem.running_cost(
            t, bundle.states[:, n], mbar_path[n],
            bundle.controls[:, n]) * steps.h2
    totals += problem.terminal_cost(bundle.states[:, -1], mbar_path[-1])
    mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1) / np.sqrt(bundle.n_paths)) \
        if bundle.n_paths > 1 else 0.0
    return mean, se


#: Exact mean of the uniform(0, 1) initial law of the LQ game; used wherever
#: the analytic solution is evaluated (never replaced by a sample mean).
LQ_INITIAL_MEAN = 0.5


def lq_analytic_equilibrium(params, w0_path: np.ndarray, times: np.ndarray,
                            n_quad: int = 10_000):
    """Closed-form equilibrium of the LQ game for a common-noise path W0
    sampled at ``times`` (ascending on [0, T]): ``(u_table, alpha_fn,
    value_fn)``, the conditional mean at ``times``, the feedback control
    ``alpha_fn(t, x)`` and the value function ``value_fn(t, x)``."""
    times = np.asarray(times, dtype=float)
    w0_path = np.asarray(w0_path, dtype=float)
    if w0_path.shape[0] != times.shape[0]:
        raise InvalidParams("w0_path and times must have equal length")
    u_table = LQ_INITIAL_MEAN + params.rho * params.sigma * w0_path

    # cumulative integral of eta on a fine grid, by Simpson's rule
    grid = np.linspace(0.0, params.T, n_quad + 1)
    cum = cumulative_simpson(riccati_closed_form(params, grid), x=grid,
                             initial=0.0)

    def u_at(t):
        return np.interp(t, times, u_table)

    def alpha_fn(t, x):
        return (params.q + riccati_closed_form(params, t)) * (u_at(t) - x)

    def value_fn(t, x):
        # the quadratic term is in the deviation from the conditional mean
        dev = u_at(t) - np.asarray(x)
        return (0.5 * riccati_closed_form(params, t) * dev ** 2
                + 0.5 * params.sigma ** 2 * (1.0 - params.rho ** 2)
                * (cum[-1] - np.interp(t, grid, cum)))

    return u_table, alpha_fn, value_fn


def reference_w2(pa, pb):
    """Exact W2 between two clouds of n equal-weight atoms each, (n, d):
    sorted quantile matching in 1-D, the assignment problem on the
    squared-Euclidean cost matrix in d >= 2."""
    if pa.shape[1] == 1:
        return float(np.sqrt(np.mean((np.sort(pa[:, 0])
                                      - np.sort(pb[:, 0])) ** 2)))
    cost = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))
