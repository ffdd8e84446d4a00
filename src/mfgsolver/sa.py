"""Projected gradient ascent of the policy parameters on the exact objective.

G(theta) (``improvement``) is minus the average over the state lattice of
the chain's expected cost from t = 0 under the network policy of one
parameter vector: one backward recursion, drawing nothing, in place of the
paper's Monte-Carlo estimate (kept in the tests as a reference).  Its
gradient (``gradient``) is one adjoint pass, the policy-gradient theorem on
a finite-horizon chain (Sutton et al., "Policy gradient methods for
reinforcement learning with function approximation", 2000), on the value
table that ``improvement`` returned, so each evaluated theta is swept once.
A step (``kw_step``) is ``network.backtracking_step`` on -G inside the box
|theta_j| <= m_bound: the delta -> 0 limit of projected Kiefer-Wolfowitz
(Kushner & Yin, Stochastic Approximation and Recursive Algorithms and
Applications, 2003), with G nondecreasing along the iterates.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteEvaluation
from .lattice import policy_value_sweep, stencil_probabilities, time_blocks
from .measures import induced_measure
from .network import (FIRST_STEP, _forward_cached, _grid_inputs,
                      backtracking_step, feedback, vjp)


def improvement(problem, lattice, steps, mbar_path, arch, theta):
    """Negative average over the state lattice of the chain's expected cost
    from t = 0 under the network of theta (r,) and the (n_time + 1, d) mean
    path ``mbar_path``: G = -mean over nodes of V_theta(0, .).  Returns
    ``(G, values)``, with ``values`` the (n_time + 1, n_nodes) table of
    ``lattice.policy_value_sweep``, from which ``gradient`` takes its
    Q-values.
    """
    values = policy_value_sweep(problem, lattice, steps, mbar_path,
                                feedback(arch, theta))
    g = -float(np.mean(values[0]))
    if not np.isfinite(g):
        raise NonFiniteEvaluation("improvement evaluation is not finite")
    return g, values


def gradient(problem, lattice, steps, mbar_path, arch, theta,
             values) -> np.ndarray:
    """The gradient in theta (r,) of ``improvement``,

        -sum_n sum_x lambda_n(x) d_a Q_n(x, alpha_n(x)) . d alpha_n(x)/d theta,

    with lambda_n the law of the chain from uniform node weights
    (``induced_measure``) under the controls alpha_n of the one forward pass
    over all (t_n, x) rows whose cache the ``vjp`` reads, V the value table
    ``values`` that ``improvement`` returned for theta, and
    Q_n(x, a) = sum_o p_o(x, a) V_{n+1}(neighbour_o(x)) + f(t_n, x, a) h2.
    d_a Q is a central difference per control component (kicks of 1e-6 of
    the control box, cut at its faces), exact up to rounding since the
    stencil is piecewise linear in the control and the costs quadratic; the
    sum is one ``vjp`` over all (t_n, x) rows.
    """
    n_nodes, k = lattice.n_nodes, arch.control_dim
    fw = _forward_cached(arch, theta, _grid_inputs(arch, lattice, steps))
    field = fw[0].reshape(steps.n_time, n_nodes, k)
    law = induced_measure(problem, lattice, steps, field, mbar_path,
                          np.full(n_nodes, 1.0 / n_nodes))
    alphas = field[:, :, None, :]
    lo, hi = problem.control_lower, problem.control_upper
    kicks = np.diag(1e-6 * (hi - lo))
    up, down = np.minimum(alphas + kicks, hi), np.maximum(alphas - kicks, lo)
    width = np.diagonal(up - down, axis1=-2, axis2=-1)      # (n_time, n, k)
    neigh = lattice.neighbor_indices()
    points = lattice.points[:, None, :]
    d_out = np.empty((steps.n_time, n_nodes, k))
    for start, stop in time_blocks(steps.n_time, n_nodes * 2 * k):
        ts = np.arange(start, stop) * steps.h2
        mbar = mbar_path[start:stop]
        probe = np.concatenate([up[start:stop], down[start:stop]], axis=2)
        q = np.einsum("bnjo,bno->bnj", stencil_probabilities(
            problem, lattice, steps, ts, mbar, probe),
            values[start + 1:stop + 1][:, neigh])
        q += problem.running_cost(ts[:, None, None], points,
                                  mbar[:, None, None], probe) * steps.h2
        d_out[start:stop] = (law[start:stop, :, None]
                             * (q[..., :k] - q[..., k:]) / width[start:stop])
    grad = -vjp(arch, fw, d_out.reshape(-1, k))
    if not np.all(np.isfinite(grad)):
        raise NonFiniteEvaluation("gradient evaluation is not finite")
    return grad


def kw_step(theta, g_here: float, grad, lr: float, m_bound: float,
            objective, grad_fn):
    """One ascent step on G from ``theta`` (G = ``g_here``, gradient
    ``grad``): ``network.backtracking_step`` on -G from step length ``lr``,
    scoring each trial by ``objective(theta) -> (G, aux)``, then
    ``grad_fn(theta, aux)`` at the accepted point with the ``aux`` of its
    trial (for the SA stage, its value table), so no point is swept twice.
    Returns ``(theta, G, grad, info)`` there, with the accepted step length
    ``eps`` and whether the box cut the step, or None.  The benchmark
    tracer wraps ``sa.kw_step`` by name, so it keeps the name of the
    Kiefer-Wolfowitz step it replaced until the benchmark changes.
    """
    def trial(cand):
        g, aux = objective(cand)
        if not np.isfinite(g):
            raise NonFiniteEvaluation("non-finite objective in kw_step")
        return -g, aux

    step = backtracking_step(trial, theta, -g_here, -grad, lr, m_bound)
    if step is None:
        return None
    eps, cand, loss, aux = step
    info = {"eps": eps,
            "projected": not np.array_equal(cand, theta + eps * grad)}
    return cand, -loss, grad_fn(cand, aux), info


def train(theta_init, m_bound: float, max_steps: int, objective, grad_fn,
          trace: list | None = None):
    """Up to ``max_steps`` of ``kw_step`` from ``theta_init`` clipped into
    the box, with ``objective`` and ``grad_fn`` as there; stops early only
    when the line search fails or the projected gradient is zero.  G never
    falls, so the last iterate is the best evaluated one, and it is
    returned.  ``trace`` gets a row per iterate, the start first: G,
    gradient norm, and the ``eps`` and ``projected`` of the step that
    reached it (0 and False at the start).
    """
    theta = np.clip(theta_init, -m_bound, m_bound)
    g_here, aux = objective(theta)
    grad = grad_fn(theta, aux)
    info = {"eps": 0.0, "projected": False}
    trace = [] if trace is None else trace
    lr = FIRST_STEP
    for l in range(max_steps + 1):
        trace.append({"l": l, "G": g_here, "eps": info["eps"],
                      "grad_norm": float(np.linalg.norm(grad)),
                      "projected": info["projected"]})
        if l == max_steps:
            break
        step = kw_step(theta, g_here, grad, lr, m_bound, objective, grad_fn)
        if step is None:
            break
        theta, g_here, grad, info = step
        lr = min(info["eps"] * 1.5, 1.0)
    return theta
