"""Projected Kiefer-Wolfowitz refinement of the policy parameters.

The scalar objective is the negative average, over the state lattice, of
the chain's expected cost from t = 0; each coordinate of the gradient
estimate is a central finite difference of two evaluations.  The iterate is
projected onto the parameter box |theta_j| <= m_bound, the bounded region of
projected KW (Kushner & Yin, Stochastic Approximation and Recursive
Algorithms and Applications, 2003).

Evaluator contract: ``evaluator(thetas, seed)`` maps a (P, r) stack of
parameter vectors to their P objective values.  A KW step is one call on
the (2r+1, r) stack [theta, theta + delta e_1, theta - delta e_1, ...],
with one seed for all rows, so a noisy evaluator gets common random
numbers.  The solve's evaluator is ``improvement``, the objective itself:
one backward recursion of the chain over the stack
(``lattice.policy_start_values``), with one forward pass of the stack's
networks per block of time steps.  It draws nothing and ignores the seed,
so the finite differences carry no sampling noise.  It replaces the paper's
Monte-Carlo estimate of the same expectation (chains from every node),
which is kept in the tests as the reference it agrees with in mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEvaluation
from .lattice import policy_start_values
from .network import feedback
from .seeding import substream


@dataclass
class SaSchedule:
    """Stepsize sequences eps_l = eps0/(l+1)^p_eps, delta_l = delta0/(l+1)^p_delta.

    The exponents must satisfy: eps -> 0 with divergent sum (p_eps <= 1),
    eps/delta -> 0 (p_eps > p_delta), and summable (eps/delta)^2
    (2(p_eps - p_delta) > 1).  Violations raise at construction.
    """

    eps0: float = 1.0
    delta0: float = 0.5
    p_eps: float = 1.0
    p_delta: float = 0.25
    max_steps: int = 5000
    trigger: float = 1e-5

    def __post_init__(self):
        if self.eps0 <= 0 or self.delta0 <= 0:
            raise ValueError("eps0 and delta0 must be positive")
        if self.p_eps > 1.0:
            raise ValueError("p_eps > 1 makes the stepsize sum finite")
        if self.p_delta >= self.p_eps:
            raise ValueError("need p_delta < p_eps so eps/delta -> 0")
        if 2.0 * (self.p_eps - self.p_delta) <= 1.0:
            raise ValueError("need 2(p_eps - p_delta) > 1 for summability")

    def eps(self, l: int) -> float:
        return self.eps0 / (l + 1) ** self.p_eps

    def delta(self, l: int) -> float:
        return self.delta0 / (l + 1) ** self.p_delta


def improvement(problem, lattice, steps, mbar_path, arch,
                thetas) -> np.ndarray:
    """Negative average over the state lattice of the chain's expected cost
    from t = 0, -mean over nodes of V_theta(0, .), for each row of
    ``thetas`` under the network of that row and the (n_time + 1, d) mean
    path ``mbar_path``.  One backward recursion of the chain for all rows
    (``lattice.policy_start_values``), whose controls come from one forward
    pass of all rows per block of time steps.  Returns shape (P,).
    """
    costs = policy_start_values(problem, lattice, steps, mbar_path,
                                feedback(arch, thetas), len(thetas))
    g = -np.mean(costs, axis=0)
    if not np.all(np.isfinite(g)):
        raise NonFiniteEvaluation("improvement evaluation is not finite")
    return g


def kw_step(theta, schedule: SaSchedule, m_bound: float, evaluator, l: int,
            eval_seed: int):
    """One central-finite-difference update, projected onto the box
    |theta_j| <= ``m_bound``.

    The 2r+1 evaluations are one ``evaluator`` call on the stacked points,
    all with ``eval_seed`` (common random numbers).
    Returns ``(theta_next, info)``, with z_l and whether the box cut the step.
    """
    theta = np.asarray(theta, dtype=float)
    r = theta.shape[0]
    eps = schedule.eps(l)
    delta = schedule.delta(l)
    kicks = delta * np.eye(r)
    thetas = np.tile(theta, (2 * r + 1, 1))
    thetas[1::2] += kicks
    thetas[2::2] -= kicks
    g = evaluator(thetas, eval_seed)
    g_here = float(g[0])
    k_vec = (g[1::2] - g[2::2]) / (2.0 * delta)
    if not np.all(np.isfinite(k_vec)) or not np.isfinite(g_here):
        raise NonFiniteEvaluation("non-finite objective in kw_step")
    free = theta + eps * k_vec
    cand = np.clip(free, -m_bound, m_bound)
    z = (cand - theta - eps * k_vec) / eps
    info = {
        "l": l,
        "G": g_here,
        "eps": eps,
        "delta": delta,
        "grad_norm": float(np.linalg.norm(k_vec)),
        "projected": bool(np.any(cand != free)),
        "z": z,
    }
    return cand, info


def train(theta_init, schedule: SaSchedule, m_bound: float, evaluator,
          seed: int, ma_window: int = 10, trace: list | None = None):
    """Iterate kw_step in the box |theta_j| <= ``m_bound`` until the
    moving-average objective change stalls.

    Stops when |MA(G) change| < trigger (window ``ma_window``), when the
    update vanishes, or at max_steps.  Returns the evaluated iterate with
    the best objective.  A step evaluates G at its starting point only, so
    the candidate of the last step is neither evaluated nor returned.
    """
    theta = np.asarray(theta_init, dtype=float).copy()
    eval_seed = int(substream(seed, "crn").integers(2 ** 62))
    best_theta = theta.copy()
    best_g = -np.inf
    g_hist: list[float] = []
    prev_ma = None
    for l in range(schedule.max_steps):
        theta_next, info = kw_step(theta, schedule, m_bound, evaluator, l,
                                   eval_seed)
        if trace is not None:
            trace.append({k: v for k, v in info.items() if k != "z"})
        if info["G"] > best_g:
            best_g = info["G"]
            best_theta = theta.copy()
        g_hist.append(info["G"])
        moved = float(np.max(np.abs(theta_next - theta)))
        theta = theta_next
        if moved == 0.0 and info["grad_norm"] == 0.0:
            break
        if len(g_hist) >= ma_window:
            ma = float(np.mean(g_hist[-ma_window:]))
            if prev_ma is not None and abs(ma - prev_ma) < schedule.trigger:
                break
            prev_ma = ma
    # the last theta_next was never evaluated, so it cannot compete
    return best_theta if best_g > -np.inf else theta
