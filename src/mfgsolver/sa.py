"""Projected Kiefer-Wolfowitz refinement of the policy parameters.

The scalar objective is the negative average, over the state lattice, of
the chain's expected cost from t = 0; each coordinate of the gradient
estimate is a central finite difference of two evaluations.  The iterate is
confined to a box on the parameters intersected with a trust band around the
grid-search anchor control.

Evaluator contract: ``evaluator(thetas, seed)`` maps a (P, r) stack of
parameter vectors to their P objective values.  A KW step is one call on
the (2r+1, r) stack [theta, theta + delta e_1, theta - delta e_1, ...],
with one seed for all rows, so a noisy evaluator gets common random
numbers.  The solve's evaluator is ``improvement``, the objective itself:
one backward recursion of the chain over the stack
(``lattice.policy_start_values``).  It draws nothing and ignores the seed,
so the finite differences carry no sampling noise.  It replaces the paper's
Monte-Carlo estimate of the same expectation (chains from every node),
which is kept in the tests as the reference it agrees with in mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEvaluation
from .lattice import policy_start_values
from .network import feedback, forward
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


@dataclass
class ProjectionRegion:
    """Parameter box |theta_j| <= M plus a control trust band.

    The band constrains the network output on the anchor inputs to stay
    within ``band`` of the anchor control (the grid-search optimum at the
    fit stage), intersected with the admissible control box.  The band is
    frozen at its initial width: a shrinking feasible set would eventually
    exclude the optimum.
    """

    m_bound: float = 10.0
    arch: object = None
    anchor_times: np.ndarray | None = None
    anchor_states: np.ndarray | None = None
    anchor_controls: np.ndarray | None = None
    band: float = np.inf

    def project_box(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, -self.m_bound, self.m_bound)

    def contains(self, theta: np.ndarray, tol: float = 1e-9) -> bool:
        if np.any(np.abs(theta) > self.m_bound + tol):
            return False
        return self.band_ok(theta, tol=tol)

    def band_ok(self, theta: np.ndarray, tol: float = 1e-9) -> bool:
        if self.anchor_controls is None or not np.isfinite(self.band):
            return True
        out = forward(self.arch, theta, self.anchor_times[:, None][..., 0],
                      self.anchor_states)
        return bool(np.all(np.abs(out - self.anchor_controls) <= self.band + tol))

    @classmethod
    def around_anchor(cls, arch, theta0: np.ndarray, lattice, steps,
                      band: float, m_bound: float = 10.0) -> "ProjectionRegion":
        times = np.repeat(np.arange(steps.n_time) * steps.h2, lattice.n_nodes)
        states = np.tile(lattice.points, (steps.n_time, 1))
        anchors = forward(arch, theta0, times, states)
        return cls(m_bound=m_bound, arch=arch, anchor_times=times,
                   anchor_states=states, anchor_controls=anchors, band=band)


def improvement(problem, lattice, steps, mbar_path, arch,
                thetas) -> np.ndarray:
    """Negative average over the state lattice of the chain's expected cost
    from t = 0, -mean over nodes of V_theta(0, .), for each row of
    ``thetas`` under the network of that row and the (n_time + 1, d) mean
    path ``mbar_path``.  One backward recursion of the chain for all rows
    (``lattice.policy_start_values``).  Returns shape (P,).
    """
    costs = policy_start_values(problem, lattice, steps, mbar_path,
                                feedback(arch, thetas))
    g = -np.mean(costs, axis=0)
    if not np.all(np.isfinite(g)):
        raise NonFiniteEvaluation("improvement evaluation is not finite")
    return g


def kw_step(theta, schedule: SaSchedule, region: ProjectionRegion,
            evaluator, l: int, eval_seed: int):
    """One projected central-finite-difference update.

    The 2r+1 evaluations are one ``evaluator`` call on the stacked points,
    all with ``eval_seed`` (common random numbers).
    Returns ``(theta_next, info)``, with z_l and whether the step was cut.
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
    step = eps * k_vec
    cand = region.project_box(theta + step)
    halvings = 0
    while not region.band_ok(cand) and halvings < 20:
        step *= 0.5
        cand = region.project_box(theta + step)
        halvings += 1
    if halvings >= 20 and not region.band_ok(cand):
        cand = theta.copy()
    z = (cand - theta - eps * k_vec) / eps
    info = {
        "l": l,
        "G": g_here,
        "eps": eps,
        "delta": delta,
        "grad_norm": float(np.linalg.norm(k_vec)),
        "projected": bool(np.any(cand != theta + eps * k_vec)),
        "z": z,
    }
    return cand, info


def train(theta_init, schedule: SaSchedule, region: ProjectionRegion,
          evaluator, seed: int, ma_window: int = 10, trace: list | None = None):
    """Iterate kw_step until the moving-average objective change stalls.

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
        theta_next, info = kw_step(theta, schedule, region, evaluator, l,
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
