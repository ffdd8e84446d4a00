"""Concrete game definitions behind a uniform problem interface.

Two benchmarks are provided: a 1-D linear-quadratic game with common noise,
whose equilibrium control (q + eta_t)(u_t - x) follows from the Riccati
solution eta (``riccati_closed_form``, checked against its RK4 solve), and a
2-D game on the unit box whose costs couple to the population mean.

Callback conventions
--------------------
All callbacks are vectorized over leading axes: ``x`` has shape ``(..., d)``,
``alpha`` has shape ``(..., k)``, and scalar outputs have shape ``(...,)``.
The population enters every callback as ``mbar``, the mean of the
population law at time ``t`` (the first moment of the current slice), of
shape ``(..., d)``: ``(d,)`` at one time, or with leading axes that
broadcast against ``x`` when a block of times is evaluated at once, in which
case ``t`` has the same leading axes.  Each model projects from ``mbar``
whatever it needs.  The diffusion is no callback: both benchmarks have a
constant ``(d, d)`` volatility ``sigma``, and ``MfgProblem.covariance``
holds sigma sigma^T, computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParams, OutOfHorizon


@dataclass
class MfgProblem:
    """One game instance: dynamics, costs, domains and initial law."""

    dim: int
    control_dim: int
    horizon: float
    domain_lower: np.ndarray          # truncation box for unbounded models
    domain_upper: np.ndarray
    control_lower: np.ndarray
    control_upper: np.ndarray
    drift: Callable                   # (t, x, mbar, alpha) -> (..., d)
    volatility: np.ndarray            # constant sigma, (d, d)
    running_cost: Callable            # (t, x, mbar, alpha) -> (...,)
    terminal_cost: Callable           # (x, mbar) -> (...,)
    initial_sampler: Callable         # (rng, n) -> (n, d)
    bounded_domain: bool = True       # clamp simulated states into the box?
    has_common_noise: bool = False
    noise_rho: float = 0.0
    name: str = "custom"
    covariance: np.ndarray = field(init=False, repr=False)  # sigma sigma^T

    def __post_init__(self):
        self.volatility = np.asarray(self.volatility, dtype=float)
        self.covariance = self.volatility @ self.volatility.T

    def control_midpoint(self) -> np.ndarray:
        return 0.5 * (self.control_lower + self.control_upper)


# ---------------------------------------------------------------------------
# Linear-quadratic game with common noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LqParams:
    """Scalars of the 1-D linear-quadratic benchmark.

    The defaults are the benchmark configuration used throughout the tests.
    """

    a: float = 0.1
    q: float = 0.1
    c: float = 0.5
    epsilon: float = 0.5
    rho: float = 0.2
    sigma: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        if self.epsilon - self.q ** 2 <= 0:
            raise InvalidParams("need epsilon - q^2 > 0")
        if self.c < 0:
            raise InvalidParams("need c >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise InvalidParams("need rho in [-1, 1]")
        if self.sigma <= 0:
            raise InvalidParams("need sigma > 0")
        if self.T <= 0:
            raise InvalidParams("need T > 0")


def lq_problem(
    params: LqParams,
    domain: tuple[float, float] = (-2.0, 3.0),
    control_box: tuple[float, float] = (-2.0, 2.0),
) -> MfgProblem:
    """Build the LQ common-noise game.

    The state domain is unbounded; ``domain`` is the truncation box used by
    the lattice stage.  The mean-field interaction enters only through the
    population mean (the conditional mean under common noise).
    """
    p = params

    def drift(t, x, mbar, alpha):
        u = mbar[..., :1]
        return p.a * (u - x) + alpha

    def running_cost(t, x, mbar, alpha):
        u = mbar[..., 0]
        al = alpha[..., 0]
        dev = u - x[..., 0]
        return 0.5 * al ** 2 - p.q * al * dev + 0.5 * p.epsilon * dev ** 2

    def terminal_cost(x, mbar):
        u = mbar[..., 0]
        dev = u - x[..., 0]
        return 0.5 * p.c * dev ** 2

    def initial_sampler(rng, n):
        return rng.uniform(0.0, 1.0, size=(n, 1))

    return MfgProblem(
        dim=1,
        control_dim=1,
        horizon=p.T,
        domain_lower=np.array([domain[0]]),
        domain_upper=np.array([domain[1]]),
        control_lower=np.array([control_box[0]]),
        control_upper=np.array([control_box[1]]),
        drift=drift,
        volatility=np.array([[p.sigma]]),
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        initial_sampler=initial_sampler,
        bounded_domain=False,
        has_common_noise=True,
        noise_rho=p.rho,
        name="lq",
    )


def riccati_closed_form(params: LqParams, t):
    """Closed-form solution eta_t of the backward Riccati equation.

    Accepts a scalar or array ``t`` in [0, T]; the terminal point returns
    exactly ``c``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > params.T + 1e-12):
        raise OutOfHorizon(f"t={t} outside [0, {params.T}]")
    R = (params.a + params.q) ** 2 + (params.epsilon - params.q ** 2)
    dp = -(params.a + params.q) + np.sqrt(R)
    dm = -(params.a + params.q) - np.sqrt(R)
    e = np.exp((dp - dm) * (params.T - t))
    denom = (dm * e - dp) - params.c * (e - 1.0)
    eta = (-(params.epsilon - params.q ** 2) * (e - 1.0)
           - params.c * (dp * e - dm)) / denom
    # exact terminal value, bypassing roundoff in the quotient
    eta = np.where(np.abs(t - params.T) < 1e-15, params.c, eta)
    return eta if eta.ndim else float(eta)


def riccati_ode_solve(params: LqParams, n_steps: int):
    """Integrate the Riccati ODE backward from T with classical RK4.

    Returns ``(times, eta)`` with ``times`` ascending on [0, T] and
    ``eta[-1] == c`` exactly.
    """
    if n_steps < 10:
        raise InvalidParams("n_steps must be >= 10")
    lam = 2.0 * (params.a + params.q)
    gamma = params.epsilon - params.q ** 2

    def rhs(eta):
        return lam * eta + eta ** 2 - gamma

    h = params.T / n_steps
    eta = np.empty(n_steps + 1)
    eta[n_steps] = params.c
    y = params.c
    for i in range(n_steps, 0, -1):
        # step from t_i to t_{i-1}: dt = -h
        k1 = rhs(y)
        k2 = rhs(y - 0.5 * h * k1)
        k3 = rhs(y - 0.5 * h * k2)
        k4 = rhs(y - h * k3)
        y = y - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        eta[i - 1] = y
    times = np.linspace(0.0, params.T, n_steps + 1)
    return times, eta


# ---------------------------------------------------------------------------
# 2-D game on the unit box
# ---------------------------------------------------------------------------

def mfg2d_problem(sigma: float = 0.5, horizon: float = 1.0) -> MfgProblem:
    """The 2-D benchmark: drift 2x - alpha, costs coupling to the mean.

    State box [0,1]^2, control box [0,1.5]^2, diffusion 0.5*I.  Agents start
    from a Gaussian with mean (0, 1) and covariance 0.25*I truncated to the
    box (rejection sampling; the lattice cannot host exterior mass).
    """
    if sigma < 0:
        raise InvalidParams("need sigma >= 0")
    if horizon <= 0:
        raise InvalidParams("need horizon > 0")

    def drift(t, x, mbar, alpha):
        return 2.0 * x - alpha

    def running_cost(t, x, mbar, alpha):
        dev = 4.0 * x - 5.0 * mbar
        return np.sum(dev ** 2, axis=-1) + np.sum(alpha ** 2, axis=-1)

    def terminal_cost(x, mbar):
        dev = 4.0 * x - 5.0 * mbar
        return np.sum(dev ** 2, axis=-1)

    mu = np.array([0.0, 1.0])
    cov_sd = 0.5  # sqrt(0.25)

    def initial_sampler(rng, n):
        out = np.empty((n, 2))
        filled = 0
        while filled < n:
            cand = mu + cov_sd * rng.standard_normal(size=(2 * (n - filled) + 8, 2))
            ok = cand[np.all((cand >= 0.0) & (cand <= 1.0), axis=1)]
            take = min(len(ok), n - filled)
            out[filled:filled + take] = ok[:take]
            filled += take
        return out

    return MfgProblem(
        dim=2,
        control_dim=2,
        horizon=horizon,
        domain_lower=np.zeros(2),
        domain_upper=np.ones(2),
        control_lower=np.zeros(2),
        control_upper=np.full(2, 1.5),
        drift=drift,
        volatility=sigma * np.eye(2),
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        initial_sampler=initial_sampler,
        bounded_domain=True,
        name="mfg2d",
    )
