import numpy as np
import pytest

from mfgsolver.errors import InvalidParams, OutOfHorizon
from mfgsolver.problems import (LqParams, lq_problem, mfg2d_problem,
                                riccati_closed_form, riccati_ode_solve)
from references import LQ_INITIAL_MEAN, lq_analytic_equilibrium


class TestLqParams:
    def test_defaults(self):
        p = LqParams()
        assert (p.a, p.q, p.c, p.epsilon, p.rho, p.sigma, p.T) == \
            (0.1, 0.1, 0.5, 0.5, 0.2, 1.0, 1.0)

    def test_requires_positive_definite_cost(self):
        with pytest.raises(InvalidParams):
            LqParams(epsilon=0.01, q=0.5)

    def test_rho_range(self):
        with pytest.raises(InvalidParams):
            LqParams(rho=1.5)


class TestRiccati:
    def test_terminal_value_exact(self):
        assert riccati_closed_form(LqParams(), 1.0) == 0.5

    def test_out_of_horizon(self):
        with pytest.raises(OutOfHorizon):
            riccati_closed_form(LqParams(), 1.5)

    def test_closed_form_matches_ode(self):
        p = LqParams()
        times, eta = riccati_ode_solve(p, 4000)
        cf = riccati_closed_form(p, times)
        assert np.max(np.abs(cf - eta)) < 1e-9

    def test_solution_satisfies_ode(self):
        # finite-difference derivative of the closed form vs the RHS
        p = LqParams()
        t = np.linspace(0.05, 0.95, 50)
        h = 1e-6
        lhs = (riccati_closed_form(p, t + h)
               - riccati_closed_form(p, t - h)) / (2 * h)
        eta = riccati_closed_form(p, t)
        rhs = 2 * (p.a + p.q) * eta + eta ** 2 - (p.epsilon - p.q ** 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)

    def test_positive_on_horizon(self):
        eta = riccati_closed_form(LqParams(), np.linspace(0, 1, 101))
        assert np.all(eta > 0)


class TestLqProblem:
    def test_drift_and_costs(self):
        problem = lq_problem(LqParams())
        mbar = np.array([0.5])
        x = np.array([[0.3]])
        al = np.array([[0.2]])
        b = problem.drift(0.0, x, mbar, al)
        assert b[0, 0] == pytest.approx(0.1 * 0.2 + 0.2)
        f = problem.running_cost(0.0, x, mbar, al)
        assert f[0] == pytest.approx(0.5 * 0.04 - 0.1 * 0.2 * 0.2
                                     + 0.25 * 0.04)
        g = problem.terminal_cost(x, mbar)
        assert g[0] == pytest.approx(0.25 * 0.04)

    def test_diffusion_matrix(self):
        problem = lq_problem(LqParams(sigma=2.0))
        np.testing.assert_array_equal(problem.volatility, [[2.0]])
        np.testing.assert_allclose(problem.covariance, [[4.0]])

    def test_initial_sampler_uniform(self):
        problem = lq_problem(LqParams())
        x = problem.initial_sampler(np.random.default_rng(0), 20_000)
        assert x.shape == (20_000, 1)
        assert np.all((x >= 0) & (x <= 1))
        assert abs(x.mean() - LQ_INITIAL_MEAN) < 0.01


class TestAnalyticEquilibrium:
    def test_terminal_value_is_terminal_cost(self):
        p = LqParams()
        times = np.linspace(0, 1, 101)
        _, _, value_fn = lq_analytic_equilibrium(p, np.zeros(101), times)
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert value_fn(1.0, x) == pytest.approx(
                0.5 * p.c * (0.5 - x) ** 2, abs=1e-12)

    def test_control_zero_at_the_mean(self):
        p = LqParams()
        times = np.linspace(0, 1, 101)
        u, alpha_fn, _ = lq_analytic_equilibrium(p, np.zeros(101), times)
        assert np.all(u == 0.5)
        assert alpha_fn(0.3, 0.5) == pytest.approx(0.0)

    def test_mean_follows_common_noise(self):
        p = LqParams()
        times = np.linspace(0, 1, 11)
        w0 = np.linspace(0, 2, 11)
        u, _, _ = lq_analytic_equilibrium(p, w0, times)
        np.testing.assert_allclose(u, 0.5 + p.rho * p.sigma * w0)

    def test_value_decreasing_in_time_at_the_mean(self):
        # at x = u the quadratic term vanishes; the tail integral shrinks
        p = LqParams()
        times = np.linspace(0, 1, 101)
        _, _, value_fn = lq_analytic_equilibrium(p, np.zeros(101), times)
        vals = [value_fn(t, 0.5) for t in (0.0, 0.3, 0.7, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMfg2d:
    def test_sampler_inside_box(self):
        problem = mfg2d_problem()
        x = problem.initial_sampler(np.random.default_rng(1), 5000)
        assert np.all((x >= 0) & (x <= 1))
        # truncated Gaussian around (0, 1): mass hugs the left/top edges
        assert x[:, 0].mean() < 0.5 < x[:, 1].mean()

    def test_costs_couple_to_the_mean(self):
        problem = mfg2d_problem()
        mbar = np.array([0.8, 0.8])
        x = np.array([[1.0, 1.0]])
        f = problem.running_cost(0.0, x, mbar, np.array([[0.5, 0.5]]))
        assert f[0] == pytest.approx(2 * 0.0 + 0.5)
        g = problem.terminal_cost(x, mbar)
        assert g[0] == pytest.approx(0.0)

    def test_diffusion(self):
        problem = mfg2d_problem()
        np.testing.assert_array_equal(problem.volatility, 0.5 * np.eye(2))
        np.testing.assert_allclose(problem.covariance, 0.25 * np.eye(2))


class TestBlockOfMeans:
    """A block of times passes the means as (B, 1, d), broadcast against
    the points; each model's callbacks must then give, time by time, the
    bits of a call with that time's (d,) mean."""

    @pytest.mark.parametrize("model", ["lq", "mfg2d"])
    def test_drift_and_costs_equal_per_time_calls(self, model):
        problem = lq_problem(LqParams()) if model == "lq" else mfg2d_problem()
        rng = np.random.default_rng(3)
        d, k = problem.dim, problem.control_dim
        x = rng.uniform(problem.domain_lower, problem.domain_upper, (9, d))
        alpha = rng.uniform(problem.control_lower, problem.control_upper,
                            (5, 9, k))
        ts = np.arange(5) * 0.01
        means = rng.uniform(problem.domain_lower, problem.domain_upper, (5, d))
        drift = problem.drift(ts[:, None], x, means[:, None], alpha)
        cost = problem.running_cost(ts[:, None], x, means[:, None], alpha)
        terminal = problem.terminal_cost(x, means[:, None])
        for b in range(5):
            assert np.array_equal(
                drift[b], problem.drift(ts[b], x, means[b], alpha[b]))
            assert np.array_equal(
                cost[b], problem.running_cost(ts[b], x, means[b], alpha[b]))
            assert np.array_equal(terminal[b],
                                  problem.terminal_cost(x, means[b]))
