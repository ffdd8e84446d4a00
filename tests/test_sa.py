from types import SimpleNamespace

import numpy as np
import pytest

from mfgsolver.errors import NonFiniteEvaluation
from mfgsolver.lattice import (StepSizes, build_lattice, chain_step,
                               stencil_probabilities)
from mfgsolver.network import (NetworkArchitecture, forward, random_theta,
                               zero_theta)
from mfgsolver.problems import LqParams, lq_problem
from mfgsolver.sa import (ProjectionRegion, SaSchedule, improvement, kw_step,
                          train)
from mfgsolver.seeding import substream


class TestSchedule:
    def test_defaults_valid(self):
        s = SaSchedule()
        assert s.eps(0) == pytest.approx(1.0)
        assert s.eps(9) == pytest.approx(0.1)
        assert s.delta(0) == pytest.approx(0.5)
        assert s.delta(15) == pytest.approx(0.25)

    def test_rejects_non_divergent_eps(self):
        with pytest.raises(ValueError):
            SaSchedule(p_eps=1.5)

    def test_rejects_delta_dominating_eps(self):
        with pytest.raises(ValueError):
            SaSchedule(p_eps=0.5, p_delta=0.6)

    def test_rejects_non_summable_ratio(self):
        with pytest.raises(ValueError):
            SaSchedule(p_eps=0.6, p_delta=0.3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SaSchedule(eps0=0.0)


class TestProjectionRegion:
    def test_box_clamp(self):
        r = ProjectionRegion(m_bound=2.0)
        np.testing.assert_array_equal(r.project_box(np.array([3.0, -5.0])),
                                      [2.0, -2.0])

    def test_band_around_anchor(self):
        arch = NetworkArchitecture(1, 1, (4,), 1.0, (0.,), (1.,),
                                   (0.,), (1.,))
        from mfgsolver.problems import lq_problem, LqParams
        problem = lq_problem(LqParams())
        steps = StepSizes.for_horizon(1.0, 0.2, 0.1)
        lat = build_lattice(problem, steps)
        arch = NetworkArchitecture.for_problem(problem, hidden=(4,))
        theta0 = zero_theta(arch)
        region = ProjectionRegion.around_anchor(arch, theta0, lat, steps,
                                                band=0.05)
        assert region.contains(theta0)
        # a big parameter kick pushes the output past the band
        theta_far = theta0.copy()
        theta_far[-1] = 8.0  # output bias
        assert not region.band_ok(theta_far)

    def test_infinite_band_always_ok(self):
        r = ProjectionRegion(m_bound=10.0)
        assert r.band_ok(np.array([1.0]))


def quadratic(tstar):
    def ev(thetas, seed):
        return -np.sum((thetas - tstar) ** 2, axis=1)
    return ev


class TestKwStep:
    def test_exact_gradient_on_quadratic(self):
        # central differences are exact for quadratics: K = -2(theta-t*)
        tstar = np.array([1.0, -1.0, 0.5])
        sch = SaSchedule()
        region = ProjectionRegion(m_bound=10.0)
        theta = np.zeros(3)
        nxt, info = kw_step(theta, sch, region, quadratic(tstar), 0, 0)
        np.testing.assert_allclose(nxt, 2.0 * tstar * sch.eps(0))
        assert not info["projected"]
        np.testing.assert_allclose(info["z"], 0.0)

    def test_projection_term_recorded(self):
        tstar = np.array([50.0])
        sch = SaSchedule()
        region = ProjectionRegion(m_bound=1.0)
        nxt, info = kw_step(np.zeros(1), sch, region, quadratic(tstar), 0, 0)
        assert nxt[0] == pytest.approx(1.0)
        assert info["projected"]
        assert info["z"][0] < 0.0

    @pytest.mark.parametrize("case", ["unclipped", "box", "band"])
    def test_projected_only_when_the_step_is_cut(self, case):
        # (theta + s) - theta != s in floating point, so a test on
        # z = (cand - theta - s) / eps calls an unclipped step projected
        sch = SaSchedule()
        if case == "band":
            # the output bias pulls the control past the band: halved steps
            problem = lq_problem(LqParams())
            steps = StepSizes.for_horizon(1.0, 0.2, 0.1)
            arch = NetworkArchitecture.for_problem(problem, hidden=(4,))
            theta = zero_theta(arch)
            region = ProjectionRegion.around_anchor(
                arch, theta, build_lattice(problem, steps), steps, band=0.05,
                m_bound=100.0)
            tstar = theta.copy()
            tstar[-1] = 8.0
        else:
            theta = np.array([0.7, -0.3, 0.45])
            tstar = np.array([1.0, -1.0, 0.5]) if case == "unclipped" \
                else np.array([50.0, -1.0, 0.5])
            region = ProjectionRegion(m_bound=10.0)
        nxt, info = kw_step(theta, sch, region, quadratic(tstar), 0, 0)
        free = theta + sch.eps(0) * 2.0 * (tstar - theta)
        assert info["projected"] == (case != "unclipped")
        assert np.allclose(nxt, free) == (case == "unclipped")
        assert region.contains(nxt)

    def test_nonfinite_raises(self):
        def bad(thetas, seed):
            return np.full(len(thetas), np.nan)
        with pytest.raises(NonFiniteEvaluation):
            kw_step(np.zeros(2), SaSchedule(), ProjectionRegion(), bad, 0, 0)

    def test_crn_pairing_reduces_variance(self):
        # noisy quadratic: paired seeds cancel the noise in the difference,
        # independent draws do not
        tstar = np.array([0.5, -0.5])

        def noisy(thetas, seed):
            rng = substream(seed, "eval")
            return (-np.sum((thetas - tstar) ** 2, axis=1)
                    + 0.1 * float(rng.standard_normal()))

        def noisy_indep(thetas, seed):
            noise = [substream(seed, "eval", hash(th.tobytes()) & 0xFFFF)
                     .standard_normal() for th in thetas]
            return -np.sum((thetas - tstar) ** 2, axis=1) + 0.1 * np.array(noise)

        sch = SaSchedule()
        region = ProjectionRegion(m_bound=10.0)
        grads_p, grads_i = [], []
        for s in range(40):
            _, ip = kw_step(np.zeros(2), sch, region, noisy, 0, s)
            _, ii = kw_step(np.zeros(2), sch, region, noisy_indep, 0, s)
            grads_p.append(ip["grad_norm"])
            grads_i.append(ii["grad_norm"])
        assert np.var(grads_p) < 0.25 * np.var(grads_i)


class TestTrain:
    def test_converges_on_noiseless_quadratic(self):
        tstar = np.array([0.3, -0.5, 1.0, 0.0, 2.0])
        sch = SaSchedule(max_steps=5000, trigger=1e-12)
        out = train(np.zeros(5), sch, ProjectionRegion(m_bound=10.0),
                    quadratic(tstar), seed=0)
        assert np.max(np.abs(out - tstar)) <= 1e-2

    def test_flat_objective_returns_start(self):
        def flat(thetas, seed):
            return np.ones(len(thetas))
        theta0 = np.array([0.7, -0.2])
        out = train(theta0, SaSchedule(max_steps=100), ProjectionRegion(),
                    flat, seed=0)
        np.testing.assert_array_equal(out, theta0)

    def test_last_candidate_is_not_returned(self):
        # each step evaluates G at its start only, so with a one-step budget
        # the better candidate it moves to is never evaluated or returned
        tstar = np.array([1.0, -1.0, 0.5])
        theta0 = np.array([0.2, 0.1, -0.3])
        sch = SaSchedule(eps0=0.25, max_steps=1)  # halfway to the optimum
        region = ProjectionRegion(m_bound=10.0)
        cand, _ = kw_step(theta0, sch, region, quadratic(tstar), 0, 0)
        g = quadratic(tstar)(np.stack([theta0, cand]), 0)
        assert g[1] > g[0]
        out = train(theta0, sch, region, quadratic(tstar), seed=0)
        assert np.array_equal(out, theta0)

    def test_trace_recorded(self):
        trace = []
        train(np.zeros(2), SaSchedule(max_steps=30),
              ProjectionRegion(m_bound=10.0),
              quadratic(np.array([0.1, 0.2])), seed=0, trace=trace)
        assert trace and trace[0]["l"] == 0
        assert {"G", "eps", "delta", "grad_norm"} <= set(trace[0])


@pytest.fixture(scope="module")
def setup():
    from mfgsolver.problems import LqParams, lq_problem
    problem = lq_problem(LqParams())
    steps = StepSizes.for_horizon(1.0, 0.5, 0.05)
    lat = build_lattice(problem, steps)
    m = np.full((steps.n_time + 1, 1), 0.5)
    arch = NetworkArchitecture.for_problem(problem, hidden=(4,))
    return problem, steps, lat, m, arch


class TestImprovement:
    def test_deterministic_in_seed(self, setup):
        # the exact objective draws nothing, so a solve's evaluator gives the
        # same values at every seed
        problem, steps, lat, m, arch = setup
        theta = zero_theta(arch)[None]
        a = improvement(problem, lat, steps, m, arch, theta)
        b = improvement(problem, lat, steps, m, arch, theta)
        assert np.array_equal(a, b)

    def test_negative_of_cost(self, setup):
        # costs are nonnegative for the LQ model only up to the cross term;
        # with zero control the running cost is pure quadratic >= 0
        problem, steps, lat, m, arch = setup
        g = improvement(problem, lat, steps, m, arch, zero_theta(arch)[None])
        assert np.isfinite(g)


def mc_improvement(problem, lattice, steps, mbar_path, arch, thetas, n_mc,
                   seed):
    """Reference: the paper's Monte-Carlo estimate of the objective, (P,).

    ``n_mc`` chains from each node per row of ``thetas``, all rows stepped
    on the uniforms drawn from ``seed`` (common random numbers)."""
    rng = substream(seed, "improve")
    n_nodes = lattice.n_nodes
    rows = np.arange(len(thetas))[:, None]
    nodes = np.tile(np.repeat(np.arange(n_nodes), n_mc), (rows.shape[0], 1))
    neighbors = np.repeat(lattice.neighbor_indices(), len(thetas), axis=0)
    folded = SimpleNamespace(neighbor_indices=lambda: neighbors)
    total = np.zeros(nodes.shape)
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = forward(arch, thetas, np.full(n_nodes, t),
                        lattice.points).transpose(1, 0, 2)    # (N, P, k)
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer)
        cost = problem.running_cost(t, lattice.points[:, None, :],
                                    mbar_path[n], layer)      # (N, P)
        flat = nodes * cost.shape[1] + rows
        total += np.take(cost, flat) * steps.h2
        # row p of node i is the pseudo-node i * P + p of a folded table
        nodes = chain_step(folded, probs.reshape(-1, probs.shape[-1]), flat,
                           rng)
    total += problem.terminal_cost(lattice.points, mbar_path[-1])[nodes]
    return -np.mean(total, axis=1)


def sequential_improvement(problem, lattice, steps, mbar_path, arch, theta,
                           n_mc, seed):
    """Reference: one parameter vector, every chain stepped on its own."""
    rng = substream(seed, "improve")
    n_nodes = lattice.n_nodes
    nodes = np.repeat(np.arange(n_nodes), n_mc)
    neigh = lattice.neighbor_indices()
    total = np.zeros(nodes.shape[0])
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = forward(arch, theta, np.full(n_nodes, t), lattice.points)
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer[:, None, :])[:, 0]
        total += problem.running_cost(
            t, lattice.points[nodes], mbar_path[n], layer[nodes]) * steps.h2
        cum = np.cumsum(probs[nodes], axis=1)
        u = rng.uniform(size=nodes.shape[0])
        nodes = neigh[nodes, np.argmax(cum > u[:, None], axis=1)]
    total += problem.terminal_cost(lattice.points[nodes], mbar_path[-1])
    return -float(np.mean(total))


@pytest.fixture(scope="module", params=["lq", "mfg2d"])
def oracle_setup(request, setup):
    from mfgsolver.measures import mean_path
    from mfgsolver.problems import mfg2d_problem
    if request.param == "lq":
        problem, steps, lat, m, _ = setup
    else:
        problem = mfg2d_problem()
        steps = StepSizes.for_horizon(1.0, 0.25, 0.02)
        lat = build_lattice(problem, steps)
        cloud = substream(5, "oracle").uniform(0.0, 1.0, size=(50, 2))
        m = mean_path(np.repeat(cloud[None], steps.n_time + 1, axis=0))
    arch = NetworkArchitecture.for_problem(problem, hidden=(3,))
    return problem, steps, lat, m, arch


class TestExactEvaluator:
    def test_monte_carlo_is_unbiased(self, oracle_setup):
        # the chain's expected cost from t = 0 is what both compute
        problem, steps, lat, m, arch = oracle_setup
        rng = substream(12, "exact-theta")
        thetas = np.stack([random_theta(arch, rng, scale=3.0)
                           for _ in range(3)])
        exact = improvement(problem, lat, steps, m, arch, thetas)
        mc = np.array([mc_improvement(problem, lat, steps, m, arch, thetas, 4,
                                      seed) for seed in range(40)])
        se = mc.std(axis=0, ddof=1) / np.sqrt(len(mc))
        assert np.all(se > 0)
        assert np.all(np.abs(mc.mean(axis=0) - exact) <= 3.0 * se)

    def test_nonfinite_raises(self, oracle_setup):
        problem, steps, lat, m, arch = oracle_setup
        bad = m.copy()
        bad[-1] = np.inf
        with pytest.raises(NonFiniteEvaluation):
            improvement(problem, lat, steps, bad, arch,
                        zero_theta(arch)[None])


class TestBatchedOracle:
    # the batched Monte-Carlo reference, with rows on shared uniforms, is the
    # per-chain loop, and kw_step reads its stack in the documented order
    @pytest.mark.parametrize("n_rows", [1, 5])
    def test_batched_equals_per_row_loop(self, oracle_setup, n_rows):
        problem, steps, lat, m, arch = oracle_setup
        rng = substream(11, "oracle-theta", n_rows)
        thetas = np.stack([random_theta(arch, rng, scale=3.0)
                           for _ in range(n_rows)])
        batched = mc_improvement(problem, lat, steps, m, arch, thetas, 4, 9)
        assert batched.shape == (n_rows,)
        one_row = [mc_improvement(problem, lat, steps, m, arch, th[None], 4,
                                  9)[0] for th in thetas]
        reference = [sequential_improvement(problem, lat, steps, m, arch, th,
                                            4, 9) for th in thetas]
        assert np.array_equal(batched, one_row)
        assert np.array_equal(batched, reference)

    def test_kw_step_on_chain_objective(self, oracle_setup):
        # G and every central difference of one step match the reference
        problem, steps, lat, m, arch = oracle_setup
        theta = random_theta(arch, substream(3, "oracle-kw"), scale=3.0)
        sch = SaSchedule()

        def evaluator(thetas, seed):
            return mc_improvement(problem, lat, steps, m, arch, thetas, 2,
                                  seed)

        _, info = kw_step(theta, sch, ProjectionRegion(), evaluator, 0, 17)
        delta = sch.delta(0)
        assert info["G"] == sequential_improvement(problem, lat, steps, m,
                                                   arch, theta, 2, 17)
        grad = []
        for j in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[j] = delta
            g_plus, g_minus = (sequential_improvement(
                problem, lat, steps, m, arch, th, 2, 17)
                for th in (theta + e, theta - e))
            grad.append((g_plus - g_minus) / (2.0 * delta))
        assert info["grad_norm"] == float(np.linalg.norm(grad))

    def test_kw_step_makes_one_call_with_the_stack(self):
        theta = np.array([0.5, -1.0, 2.0])
        sch = SaSchedule()
        calls = []

        def recording(thetas, seed):
            calls.append((thetas.copy(), seed))
            return -np.sum(thetas ** 2, axis=1)

        kw_step(theta, sch, ProjectionRegion(), recording, 2, 41)
        assert len(calls) == 1
        stack, seed = calls[0]
        d = sch.delta(2)
        expected = [theta]
        for j in range(3):
            e = np.zeros(3)
            e[j] = d
            expected += [theta + e, theta - e]
        assert seed == 41
        assert np.array_equal(stack, np.array(expected))
