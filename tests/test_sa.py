import os
from functools import partial

import numpy as np
import pytest

import mfgsolver.lattice
import mfgsolver.runner
import mfgsolver.sa
from mfgsolver.errors import NonFiniteEvaluation
from mfgsolver.lattice import (StepSizes, build_lattice,
                               stencil_probabilities, time_blocks)
from mfgsolver.network import NetworkArchitecture, forward, random_theta
from mfgsolver.runner import RunConfig, _initial_law, run_algorithm1
from mfgsolver.sa import gradient, improvement, kw_step, train
from mfgsolver.seeding import substream
from references import chain_step


def quadratic(tstar):
    """G(theta) = -|theta - t*|^2 and its exact gradient, as the objective
    ``theta -> (G, aux)`` and gradient ``(theta, aux) -> grad`` of
    ``kw_step``; the aux is theta - t*."""
    def objective(theta):
        return -float(np.sum((theta - tstar) ** 2)), theta - tstar

    def grad_fn(theta, diff):
        return -2.0 * diff

    return objective, grad_fn


def g_of(objective, theta):
    return objective(theta)[0]


def step_on(tstar, theta, lr, m_bound=10.0):
    objective, grad_fn = quadratic(tstar)
    g, diff = objective(theta)
    return kw_step(theta, g, grad_fn(theta, diff), lr, m_bound, objective,
                   grad_fn)


class TestKwStep:
    def test_exact_gradient_on_quadratic(self):
        # the first trial is accepted: the step is theta + lr grad G
        tstar = np.array([1.0, -1.0, 0.5])
        nxt, g, grad, info = step_on(tstar, np.zeros(3), 0.25)
        np.testing.assert_array_equal(nxt, 0.5 * tstar)
        assert info == {"eps": 0.25, "projected": False}
        assert g == g_of(quadratic(tstar)[0], nxt)
        np.testing.assert_array_equal(grad, -2.0 * (nxt - tstar))

    def test_projection_term_recorded(self):
        nxt, _, _, info = step_on(np.array([50.0]), np.zeros(1), 1.0,
                                  m_bound=1.0)
        assert nxt[0] == 1.0
        assert info["projected"]

    def test_box_clamp(self):
        # a step that leaves the box on both sides lands on its faces
        nxt, _, _, _ = step_on(np.array([50.0, -50.0]), np.zeros(2), 1.0,
                               m_bound=2.0)
        np.testing.assert_array_equal(nxt, [2.0, -2.0])

    @pytest.mark.parametrize("case", ["unclipped", "box"])
    def test_projected_only_when_the_step_is_cut(self, case):
        theta = np.array([0.7, -0.3, 0.45])
        tstar = np.array([1.0, -1.0, 0.5]) if case == "unclipped" \
            else np.array([50.0, -1.0, 0.5])
        nxt, _, _, info = step_on(tstar, theta, 0.25)
        free = theta + 0.25 * 2.0 * (tstar - theta)
        assert info["projected"] == (case != "unclipped")
        assert np.allclose(nxt, free) == (case == "unclipped")
        assert np.all(np.abs(nxt) <= 10.0)

    def test_backtracks_from_an_overshoot(self):
        # lr = 1 overshoots the optimum of G: each trial is one objective
        # call, and lr halves until a trial passes the sufficient-increase
        # test
        tstar = np.array([1.0, -1.0])
        objective, grad_fn = quadratic(tstar)
        calls, grads = [], []

        def counted(theta):
            calls.append(theta.copy())
            return objective(theta)

        def counted_grad(theta, diff):
            grads.append((theta.copy(), diff))
            return grad_fn(theta, diff)

        zero = np.zeros(2)
        nxt, g, _, info = kw_step(zero, g_of(objective, zero),
                                  grad_fn(zero, zero - tstar), 1.0, 10.0,
                                  counted, counted_grad)
        assert info["eps"] == 0.5
        np.testing.assert_array_equal(nxt, tstar)
        assert len(calls) == 2 and g == 0.0
        # one gradient, at the accepted point, on its trial's aux
        assert len(grads) == 1 and np.array_equal(grads[0][0], tstar)
        assert np.array_equal(grads[0][1], np.zeros(2))

    def test_nonfinite_raises(self):
        def bad(theta):
            return np.nan, None
        with pytest.raises(NonFiniteEvaluation):
            kw_step(np.zeros(2), 0.0, np.ones(2), 0.1, 10.0, bad,
                    lambda theta, aux: np.ones(2))


class TestTrain:
    def test_converges_on_noiseless_quadratic(self):
        tstar = np.array([0.3, -0.5, 1.0, 0.0, 2.0])
        out = train(np.zeros(5), 10.0, 5000, *quadratic(tstar))
        assert np.max(np.abs(out - tstar)) <= 1e-2

    def test_flat_objective_returns_start(self):
        theta0 = np.array([0.7, -0.2])
        trace = []
        out = train(theta0, 10.0, 100, lambda theta: (1.0, None),
                    lambda theta, aux: np.zeros(2), trace=trace)
        np.testing.assert_array_equal(out, theta0)
        assert [row["l"] for row in trace] == [0]

    def test_last_iterate_is_evaluated_and_returned(self):
        # with a one-step budget the accepted candidate is returned, and the
        # last trace row holds its G
        tstar = np.array([1.0, -1.0, 0.5])
        theta0 = np.array([0.2, 0.1, -0.3])
        objective, grad_fn = quadratic(tstar)
        trace = []
        out = train(theta0, 10.0, 1, objective, grad_fn, trace=trace)
        assert g_of(objective, out) > g_of(objective, theta0)
        assert [row["l"] for row in trace] == [0, 1]
        assert trace[0]["G"] == g_of(objective, theta0)
        assert trace[-1]["G"] == g_of(objective, out)

    def test_trace_recorded(self):
        trace = []
        train(np.zeros(2), 10.0, 30, *quadratic(np.array([0.1, 0.2])),
              trace=trace)
        assert trace and trace[0]["l"] == 0
        assert all(set(row) == {"l", "G", "eps", "grad_norm", "projected"}
                   for row in trace)
        assert all(b["G"] >= a["G"] for a, b in zip(trace, trace[1:]))


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
        theta = np.zeros(arch.n_params)
        g_a, values_a = improvement(problem, lat, steps, m, arch, theta)
        g_b, values_b = improvement(problem, lat, steps, m, arch, theta)
        assert g_a == g_b and np.array_equal(values_a, values_b)

    def test_negative_of_cost(self, setup):
        # costs are nonnegative for the LQ model only up to the cross term;
        # with zero control the running cost is pure quadratic >= 0
        problem, steps, lat, m, arch = setup
        g, _ = improvement(problem, lat, steps, m, arch, np.zeros(arch.n_params))
        assert np.isfinite(g)


def mc_improvement(problem, lattice, steps, mbar_path, arch, thetas, n_mc,
                   seed):
    """Reference: the paper's Monte-Carlo estimate of the objective, (P,).

    ``n_mc`` chains from each node per row of ``thetas``, each row's
    controls from its own forward pass, all rows stepped on the uniforms
    drawn from ``seed`` (common random numbers)."""
    rng = substream(seed, "improve")
    n_nodes = lattice.n_nodes
    rows = np.arange(len(thetas))[:, None]
    nodes = np.tile(np.repeat(np.arange(n_nodes), n_mc), (rows.shape[0], 1))
    neighbors = np.repeat(lattice.neighbor_indices(), len(thetas), axis=0)
    total = np.zeros(nodes.shape)
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = np.stack([forward(arch, theta, np.full(n_nodes, t),
                                  lattice.points)
                          for theta in thetas], axis=1)       # (N, P, k)
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer)
        cost = problem.running_cost(t, lattice.points[:, None, :],
                                    mbar_path[n], layer)      # (N, P)
        flat = nodes * cost.shape[1] + rows
        total += np.take(cost, flat) * steps.h2
        # row p of node i is the pseudo-node i * P + p of a folded table
        nodes = chain_step(neighbors, probs.reshape(-1, probs.shape[-1]),
                           flat, rng.uniform(size=nodes.shape[-1]))
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
    from mfgsolver.problems import mfg2d_problem
    if request.param == "lq":
        problem, steps, lat, m, _ = setup
    else:
        problem = mfg2d_problem()
        steps = StepSizes.for_horizon(1.0, 0.25, 0.02)
        lat = build_lattice(problem, steps)
        cloud = substream(5, "oracle").uniform(0.0, 1.0, size=(50, 2))
        m = np.repeat(cloud.mean(axis=0)[None], steps.n_time + 1, axis=0)
    arch = NetworkArchitecture.for_problem(problem, hidden=(3,))
    return problem, steps, lat, m, arch


class TestExactEvaluator:
    def test_monte_carlo_is_unbiased(self, oracle_setup):
        # the chain's expected cost from t = 0 is what both compute
        problem, steps, lat, m, arch = oracle_setup
        rng = substream(12, "exact-theta")
        thetas = np.stack([random_theta(arch, rng, scale=3.0)
                           for _ in range(3)])
        exact = np.array([improvement(problem, lat, steps, m, arch, theta)[0]
                          for theta in thetas])
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
            improvement(problem, lat, steps, bad, arch, np.zeros(arch.n_params))


class TestBatchedOracle:
    # the batched Monte-Carlo reference, with rows on shared uniforms, is the
    # per-chain loop, and a step on the exact objective follows its gradient
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
        # a step on the exact objective follows its exact gradient, and the
        # G it returns is that of the point it returns
        problem, steps, lat, m, arch = oracle_setup
        theta = random_theta(arch, substream(3, "oracle-kw"), scale=3.0)
        objective = partial(improvement, problem, lat, steps, m, arch)
        grad_fn = partial(gradient, problem, lat, steps, m, arch)

        g0, values = objective(theta)
        grad = grad_fn(theta, values)
        nxt, g1, grad1, info = kw_step(theta, g0, grad, 1e-2, 10.0,
                                       objective, grad_fn)
        np.testing.assert_array_equal(
            nxt, np.clip(theta + info["eps"] * grad, -10.0, 10.0))
        g_next, values_next = objective(nxt)
        assert g1 == g_next and g1 >= g0
        np.testing.assert_array_equal(grad1, grad_fn(nxt, values_next))


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture(scope="module", params=["lq.cfg", "mfg2d.cfg"],
                ids=lambda name: name[:-4])
def shipped_coarse(request):
    """A shipped config's problem, coarse grid and architecture, under the
    mean path of its initial law."""
    with open(os.path.join(CONFIG_DIR, request.param)) as fh:
        cfg = RunConfig.from_ini(fh.read())
    problem, steps, lat, _, _, _, arch = cfg.build()
    _, law = _initial_law(problem, lat, steps, cfg.seed)
    return problem, steps, lat, law @ lat.points, arch


def gradient_error(problem, steps, lat, m, arch, delta=1e-6):
    """Worst max-norm relative error of ``gradient`` against central
    differences of ``improvement``, over five random parameter vectors."""
    rng = substream(19, "gradient-oracle")
    worst = 0.0

    def objective(theta):
        return improvement(problem, lat, steps, m, arch, theta)[0]

    for _ in range(5):
        theta = random_theta(arch, rng, scale=1.0)
        fd = np.array([objective(theta + kick) - objective(theta - kick)
                       for kick in delta * np.eye(len(theta))]) \
            / (2.0 * delta)
        g = gradient(problem, lat, steps, m, arch, theta,
                     improvement(problem, lat, steps, m, arch, theta)[1])
        worst = max(worst, np.max(np.abs(g - fd)) / np.max(np.abs(fd)))
    return worst


class TestGradient:
    def test_matches_central_differences(self, shipped_coarse):
        assert gradient_error(*shipped_coarse) <= 1e-6

    def test_train_ascends_to_the_point_it_returns(self, shipped_coarse):
        # along a phase's rows G never falls, and the last row's G is the
        # objective of the returned theta
        problem, steps, lat, m, arch = shipped_coarse
        objective = partial(improvement, problem, lat, steps, m, arch)

        trace = []
        theta0 = random_theta(arch, substream(23, "train-ascent"), scale=1.0)
        out = train(theta0, 10.0, 10, objective,
                    partial(gradient, problem, lat, steps, m, arch),
                    trace=trace)
        g = [row["G"] for row in trace]
        assert len(g) > 1 and g[-1] > g[0]
        assert all(b >= a for a, b in zip(g, g[1:]))
        assert g[-1] == objective(out)[0]

    def test_matches_central_differences_over_time_blocks(
            self, shipped_coarse, monkeypatch):
        # a block budget of 40 steps splits the time loops into three
        # blocks, so the law under the gradient's one forward pass may round
        # apart from the block-wise policy that improvement sweeps
        problem, steps, lat, m, arch = shipped_coarse
        monkeypatch.setattr(mfgsolver.lattice, "BLOCK_EVALS",
                            40 * lat.n_nodes)
        assert len(time_blocks(steps.n_time, lat.n_nodes)) == 3
        assert gradient_error(problem, steps, lat, m, arch) <= 1e-6

    def test_one_forward_pass_per_gradient(self, shipped_coarse,
                                           monkeypatch):
        # the law is taken under the controls of the pass the vjp reads,
        # so the gradient never evaluates the policy a second time
        problem, steps, lat, m, arch = shipped_coarse
        theta = random_theta(arch, substream(29, "one-pass"), scale=1.0)
        values = improvement(problem, lat, steps, m, arch, theta)[1]
        want = gradient(problem, lat, steps, m, arch, theta, values)
        passes = []
        real = mfgsolver.sa._forward_cached

        def counted(*args):
            passes.append(args[2].shape)
            return real(*args)

        monkeypatch.setattr(mfgsolver.sa, "_forward_cached", counted)
        monkeypatch.setattr(mfgsolver.sa, "feedback", None)
        np.testing.assert_array_equal(
            gradient(problem, lat, steps, m, arch, theta, values), want)
        assert passes == [(steps.n_time * lat.n_nodes, arch.input_dim)]

    def test_uniform_visit_weights_fail(self, shipped_coarse, monkeypatch):
        # mutation: weighting every step by the uniform start law instead of
        # the law the chain visits must fail the oracle above
        def uniform(problem, lattice, steps, controls, mbar_path, w0):
            return np.broadcast_to(w0, (steps.n_time + 1, len(w0)))

        monkeypatch.setattr(mfgsolver.sa, "induced_measure", uniform)
        assert gradient_error(*shipped_coarse) > 1e-3


def test_sa_phase_sweeps_each_theta_once(tmp_path, monkeypatch):
    """One SA phase of a solve runs one backward recursion per parameter
    vector it evaluates: the gradient at an accepted point reads the value
    table of the trial that accepted it and sweeps nothing itself.  The
    recursions are counted inside ``train`` only, which leaves out the DP
    and the fine sweep."""
    counts = {"sweeps": 0, "thetas": 0, "in_sa": False}
    backward = mfgsolver.lattice._backward
    improvement_fn, train_fn = mfgsolver.runner.improvement, \
        mfgsolver.runner.train

    def counting_backward(*args, **kwargs):
        counts["sweeps"] += counts["in_sa"]
        return backward(*args, **kwargs)

    def counting_improvement(*args, **kwargs):
        counts["thetas"] += 1
        return improvement_fn(*args, **kwargs)

    def flagged_train(*args, **kwargs):
        counts["in_sa"] = True
        try:
            return train_fn(*args, **kwargs)
        finally:
            counts["in_sa"] = False

    monkeypatch.setattr(mfgsolver.lattice, "_backward", counting_backward)
    monkeypatch.setattr(mfgsolver.runner, "improvement", counting_improvement)
    monkeypatch.setattr(mfgsolver.runner, "train", flagged_train)
    run_algorithm1(RunConfig(
        model="lq", h1_coarse=0.5, h2_coarse=0.05, h1_fine=0.5, h2_fine=0.05,
        control_points=5, hidden=(4,), fit_max_steps=150, sa_max_steps=3,
        max_iters=1, seed=42, out_dir=str(tmp_path / "out")))
    assert counts["thetas"] >= 2  # the start and at least one trial
    assert counts["sweeps"] == counts["thetas"]
