import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfgsolver.network as network
from mfgsolver.errors import LengthMismatch
from mfgsolver.lattice import StepSizes, build_lattice, dp_backward_sweep
from mfgsolver.network import (NetworkArchitecture, _fit_dataset,
                               _forward_cached, backtracking_step, fit_loss,
                               fit_to_grid, forward, grad_fit_loss_raw,
                               load_checkpoint, random_theta, save_checkpoint,
                               vjp, zero_theta)
from mfgsolver.problems import LqParams, lq_problem
from mfgsolver.runner import RunConfig, _initial_law
from mfgsolver.seeding import substream

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture(scope="module")
def arch():
    return NetworkArchitecture(state_dim=2, control_dim=2, hidden=(6, 5),
                               horizon=1.0, x_lower=(0.0, 0.0),
                               x_upper=(1.0, 1.0), u_lower=(0.0, 0.0),
                               u_upper=(1.5, 1.5))


class TestArchitecture:
    def test_param_count(self, arch):
        # layers [3,6,5,2]: 3*6+6 + 6*5+5 + 5*2+2
        assert arch.n_params == 24 + 35 + 12

    def test_theta_length_checked(self, arch):
        with pytest.raises(LengthMismatch):
            forward(arch, np.zeros(3), 0.0, np.zeros((1, 2)))

    def test_bad_hidden(self):
        with pytest.raises(ValueError):
            NetworkArchitecture(1, 1, (0,), 1.0, (0.,), (1.,), (0.,), (1.,))


class TestForward:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_output_always_admissible(self, arch, seed):
        rng = np.random.default_rng(seed)
        theta = rng.normal(scale=3.0, size=arch.n_params)
        x = rng.uniform(-2, 3, size=(7, 2))
        out = forward(arch, theta, rng.uniform(0, 1), x)
        assert np.all(out >= 0.0) and np.all(out <= 1.5)

    def test_zero_theta_gives_midpoint(self, arch):
        out = forward(arch, zero_theta(arch), 0.3, np.zeros((4, 2)))
        np.testing.assert_allclose(out, 0.75)

    def test_batch_shapes(self, arch):
        theta = zero_theta(arch)
        out = forward(arch, theta, 0.1, np.zeros((3, 4, 2)))
        assert out.shape == (3, 4, 2)


def masked_sigmoid(z):
    """The two-branch form: exp of -z where z >= 0, of z elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_equals_masked_form_without_overflow(self):
        from mfgsolver.network import _sigmoid

        edges = np.array([0.0, 709.8, 745.2, 800.0, np.inf])
        edges = np.concatenate([edges, -edges, [np.nan]])
        rng = np.random.default_rng(3)
        for z in (edges[:, None], rng.normal(scale=30.0, size=(5, 40)),
                  rng.normal(size=(2, 3, 4))):
            with np.errstate(over="raise"):
                got = _sigmoid(z)
            assert np.array_equal(got, masked_sigmoid(z), equal_nan=True)


class TestGradient:
    def test_matches_finite_differences(self, arch):
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = random_theta(arch, rng)
            inputs = rng.uniform(-1, 1, (6, 3))
            targets = rng.uniform(0, 1.5, (6, 2))
            _, g = grad_fit_loss_raw(arch, theta, inputs, targets)
            h = 1e-6
            for j in rng.choice(arch.n_params, 10, replace=False):
                e = np.zeros(arch.n_params)
                e[j] = h
                fd = (fit_loss(arch, theta + e, inputs, targets)
                      - fit_loss(arch, theta - e, inputs, targets)) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-5 * max(1.0, abs(fd)))

    def test_vjp_is_the_fit_gradient(self, arch):
        """On the cached forward pass, ``vjp`` of 2 (out - targets) is the
        gradient of ``grad_fit_loss_raw`` exactly and a central difference
        of ``fit_loss`` to 1e-6 relative."""
        rng = np.random.default_rng(7)
        theta = random_theta(arch, rng, scale=1.5)
        inputs = rng.uniform(-1, 1, (20, 3))
        targets = rng.uniform(0, 1.5, (20, 2))
        fw = _forward_cached(arch, theta, inputs)
        g = vjp(arch, fw, 2.0 * (fw[0] - targets))
        assert np.array_equal(g, grad_fit_loss_raw(arch, theta, inputs,
                                                   targets)[1])
        h = 1e-5
        fd = np.empty(arch.n_params)
        for j in range(arch.n_params):
            e = np.zeros(arch.n_params)
            e[j] = h
            fd[j] = (fit_loss(arch, theta + e, inputs, targets)
                     - fit_loss(arch, theta - e, inputs, targets)) / (2 * h)
        assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(g))

    def test_zero_at_perfect_fit(self, arch):
        rng = np.random.default_rng(1)
        theta = random_theta(arch, rng)
        inputs = rng.uniform(-1, 1, (4, 3))
        targets, _, _, _ = _forward_cached(arch, theta, inputs)
        loss, g = grad_fit_loss_raw(arch, theta, inputs, targets)
        assert loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def reference_fit(arch, theta0, control_field, lattice, steps, m_bound,
                  trigger, max_steps):
    """The projected fit loop written out: a ``fit_loss`` call per
    line-search trial and a fresh ``grad_fit_loss_raw`` at each accepted
    theta.  Returns (theta, loss, trials, whether the box cut an accepted
    step)."""
    inputs, targets = _fit_dataset(arch, control_field, lattice, steps)
    theta = np.clip(theta0, -m_bound, m_bound)
    loss, g = grad_fit_loss_raw(arch, theta, inputs, targets)
    lr, trials, cut = 1e-2, 0, False
    for _ in range(max_steps):
        accepted = False
        for _ in range(40):
            free = theta - lr * g
            cand = np.clip(free, -m_bound, m_bound)
            if np.array_equal(cand, theta):
                break
            cand_loss = fit_loss(arch, cand, inputs, targets)
            trials += 1
            if cand_loss <= loss + 1e-4 * float(g @ (cand - theta)):
                accepted = True
                cut |= not np.array_equal(cand, free)
                break
            lr *= 0.5
        if not accepted:
            break
        decrement = loss - cand_loss
        theta = cand
        loss, g = grad_fit_loss_raw(arch, theta, inputs, targets)
        lr = min(lr * 1.5, 1.0)
        if decrement < trigger:
            break
    return theta, loss, trials, cut


@pytest.fixture(scope="module", params=["lq.cfg", "mfg2d.cfg"],
                ids=lambda name: name[:-4])
def shipped_fit(request):
    """The first fit of a shipped run: the arguments ``fit_to_grid`` gets at
    k = 1 (the DP field under the initial law, the run's theta0 and fit
    settings), and the reference loop's result on them."""
    with open(os.path.join(CONFIG_DIR, request.param)) as fh:
        cfg = RunConfig.from_ini(fh.read())
    problem, steps, lat, _, _, controls, arch = cfg.build()
    _, law = _initial_law(problem, lat, steps, cfg.seed)
    _, field = dp_backward_sweep(problem, lat, steps, law @ lat.points,
                                 controls)
    args = (arch, random_theta(arch, substream(cfg.seed, "theta0")), field,
            lat, steps, cfg.m_bound, cfg.fit_trigger, cfg.fit_max_steps)
    return args, reference_fit(*args)


class TestShippedFit:
    """The fit reuses each accepted trial's forward pass for the gradient;
    on the first fit of both shipped runs it must return the reference
    loop's theta and loss bit for bit, with fewer forward passes."""

    def test_equals_reference(self, shipped_fit):
        args, (ref_theta, ref_loss, trials, _) = shipped_fit
        theta, loss = fit_to_grid(*args)
        assert trials >= 2
        assert np.array_equal(theta, ref_theta)
        assert loss == ref_loss

    def test_one_forward_pass_per_trial(self, shipped_fit, monkeypatch):
        """(trials + 1) passes; the lq fit's steps stay inside the box, and
        the box cuts an accepted step of the mfg2d fit."""
        args, (_, _, trials, cut) = shipped_fit
        calls = []

        def counting(*a):
            calls.append(1)
            return _forward_cached(*a)

        monkeypatch.setattr(network, "_forward_cached", counting)
        fit_to_grid(*args)
        assert cut == (args[0].state_dim == 2)
        assert len(calls) == trials + 1

    def test_every_iterate_stays_in_the_box(self, shipped_fit, monkeypatch):
        """The unconstrained fit of the mfg2d field leaves the box; the fit
        itself accepts only points inside it."""
        args, _ = shipped_fit
        arch, m_bound = args[0], args[5]
        free, _ = fit_to_grid(*args[:5], np.inf, *args[6:])
        assert (np.max(np.abs(free)) > m_bound) == (arch.state_dim == 2)
        accepted = []

        def recording(*a):
            step = backtracking_step(*a)
            if step is not None:
                accepted.append(step[1])
            return step

        monkeypatch.setattr(network, "backtracking_step", recording)
        theta, _ = fit_to_grid(*args)
        assert accepted and np.array_equal(accepted[-1], theta)
        assert max(np.max(np.abs(th)) for th in accepted) <= m_bound


class TestFit:
    def test_fits_constant_field(self):
        problem = lq_problem(LqParams())
        steps = StepSizes.for_horizon(1.0, 0.2, 0.1)
        lat = build_lattice(problem, steps)
        arch = NetworkArchitecture.for_problem(problem, hidden=(6,))
        field = np.full((steps.n_time, lat.n_nodes, 1), 0.25)
        theta0 = random_theta(arch, np.random.default_rng(2))
        theta, loss = fit_to_grid(arch, theta0, field, lat, steps, 10.0,
                                  trigger=1e-8, max_steps=3000)
        out = forward(arch, theta, 0.0, lat.points)
        assert np.max(np.abs(out - 0.25)) < 0.02
        assert np.all(np.abs(theta) <= 10.0)

    def test_loss_never_increases(self):
        problem = lq_problem(LqParams())
        steps = StepSizes.for_horizon(1.0, 0.2, 0.1)
        lat = build_lattice(problem, steps)
        arch = NetworkArchitecture.for_problem(problem, hidden=(4,))
        rng = np.random.default_rng(3)
        field = rng.uniform(-1, 1, (steps.n_time, lat.n_nodes, 1))
        theta0 = random_theta(arch, rng)
        inputs, targets = _fit_dataset(arch, field, lat, steps)
        start = fit_loss(arch, theta0, inputs, targets)
        theta, end = fit_to_grid(arch, theta0, field, lat, steps, 10.0,
                                 trigger=1e-6, max_steps=200)
        assert end <= start

    def test_loss_is_that_of_the_clipped_theta(self):
        # the unclipped fit leaves the small box, so the clip moves theta
        problem = lq_problem(LqParams())
        steps = StepSizes.for_horizon(1.0, 0.2, 0.1)
        lat = build_lattice(problem, steps)
        arch = NetworkArchitecture.for_problem(problem, hidden=(4,))
        rng = np.random.default_rng(5)
        field = rng.uniform(-1, 1, (steps.n_time, lat.n_nodes, 1))
        theta0 = random_theta(arch, rng, scale=2.0)
        inputs, targets = _fit_dataset(arch, field, lat, steps)
        theta, loss = fit_to_grid(arch, theta0, field, lat, steps, 0.1,
                                  trigger=1e-6, max_steps=200)
        assert np.all(np.abs(theta) <= 0.1)
        assert np.any(np.abs(theta) == 0.1)
        assert loss == fit_loss(arch, theta, inputs, targets)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, arch, tmp_path):
        theta = random_theta(arch, np.random.default_rng(4))
        path = tmp_path / "theta.csv"
        save_checkpoint(path, arch, theta)
        arch2, theta2 = load_checkpoint(path)
        assert arch2 == arch
        np.testing.assert_array_equal(theta2, theta)
