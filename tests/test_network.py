import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgsolver.errors import LengthMismatch
from mfgsolver.lattice import StepSizes, build_lattice
from mfgsolver.network import (NetworkArchitecture, fit_loss, fit_to_grid,
                               forward, grad_fit_loss_raw, load_checkpoint,
                               random_theta, save_checkpoint, zero_theta)
from mfgsolver.problems import LqParams, lq_problem


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

    def test_zero_at_perfect_fit(self, arch):
        rng = np.random.default_rng(1)
        theta = random_theta(arch, rng)
        inputs = rng.uniform(-1, 1, (4, 3))
        from mfgsolver.network import _forward_cached
        targets, _, _, _ = _forward_cached(arch, theta, inputs)
        loss, g = grad_fit_loss_raw(arch, theta, inputs, targets)
        assert loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


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
        from mfgsolver.network import _fit_dataset
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
        from mfgsolver.network import _fit_dataset
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
