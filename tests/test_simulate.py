import numpy as np
import pytest

from mfgsolver.lattice import StepSizes, build_lattice
from mfgsolver.problems import LqParams, lq_problem, mfg2d_problem
from mfgsolver.simulate import paths_to_csv, simulate_sde
from references import estimate_cost, ref_simulate_chain


@pytest.fixture(scope="module")
def lq():
    problem = lq_problem(LqParams())
    steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
    m = np.full((steps.n_time + 1, 1), 0.5)
    return problem, steps, m


def zero_policy(t, x):
    return np.zeros((x.shape[0], 1))


class TestSimulateSde:
    def test_shapes(self, lq):
        problem, steps, m = lq
        b = simulate_sde(problem, zero_policy, m, 5, steps, seed=0)
        assert b.states.shape == (5, 101, 1)
        assert b.controls.shape == (5, 100, 1)
        assert b.n_paths == 5

    def test_deterministic(self, lq):
        problem, steps, m = lq
        a = simulate_sde(problem, zero_policy, m, 4, steps, seed=9)
        b = simulate_sde(problem, zero_policy, m, 4, steps, seed=9)
        np.testing.assert_array_equal(a.states, b.states)

    def test_common_noise_recorded(self, lq):
        problem, steps, m = lq
        b = simulate_sde(problem, zero_policy, m, 3, steps, seed=1,
                         share_common_noise=True)
        assert b.common_noise is not None
        assert b.common_noise[0] == 0.0
        assert b.common_noise.shape == (101,)

    def test_x0_override(self, lq):
        problem, steps, m = lq
        b = simulate_sde(problem, zero_policy, m, 3, steps, seed=1,
                         x0=np.array([0.25]))
        np.testing.assert_allclose(b.states[:, 0, 0], 0.25)

    def test_bounded_domain_clamped(self):
        problem = mfg2d_problem()
        steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
        m = np.full((steps.n_time + 1, 2), 0.5)

        def pol(t, x):
            return np.zeros((x.shape[0], 2))

        b = simulate_sde(problem, pol, m, 10, steps, seed=2)
        assert np.all(b.states >= 0.0) and np.all(b.states <= 1.0)

    def test_drift_dominates_for_tiny_noise(self):
        # sigma -> 0 LQ with zero control decays toward the mean at rate a
        params = LqParams(sigma=1e-8)
        problem = lq_problem(params)
        steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
        m = np.full((steps.n_time + 1, 1), 0.5)
        b = simulate_sde(problem, zero_policy, m, 1, steps, seed=0,
                         x0=np.array([2.0]))
        expected = 0.5 + 1.5 * np.exp(-params.a)
        assert b.states[0, -1, 0] == pytest.approx(expected, abs=1e-3)


class TestSimulateChain:
    """The chain rollout of the Monte-Carlo tests."""

    def test_states_stay_on_lattice(self, lq):
        problem, steps, m = lq
        lat = build_lattice(problem, steps)
        field = np.zeros((steps.n_time, lat.n_nodes, 1))
        b = ref_simulate_chain(problem, lat, steps, field, m, 20, seed=3,
                               x0=np.array([0.4]))
        idx = lat.indices_of(b.states.reshape(-1, 1))
        np.testing.assert_allclose(lat.points[idx],
                                   b.states.reshape(-1, 1), atol=1e-12)

    def test_applied_controls_recorded(self, lq):
        problem, steps, m = lq
        lat = build_lattice(problem, steps)
        field = np.full((steps.n_time, lat.n_nodes, 1), 0.3)
        b = ref_simulate_chain(problem, lat, steps, field, m, 5, seed=3)
        np.testing.assert_allclose(b.controls, 0.3)


class TestEstimateCost:
    def test_zero_cost(self, lq):
        problem, steps, m = lq
        base = lq_problem(LqParams())
        base.running_cost = lambda t, x, mm, a: np.zeros(np.shape(x)[:-1])
        base.terminal_cost = lambda x, mm: np.zeros(np.shape(x)[:-1])
        b = simulate_sde(base, zero_policy, m, 50, steps, seed=4)
        mean, se = estimate_cost(base, b, m, steps)
        assert mean == 0.0 and se == 0.0

    def test_constant_running_cost(self, lq):
        problem, steps, m = lq
        base = lq_problem(LqParams())
        base.running_cost = lambda t, x, mm, a: np.ones(np.shape(x)[:-1])
        base.terminal_cost = lambda x, mm: np.zeros(np.shape(x)[:-1])
        b = simulate_sde(base, zero_policy, m, 10, steps, seed=4)
        mean, se = estimate_cost(base, b, m, steps)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)


def reference_paths_csv(bundle, file_path):
    d = bundle.states.shape[2]
    k = bundle.controls.shape[2]
    header = ("path_id,t," + ",".join(f"x{i+1}" for i in range(d)) + ","
              + ",".join(f"a{i+1}" for i in range(k)))
    if bundle.common_noise is not None:
        header += ",w0"
    with open(file_path, "w") as fh:
        fh.write(header + "\n")
        for pid in range(bundle.n_paths):
            for n, t in enumerate(bundle.times):
                coords = ",".join(f"{c:.12g}" for c in bundle.states[pid, n])
                cn = min(n, bundle.controls.shape[1] - 1)
                ctrl = ",".join(f"{c:.12g}" for c in bundle.controls[pid, cn])
                line = f"{pid},{t:.12g},{coords},{ctrl}"
                if bundle.common_noise is not None:
                    line += f",{bundle.common_noise[n]:.12g}"
                fh.write(line + "\n")


class TestCsv:
    @pytest.mark.parametrize("common", [True, False])
    def test_matches_reference(self, lq, tmp_path, common):
        problem, steps, m = lq
        b = simulate_sde(problem, lambda t, x: np.sin(7.0 * x) - 1e-300, m,
                         3, steps, seed=4, share_common_noise=common)
        b.states[0, 0, 0] = -0.0
        b.controls[1, -1, 0] = 0.123456789012345
        paths_to_csv(b, tmp_path / "a.csv")
        reference_paths_csv(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_2d_matches_reference(self, tmp_path):
        problem = mfg2d_problem()
        steps = StepSizes.for_horizon(1.0, 0.2, 0.05)
        m = np.full((steps.n_time + 1, 2), 0.5)
        b = simulate_sde(problem, lambda t, x: x[:, ::-1] * 1.5, m, 2, steps,
                         seed=3)
        paths_to_csv(b, tmp_path / "a.csv")
        reference_paths_csv(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_twelve_digit_times_match_reference(self, lq, tmp_path):
        problem = lq[0]
        steps = StepSizes(h1=0.2, h2=1 / 7, n_time=7)
        m = np.full((steps.n_time + 1, 1), 0.5)
        b = simulate_sde(problem, lambda t, x: np.cos(x), m, 3, steps,
                         seed=5, share_common_noise=True)
        paths_to_csv(b, tmp_path / "a.csv")
        reference_paths_csv(b, tmp_path / "b.csv")
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        assert text.splitlines()[11].startswith("1,0.285714285714,")

    def test_header_and_rows(self, lq, tmp_path):
        problem, steps, m = lq
        b = simulate_sde(problem, zero_policy, m, 2, steps, seed=0,
                         share_common_noise=True)
        out = tmp_path / "paths.csv"
        paths_to_csv(b, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,t,x1,a1,w0"
        assert len(lines) == 1 + 2 * 101
