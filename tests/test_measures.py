import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from mfgsolver.errors import LengthMismatch
from mfgsolver.lattice import Lattice, StepSizes, build_lattice, \
    control_grid, dp_backward_sweep
from mfgsolver.measures import (average_update, fixed_point_gap,
                                induced_measure, measure_path_to_csv,
                                systematic_resample, w2_stop_threshold,
                                wasserstein2)
from mfgsolver.problems import LqParams, lq_problem


def uniform(n):
    return np.full(n, 1.0 / n)


def line_lattice(n):
    """A 1-D lattice of n nodes with spacing 0.2."""
    return Lattice(np.zeros(1), np.full(1, 0.2 * (n - 1)), 0.2)


def snapped_law(lattice, rng, n_draws):
    """Node weights of n_draws uniform draws over the box, snapped."""
    draws = rng.uniform(lattice.lower, lattice.upper,
                        (n_draws, lattice.dims))
    return np.bincount(lattice.indices_of(draws),
                       minlength=lattice.n_nodes) / n_draws


# ---------------------------------------------------------------------------
# Weighted-cloud reference: each slice a (particles, weights) pair, mixed by
# concatenation and resampled slice by slice
# ---------------------------------------------------------------------------

def reference_resample(particles, weights, n):
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, (0.5 + np.arange(n)) / n, side="left")
    return particles[idx], uniform(n)


def reference_average(old_path, new_path, k):
    if k == 1:
        return list(new_path)
    out = []
    for (p_old, w_old), (p_new, w_new) in zip(old_path, new_path):
        out.append((np.vstack([p_old, p_new]),
                    np.concatenate([w_old * ((k - 1) / k), w_new * (1.0 / k)])))
    return out


def reference_w2(pa, pb):
    if pa.shape[1] == 1:
        return float(np.sqrt(np.mean((np.sort(pa[:, 0])
                                      - np.sort(pb[:, 0])) ** 2)))
    cost = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


class TestResample:
    def test_preserves_uniform_cloud(self):
        pts = np.arange(8.0)[:, None]
        r = pts[systematic_resample(uniform(8), 8)]
        np.testing.assert_array_equal(np.sort(r, axis=0), pts)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(10, 2))
        w = rng.dirichlet(np.ones(10))
        a = systematic_resample(w, 6)
        b = systematic_resample(w, 6)
        np.testing.assert_array_equal(pts[a], pts[b])

    def test_point_mass_resamples_to_itself(self):
        pts = np.array([[1.0, 2.0]])
        r = pts[systematic_resample(np.array([1.0]), 5)]
        assert r.shape == (5, 2)
        assert np.all(r == np.array([1.0, 2.0]))


class TestAverageUpdate:
    def test_k1_returns_new(self):
        a = np.zeros((3, 4))
        b = np.random.default_rng(0).dirichlet(np.ones(4), size=3)
        assert np.array_equal(average_update(a, b, 1), b)

    @given(k=st.integers(2, 50))
    @settings(max_examples=20, deadline=None)
    def test_mean_is_convex_combination(self, k):
        # all mass at node 0 (x = 0), then all at node 1 (x = 1)
        a = np.array([[1.0, 0.0]] * 2)
        b = np.array([[0.0, 1.0]] * 2)
        w = average_update(a, b, k)
        assert w[0] @ np.array([0.0, 1.0]) == pytest.approx(1.0 / k)
        assert w[0].sum() == pytest.approx(1.0)

    def test_length_mismatch(self):
        a = np.zeros((2, 1))
        b = np.zeros((3, 1))
        with pytest.raises(LengthMismatch):
            average_update(a, b, 2)

    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_weighted_cloud_reference(self, d):
        """The runner's k = 1..6 sequence of mixed node weights equals the
        concatenated weighted clouds of the same laws, their weights summed
        per node; the two sum in another order, so they match to rounding."""
        rng = np.random.default_rng(10 + d)
        lat = Lattice(np.zeros(d), np.ones(d), 0.25)
        w_bar, ref = None, None
        for k in range(1, 7):
            w_new = rng.dirichlet(np.ones(lat.n_nodes), size=4)
            w_bar = w_new if k == 1 else average_update(w_bar, w_new, k)
            ref = reference_average(ref, [(lat.points, w) for w in w_new],
                                    k)
            collapsed = np.stack([np.bincount(lat.indices_of(p), wt,
                                              lat.n_nodes) for p, wt in ref])
            np.testing.assert_allclose(w_bar, collapsed, rtol=1e-13,
                                       atol=1e-16)
            np.testing.assert_allclose(
                w_bar @ lat.points,
                np.stack([wt @ p for p, wt in ref]),
                rtol=1e-13, atol=1e-16)


def brute_force_w2(a, b):
    best = np.inf
    for perm in itertools.permutations(range(len(a))):
        cost = np.mean(np.sum((a - b[list(perm)]) ** 2, axis=1))
        best = min(best, cost)
    return float(np.sqrt(best))


class TestWasserstein:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(n, d))
            b = rng.normal(size=(n, d))
            w = wasserstein2(a, b)
            assert w == pytest.approx(brute_force_w2(a, b), abs=1e-12)

    def test_identity(self):
        m = np.random.default_rng(1).normal(size=(5, 2))
        assert wasserstein2(m, m) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_metric_axioms(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        clouds = [rng.normal(size=(4, 2)) for _ in range(3)]
        dab = wasserstein2(clouds[0], clouds[1])
        dba = wasserstein2(clouds[1], clouds[0])
        dbc = wasserstein2(clouds[1], clouds[2])
        dac = wasserstein2(clouds[0], clouds[2])
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dac <= dab + dbc + 1e-9
        assert dab >= 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [40, 256])
    def test_cost_matrix_equals_summed_form(self, monkeypatch, d, n):
        import mfgsolver.measures as measures

        seen = []

        def recording_assignment(cost):
            seen.append(cost.copy())
            return linear_sum_assignment(cost)

        monkeypatch.setattr(measures, "linear_sum_assignment",
                            recording_assignment)
        rng = np.random.default_rng(10 * d + n)
        a = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 7.0], size=d)
        b = np.round(rng.uniform(-1, 2, size=(n, d)), 1)
        wasserstein2(a, b)
        assert np.array_equal(
            seen[0], np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))

    def test_translation_shift(self):
        pts = np.random.default_rng(2).normal(size=(6, 1))
        assert wasserstein2(pts, pts + 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_threshold(self):
        assert w2_stop_threshold(0.5, 0.2) == pytest.approx(0.08)
        with pytest.raises(ValueError):
            w2_stop_threshold(1.0, 0.2)

    def test_unequal_sizes_raise(self):
        rng = np.random.default_rng(4)
        with pytest.raises(LengthMismatch):
            wasserstein2(rng.normal(size=(40, 1)), rng.normal(size=(30, 1)))
        with pytest.raises(LengthMismatch):
            wasserstein2(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))

    def test_gap_over_path(self):
        # all mass at node 0 against all mass at nodes 0, 2 and 1
        points = np.array([[0.0], [1.0], [2.0]])
        a = np.array([[1.0, 0.0, 0.0]] * 3)
        b = np.eye(3)[[0, 2, 1]]
        assert fixed_point_gap(a, b, points) == pytest.approx(4.0)

    @pytest.mark.parametrize("d,n_a,n_b", [(1, 300, 300), (1, 40, 40),
                                           (1, 40, 30), (2, 300, 300),
                                           (2, 40, 40)])
    def test_gap_equals_per_slice_reference(self, d, n_a, n_b):
        """Laws of n_a and n_b snapped draws, each row combed into 256 equal
        atoms: the gap is the largest squared W2 of the reference."""
        rng = np.random.default_rng(d * 1000 + n_a + n_b)
        lat = Lattice(np.zeros(d), np.ones(d), 0.2)
        a = np.stack([snapped_law(lat, rng, n_a) for _ in range(3)])
        b = np.stack([snapped_law(lat, rng, n_b) for _ in range(3)])
        ref = max(reference_w2(reference_resample(lat.points, x, 256)[0],
                               reference_resample(lat.points, y, 256)[0]) ** 2
                  for x, y in zip(a, b))
        assert fixed_point_gap(a, b, lat.points) == ref


@pytest.fixture(scope="module")
def setup():
    problem = lq_problem(LqParams())
    steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
    lat = build_lattice(problem, steps)
    m0 = np.full((steps.n_time + 1, 1), 0.5)
    _, field = dp_backward_sweep(problem, lat, steps, m0,
                                 control_grid(problem, 9))
    return problem, steps, lat, m0, field


class TestInducedMeasure:
    def test_deterministic(self, setup):
        problem, steps, lat, m0, field = setup
        w0 = snapped_law(lat, np.random.default_rng(5), 200)
        a = induced_measure(problem, lat, steps, field, m0, w0)
        b = induced_measure(problem, lat, steps, field, m0, w0)
        np.testing.assert_array_equal(a, b)

    def test_supported_on_lattice(self, setup):
        # a law over the lattice nodes at every time: nonnegative, mass 1
        problem, steps, lat, m0, field = setup
        w0 = snapped_law(lat, np.random.default_rng(1), 100)
        law = induced_measure(problem, lat, steps, field, m0, w0)
        assert law.shape == (steps.n_time + 1, lat.n_nodes)
        assert np.array_equal(law[0], w0)
        assert law.min() >= 0.0
        np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_mean_attracted_to_population_mean(self, setup):
        # optimal LQ control pulls states toward the frozen mean 0.5
        problem, steps, lat, m0, field = setup
        draws = problem.initial_sampler(np.random.default_rng(2), 2000)
        w0 = np.bincount(lat.indices_of(draws), minlength=lat.n_nodes) / 2000
        law = induced_measure(problem, lat, steps, field, m0, w0)
        assert abs((law @ lat.points)[-1, 0] - 0.5) < 0.1


def reference_measure_path_csv(lattice, steps, law, file_path):
    header = "t," + ",".join(f"x{i+1}" for i in range(lattice.dims)) \
        + ",weight"
    with open(file_path, "w") as fh:
        fh.write(header + "\n")
        for n, row in enumerate(law):
            t = n * steps.h2
            for point, weight in zip(lattice.points, row):
                coords = ",".join(f"{c:.12g}" for c in point)
                fh.write(f"{t:.12g},{coords},{weight:.12g}\n")


class TestCsv:
    @pytest.mark.parametrize("n,d", [(7, 1), (3, 2), (2000, 1)])
    def test_matches_reference(self, setup, tmp_path, n, d):
        # n nodes per axis at spacing 0.2, most of which print inexactly
        steps = setup[1]
        lat = Lattice(np.full(d, -1.0), np.full(d, 0.2 * (n - 1) - 1.0), 0.2)
        law = np.random.default_rng(n).dirichlet(np.ones(lat.n_nodes),
                                                 size=steps.n_time + 1)
        law[0, 0] = 0.123456789012345
        law[0, -1] = 1e-17
        measure_path_to_csv(tmp_path / "a.csv", lat, steps, law)
        reference_measure_path_csv(lat, steps, law, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n,weight", [(3, "0.333333333333"),
                                          (7, "0.142857142857")])
    def test_long_weights_and_times_match_reference(self, tmp_path, n,
                                                    weight):
        # 1/n and n * h2 = n / 7 both need 12 significant digits
        steps = StepSizes(h1=0.2, h2=1 / 7, n_time=7)
        lat = line_lattice(n)
        law = np.full((8, n), 1.0 / n)
        measure_path_to_csv(tmp_path / "a.csv", lat, steps, law)
        reference_measure_path_csv(lat, steps, law, tmp_path / "b.csv")
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "t,x1,weight"
        assert lines[1 + 5 * n].startswith("0.714285714286,0,")
        assert all(line.endswith("," + weight) for line in lines[1:])
