import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from mfgsolver.errors import LengthMismatch
from mfgsolver.lattice import StepSizes, build_lattice, control_grid, \
    dp_backward_sweep
from mfgsolver.measures import (average_update, fixed_point_gap,
                                induced_measure, mean_path,
                                measure_path_to_csv, systematic_resample,
                                w2_stop_threshold, wasserstein2)
from mfgsolver.problems import LqParams, lq_problem


def uniform(n):
    return np.full(n, 1.0 / n)


# ---------------------------------------------------------------------------
# Weighted-cloud reference: each slice a (particles, weights) pair, mixed and
# resampled slice by slice
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


def reference_w2(a, b, n_atoms=256):
    (pa, wa), (pb, wb) = a, b
    if not (len(pa) == len(pb) and len(pa) <= n_atoms):
        pa = reference_resample(pa, wa, n_atoms)[0]
        pb = reference_resample(pb, wb, n_atoms)[0]
    if pa.shape[1] == 1:
        return float(np.sqrt(np.mean((np.sort(pa[:, 0])
                                      - np.sort(pb[:, 0])) ** 2)))
    cost = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def as_weighted(path):
    return [(sl, uniform(len(sl))) for sl in path]


class TestMeanPath:
    def test_mean(self):
        path = np.array([[[0.0], [1.0], [1.0], [1.0]],
                         [[2.0], [2.0], [4.0], [4.0]]])
        np.testing.assert_allclose(mean_path(path), [[0.75], [3.0]])

    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_per_slice_weighted_mean(self, d):
        path = np.random.default_rng(d).normal(size=(7, 2000, d))
        expected = np.stack([uniform(2000) @ sl for sl in path])
        assert np.array_equal(mean_path(path), expected)


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
        a = np.zeros((3, 4, 1))
        b = np.random.default_rng(0).normal(size=(3, 4, 1))
        cloud, w = average_update(a, b, 1)
        assert w @ cloud[0][:, 0] == pytest.approx(b[0, :, 0].mean())
        assert np.array_equal(
            np.take(cloud, systematic_resample(w, 4), axis=1), b)

    @given(k=st.integers(2, 50))
    @settings(max_examples=20, deadline=None)
    def test_mean_is_convex_combination(self, k):
        a = np.zeros((2, 1, 1))
        b = np.ones((2, 1, 1))
        cloud, w = average_update(a, b, k)
        assert w @ cloud[0][:, 0] == pytest.approx(1.0 / k)
        assert w.sum() == pytest.approx(1.0)

    def test_length_mismatch(self):
        a = np.zeros((2, 1, 1))
        b = np.zeros((3, 1, 1))
        with pytest.raises(LengthMismatch):
            average_update(a, b, 2)

    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_weighted_cloud_reference(self, d):
        # the runner's k = 1..6 sequence: mix, resample to n atoms, repeat
        rng = np.random.default_rng(10 + d)
        n = 300
        m_bar = np.round(rng.normal(size=(4, n, d)), 1)
        ref = as_weighted(m_bar)
        for k in range(1, 7):
            m_new = np.round(rng.normal(size=(4, n, d)), 1)
            cloud, w = average_update(m_bar, m_new, k)
            m_bar = np.take(cloud, systematic_resample(w, n), axis=1)
            ref = [reference_resample(p, wt, n)
                   for p, wt in reference_average(ref, as_weighted(m_new), k)]
            assert np.array_equal(m_bar, np.stack([p for p, _ in ref])), k
            assert np.array_equal(mean_path(m_bar),
                                  np.stack([wt @ p for p, wt in ref])), k


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

    def test_gap_over_path(self):
        a = np.zeros((3, 1, 1))
        b = np.array([0.0, 2.0, 1.0]).reshape(3, 1, 1)
        assert fixed_point_gap(a, b) == pytest.approx(4.0)

    @pytest.mark.parametrize("d,n_a,n_b", [(1, 300, 300), (1, 40, 40),
                                           (1, 40, 30), (2, 300, 300),
                                           (2, 40, 40)])
    def test_gap_equals_per_slice_reference(self, d, n_a, n_b):
        rng = np.random.default_rng(d * 1000 + n_a + n_b)
        a = rng.normal(size=(3, n_a, d))
        b = rng.normal(size=(3, n_b, d))
        ref = max(reference_w2(x, y) ** 2
                  for x, y in zip(as_weighted(a), as_weighted(b)))
        assert fixed_point_gap(a, b) == ref


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
        a = induced_measure(problem, lat, steps, field, m0, 200, seed=5)
        b = induced_measure(problem, lat, steps, field, m0, 200, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_supported_on_lattice(self, setup):
        problem, steps, lat, m0, field = setup
        path = induced_measure(problem, lat, steps, field, m0, 100, seed=1)
        assert path.shape == (steps.n_time + 1, 100, 1)
        for sl in path:
            idx = lat.indices_of(sl)
            np.testing.assert_allclose(lat.points[idx], sl, atol=1e-12)

    def test_mean_attracted_to_population_mean(self, setup):
        # optimal LQ control pulls states toward the frozen mean 0.5
        problem, steps, lat, m0, field = setup
        path = induced_measure(problem, lat, steps, field, m0, 2000, seed=2)
        assert abs(mean_path(path)[-1, 0] - 0.5) < 0.1


def reference_measure_path_csv(path, steps, file_path):
    n_particles, d = path.shape[1:]
    weight = f"{1.0 / n_particles:.12g}"
    header = "t,particle_id," + ",".join(f"x{i+1}" for i in range(d)) + ",weight"
    with open(file_path, "w") as fh:
        fh.write(header + "\n")
        for n, sl in enumerate(path):
            t = n * steps.h2
            for pid in range(n_particles):
                coords = ",".join(f"{c:.12g}" for c in sl[pid])
                fh.write(f"{t:.12g},{pid},{coords},{weight}\n")


class TestCsv:
    @pytest.mark.parametrize("n,d", [(7, 1), (3, 2), (2000, 1)])
    def test_matches_reference(self, setup, tmp_path, n, d):
        steps = setup[1]
        rng = np.random.default_rng(n)
        path = rng.standard_normal((steps.n_time + 1, n, d)) * 1e3
        path[0, 0] = -0.0
        path[0, -1] = 0.123456789012345
        measure_path_to_csv(path, steps, tmp_path / "a.csv")
        reference_measure_path_csv(path, steps, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n,weight", [(3, "0.333333333333"),
                                          (7, "0.142857142857")])
    def test_long_weights_and_times_match_reference(self, tmp_path, n,
                                                    weight):
        # 1/n and n * h2 = n / 7 both need 12 significant digits
        steps = StepSizes(h1=0.2, h2=1 / 7, n_time=7)
        path = np.random.default_rng(n).uniform(-3, 3, (8, n, 2))
        measure_path_to_csv(path, steps, tmp_path / "a.csv")
        reference_measure_path_csv(path, steps, tmp_path / "b.csv")
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        lines = text.splitlines()
        assert lines[1 + 5 * n].startswith("0.714285714286,0,")
        assert all(line.endswith("," + weight) for line in lines[1:])
