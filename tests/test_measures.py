import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from mfgsolver.errors import DimensionMismatch, LengthMismatch
from mfgsolver.lattice import Lattice, StepSizes, build_lattice, \
    control_grid, dp_backward_sweep
from mfgsolver.measures import (average_update, fixed_point_gap,
                                induced_measure, is_law, measure_path_to_csv,
                                systematic_resample, w2_stop_threshold)
from mfgsolver.problems import LqParams, lq_problem
from references import reference_w2


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
# concatenation
# ---------------------------------------------------------------------------

def reference_average(old_path, new_path, k):
    if k == 1:
        return list(new_path)
    out = []
    for (p_old, w_old), (p_new, w_new) in zip(old_path, new_path):
        out.append((np.vstack([p_old, p_new]),
                    np.concatenate([w_old * ((k - 1) / k), w_new * (1.0 / k)])))
    return out


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


class TestWasserstein:
    def test_threshold(self):
        assert w2_stop_threshold(0.5, 0.2) == pytest.approx(0.08)
        with pytest.raises(ValueError):
            w2_stop_threshold(1.0, 0.2)

    def test_gap_over_path(self):
        # all mass at node 0 against all mass at nodes 0, 2 and 1
        points = np.array([[0.0], [1.0], [2.0]])
        a = np.array([[1.0, 0.0, 0.0]] * 3)
        b = np.eye(3)[[0, 2, 1]]
        assert fixed_point_gap(a, b, points) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# The fixed-point gap on node laws against the exact transport LP and a
# north-west-corner reference of the Knothe-Rosenblatt coupling
# ---------------------------------------------------------------------------

def transport_lp(a, b, points):
    """Exact squared W2 between two laws on ``points``: the transport LP."""
    n = len(points)
    cost = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    marginals = np.vstack([np.kron(np.eye(n), np.ones(n)),
                           np.kron(np.ones(n), np.eye(n))])
    res = linprog(cost.ravel(), A_eq=marginals, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def reference_monotone_coupling(a, b):
    """North-west corner rule on two laws over the same sorted points:
    (i, j, mass) pieces."""
    pieces, i, j, ra, rb = [], 0, 0, a[0], b[0]
    while i < len(a) and j < len(b):
        m = min(ra, rb)
        pieces.append((i, j, m))
        ra, rb = ra - m, rb - m
        if ra <= rb:
            i += 1
            ra = a[i] if i < len(a) else 0.0
        else:
            j += 1
            rb = b[j] if j < len(b) else 0.0
    return pieces


def reference_kr_2d(a, b, lattice):
    """Knothe-Rosenblatt cost of one pair of laws on a 2-D lattice, piece
    by piece: x1 marginals by quantiles, then each pair of x2 conditionals."""
    x1, x2 = (lattice.lower[i] + lattice.spacing * np.arange(n)
              for i, n in enumerate(lattice.shape))
    wa, wb = a.reshape(lattice.shape), b.reshape(lattice.shape)
    cost = 0.0
    for i, j, m in reference_monotone_coupling(wa.sum(1), wb.sum(1)):
        if m > 0:
            inner = sum(mm * (x2[k] - x2[l]) ** 2 for k, l, mm in
                        reference_monotone_coupling(wa[i] / wa[i].sum(),
                                                    wb[j] / wb[j].sum()))
            cost += m * ((x1[i] - x1[j]) ** 2 + inner)
    return cost


def sparse_law(rng, n):
    """A random law on n nodes, about a third of them empty."""
    w = rng.dirichlet(np.full(n, 0.5)) * (rng.random(n) > 0.3)
    w[rng.integers(n)] += 0.1
    return w / w.sum()


def cube(d, spacing):
    return Lattice(np.zeros(d), np.ones(d), spacing)


class TestFixedPointGap:
    def test_equals_transport_lp_in_1d(self):
        rng = np.random.default_rng(21)
        lat = cube(1, 0.125)
        for _ in range(20):
            a, b = sparse_law(rng, 9), sparse_law(rng, 9)
            assert fixed_point_gap(a[None], b[None], lat.points) == \
                pytest.approx(transport_lp(a, b, lat.points), abs=1e-12)

    @pytest.mark.parametrize("d,spacing", [(2, 0.25), (3, 0.5)])
    def test_brackets_transport_lp(self, d, spacing):
        """Squared mean shift <= exact W2^2 <= the Knothe-Rosenblatt cost,
        and the bound is not always tight."""
        rng = np.random.default_rng(22 + d)
        lat = cube(d, spacing)
        slack = []
        for _ in range(10):
            a, b = sparse_law(rng, lat.n_nodes), sparse_law(rng, lat.n_nodes)
            exact = transport_lp(a, b, lat.points)
            gap = fixed_point_gap(a[None], b[None], lat.points)
            assert np.sum(((a - b) @ lat.points) ** 2) <= exact + 1e-12
            assert exact <= gap + 1e-12
            slack.append(gap - exact)
        assert max(slack) > 1e-3

    def test_equals_reference_coupling_in_2d(self):
        rng = np.random.default_rng(23)
        lat = cube(2, 0.2)
        a = np.stack([sparse_law(rng, lat.n_nodes) for _ in range(6)])
        b = np.stack([sparse_law(rng, lat.n_nodes) for _ in range(6)])
        ref = [reference_kr_2d(x, y, lat) for x, y in zip(a, b)]
        for row, r in enumerate(ref):
            assert fixed_point_gap(a[row:row + 1], b[row:row + 1],
                                   lat.points) == pytest.approx(r, abs=1e-14)
        # a path's gap is the largest of its rows'
        assert fixed_point_gap(a, b, lat.points) == \
            pytest.approx(max(ref), abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_equal_atoms_against_the_assignment_w2(self, d):
        """Laws of n equal atoms on the nodes, for n beyond the brute force
        of criterion 4: the gap is the squared W2 of the two atom clouds in
        1-D, and at least it in 2-D."""
        rng = np.random.default_rng(27 + d)
        lat = cube(d, 0.125)
        for n in (7, 16, 40):
            atoms_a, atoms_b = rng.integers(lat.n_nodes, size=(2, n))
            a, b = (np.bincount(atoms, minlength=lat.n_nodes)[None] / n
                    for atoms in (atoms_a, atoms_b))
            gap = fixed_point_gap(a, b, lat.points)
            w2 = reference_w2(lat.points[atoms_a], lat.points[atoms_b]) ** 2
            assert gap == pytest.approx(w2, abs=1e-12) if d == 1 \
                else gap >= w2 - 1e-12

    @pytest.mark.parametrize("d,spacing", [(1, 0.1), (2, 0.2), (3, 0.5)])
    def test_symmetric_and_zero_on_itself(self, d, spacing):
        rng = np.random.default_rng(24 + d)
        lat = cube(d, spacing)
        a = np.stack([sparse_law(rng, lat.n_nodes) for _ in range(4)])
        b = np.stack([sparse_law(rng, lat.n_nodes) for _ in range(4)])
        assert fixed_point_gap(a, b, lat.points) == \
            fixed_point_gap(b, a, lat.points) > 0.0
        assert fixed_point_gap(a, a, lat.points) == 0.0

    @pytest.mark.parametrize("d,spacing", [(2, 0.2), (3, 0.5)])
    def test_exact_against_a_dirac(self, d, spacing):
        """Against a point mass every coupling is the product, so the
        Knothe-Rosenblatt cost is the exact W2^2."""
        rng = np.random.default_rng(25 + d)
        lat = cube(d, spacing)
        for node in rng.choice(lat.n_nodes, 5, replace=False):
            a = sparse_law(rng, lat.n_nodes)[None]
            dirac = np.eye(lat.n_nodes)[node][None]
            exact = a[0] @ np.sum((lat.points - lat.points[node]) ** 2,
                                  axis=1)
            assert fixed_point_gap(a, dirac, lat.points) == \
                pytest.approx(exact, abs=1e-12)
            assert fixed_point_gap(dirac, a, lat.points) == \
                pytest.approx(exact, abs=1e-12)

    def test_nodes_must_form_an_ij_grid(self):
        rng = np.random.default_rng(26)
        lat = cube(2, 0.25)
        a = np.stack([sparse_law(rng, lat.n_nodes) for _ in range(3)])
        b = np.stack([sparse_law(rng, lat.n_nodes) for _ in range(3)])
        perm = rng.permutation(lat.n_nodes)
        for nodes in (slice(1, None), perm, np.argsort(lat.points[:, 1],
                                                        kind="stable")):
            with pytest.raises(ValueError):
                fixed_point_gap(a[:, nodes], b[:, nodes], lat.points[nodes])
        with pytest.raises(LengthMismatch):
            fixed_point_gap(a, b[:2], lat.points)


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

    def test_mean_path_of_another_length_raises(self, setup):
        problem, steps, lat, m0, field = setup
        with pytest.raises(DimensionMismatch):
            induced_measure(problem, lat, steps, field, m0[:-1],
                            np.eye(lat.n_nodes)[0])

    def test_is_law(self):
        # a law at every time: one row that is not spoils the path
        assert is_law(np.array([[1.0, 0.0], [0.25, 0.75]]))
        for row in ([0.5, 0.5 + 2e-9], [-0.25, 1.25], [np.nan, 1.0],
                    [np.inf, 0.0]):
            assert not is_law(np.array([[1.0, 0.0], row]))

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
