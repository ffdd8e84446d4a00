import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgsolver.errors import (EmptyControlGrid, NegativeProbability,
                              NonDivisibleDomain, DimensionMismatch)
from mfgsolver.checks import check_local_consistency, transition_row
from mfgsolver.lattice import (StepSizes, build_lattice,
                               control_field_to_csv, control_grid,
                               dp_backward_sweep, policy_value_sweep,
                               stencil_probabilities, validate_stepsizes,
                               value_table_to_csv)
from mfgsolver.problems import LqParams, MfgProblem, lq_problem, mfg2d_problem
from references import chain_step


@pytest.fixture(scope="module")
def lq():
    problem = lq_problem(LqParams())
    steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
    return problem, steps, build_lattice(problem, steps)


@pytest.fixture(scope="module")
def m2d():
    problem = mfg2d_problem()
    steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
    return problem, steps, build_lattice(problem, steps)


def zero_cost_problem():
    base = mfg2d_problem()
    base.running_cost = lambda t, x, m, a: np.zeros(np.shape(x)[:-1])
    base.terminal_cost = lambda x, m: np.zeros(np.shape(x)[:-1])
    return base


class TestStepSizes:
    def test_for_horizon(self):
        s = StepSizes.for_horizon(1.0, 0.2, 0.01)
        assert s.n_time == 100
        assert s.horizon == pytest.approx(1.0)
        assert len(s.times()) == 101

    def test_non_divisible_raises(self):
        with pytest.raises(NonDivisibleDomain):
            StepSizes.for_horizon(1.0, 0.2, 0.03)

    def test_positivity(self):
        with pytest.raises(ValueError):
            StepSizes(h1=-0.1, h2=0.01, n_time=10)


class TestLattice:
    def test_node_counts(self, lq, m2d):
        assert lq[2].n_nodes == 26
        assert m2d[2].n_nodes == 36

    def test_index_round_trip(self, m2d):
        lat = m2d[2]
        assert lat.indices_of(lat.points).tolist() == list(range(lat.n_nodes))

    def test_snap_to_grid_clamps(self, lq):
        lat = lq[2]
        assert lat.indices_of(np.array([[-99.0], [99.0]])).tolist() == \
            [0, lat.n_nodes - 1]

    def test_stencil_count(self, lq, m2d):
        assert lq[2].stencil_offsets().shape == (3, 1)
        # 1 self + 4 axis + 4 diagonal
        assert m2d[2].stencil_offsets().shape == (9, 2)

    def test_bad_box_raises(self):
        problem = lq_problem(LqParams(), domain=(1.0, -1.0))
        with pytest.raises(NonDivisibleDomain):
            build_lattice(problem, StepSizes(0.2, 0.01, 100))


class TestTransitionRow:
    def test_axis_probability_values(self, lq):
        # b = 0 at the node x=0.4 needs the population mean at 0.4
        problem, steps, lat = lq
        m = np.array([0.4])
        idx = int(lat.indices_of(np.array([[0.4]]))[0])
        row = transition_row(problem, lat, steps, 0.0, idx, m, np.array([0.0]))
        probs = dict(row.targets)
        # sigma=1: p(+-) = 0.5 * h2/h1^2 = 0.125, self-loop 0.75
        assert probs[idx - 1] == pytest.approx(0.125, abs=1e-12)
        assert probs[idx + 1] == pytest.approx(0.125, abs=1e-12)
        assert probs[idx] == pytest.approx(0.75, abs=1e-12)

    def test_drift_shifts_mass(self, lq):
        problem, steps, lat = lq
        m = np.array([0.4])
        idx = int(lat.indices_of(np.array([[0.4]]))[0])
        row = transition_row(problem, lat, steps, 0.0, idx, m, np.array([1.0]))
        probs = dict(row.targets)
        # b = 1: up-move gains b*h1*h2/h1^2 = 0.05
        assert probs[idx + 1] == pytest.approx(0.175, abs=1e-12)
        assert probs[idx - 1] == pytest.approx(0.125, abs=1e-12)

    def test_rows_sum_to_one(self, m2d):
        problem, steps, lat = m2d
        m = np.array([0.5, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx = int(rng.integers(lat.n_nodes))
            al = rng.uniform(problem.control_lower, problem.control_upper)
            row = transition_row(problem, lat, steps, 0.0, idx, m, al)
            total = sum(p for _, p in row.targets)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0.0 for _, p in row.targets)

    def test_boundary_mass_merged(self, m2d):
        problem, steps, lat = m2d
        m = np.array([0.5, 0.5])
        row = transition_row(problem, lat, steps, 0.0, 0, m,
                             np.array([0.0, 0.0]))
        # corner node: clamped targets collapse, still a distribution
        assert sum(p for _, p in row.targets) == pytest.approx(1.0, abs=1e-12)
        assert len(row.targets) < 9

    @pytest.mark.parametrize("model,alpha", [
        ("lq", [np.nan]), ("m2d", [np.nan, np.nan]), ("m2d", [np.nan, 0.5]),
        ("m2d", [0.5, np.nan])],
        ids=["lq-nan", "m2d-nan-nan", "m2d-nan-0.5", "m2d-0.5-nan"])
    def test_nan_control_rejected(self, request, model, alpha):
        # NaN stencil entries fail every comparison, so they need their own
        # check; -1e-12 tolerance checks alone let them through
        problem, steps, lat = request.getfixturevalue(model)
        m = np.full(problem.dim, 0.5)
        with pytest.raises(NegativeProbability, match="nan"):
            transition_row(problem, lat, steps, 0.0, lat.n_nodes // 2, m,
                           np.array(alpha))

    @settings(max_examples=40, deadline=None)
    @given(xi=st.integers(1, 34), a1=st.floats(0.0, 1.5), a2=st.floats(0.0, 1.5),
           mx=st.floats(0.0, 1.0), my=st.floats(0.0, 1.0),
           tn=st.integers(0, 99))
    def test_interior_local_consistency(self, m2d, xi, a1, a2, mx, my, tn):
        problem, steps, lat = m2d
        interior = np.flatnonzero(lat.interior_mask())
        idx = int(interior[xi % len(interior)])
        m = np.array([mx, my])
        al = np.array([a1, a2])
        t = tn * steps.h2
        row = transition_row(problem, lat, steps, t, idx, m, al)
        report = check_local_consistency(row, problem, lat, steps, t, m, al)
        assert report.passed

    def test_negative_probability_raises(self, m2d):
        problem, _, lat = m2d
        bad = StepSizes(h1=0.2, h2=0.05, n_time=20)  # h2/h1^2 too large
        m = np.array([0.5, 0.5])
        with pytest.raises(NegativeProbability):
            validate_stepsizes(problem, lat, bad, m,
                               control_grid(problem, 3))


class TestDp:
    def test_zero_cost_gives_zero_value(self):
        problem = zero_cost_problem()
        steps = StepSizes.for_horizon(1.0, 0.2, 0.01)
        lat = build_lattice(problem, steps)
        m = np.full((steps.n_time + 1, 2), 0.5)
        values, field = dp_backward_sweep(problem, lat, steps, m,
                                          control_grid(problem, 3))
        assert np.all(values == 0.0)
        # all controls tie at zero cost: lexicographically smallest wins
        assert np.all(field == 0.0)

    def test_empty_control_grid_raises(self, lq):
        problem, steps, lat = lq
        m = np.full((steps.n_time + 1, 1), 0.5)
        with pytest.raises(EmptyControlGrid):
            dp_backward_sweep(problem, lat, steps, m, np.empty((0, 1)))

    def test_path_length_checked(self, lq):
        problem, steps, lat = lq
        m = np.full((6, 1), 0.5)
        with pytest.raises(DimensionMismatch):
            dp_backward_sweep(problem, lat, steps, m,
                              control_grid(problem, 3))

    def test_terminal_layer_is_terminal_cost(self, lq):
        problem, steps, lat = lq
        m = np.full((steps.n_time + 1, 1), 0.5)
        values, _ = dp_backward_sweep(problem, lat, steps, m,
                                      control_grid(problem, 9))
        np.testing.assert_allclose(
            values[-1], problem.terminal_cost(lat.points, m[-1]))

    def test_policy_sweep_matches_dp_under_optimal_field(self, lq):
        problem, steps, lat = lq
        m = np.full((steps.n_time + 1, 1), 0.5)
        ctrls = control_grid(problem, 9)
        values, field = dp_backward_sweep(problem, lat, steps, m, ctrls)

        def control_fn(ts, points):
            return field[np.rint(ts / steps.h2).astype(int)]

        v2 = policy_value_sweep(problem, lat, steps, m, control_fn)
        np.testing.assert_allclose(v2, values, atol=1e-12)

    def test_dp_value_decreases_with_richer_controls(self, lq):
        problem, steps, lat = lq
        m = np.full((steps.n_time + 1, 1), 0.5)
        v_coarse, _ = dp_backward_sweep(problem, lat, steps, m,
                                        control_grid(problem, 3))
        v_fine, _ = dp_backward_sweep(problem, lat, steps, m,
                                      control_grid(problem, 9))
        # the 3-point grid is a subset of the 9-point grid
        assert np.all(v_fine <= v_coarse + 1e-12)


class TestBatchProbabilities:
    def test_batched_matches_single(self, m2d):
        problem, steps, lat = m2d
        m = np.array([0.3, 0.7])
        rng = np.random.default_rng(1)
        alphas = rng.uniform(0, 1.5, size=(lat.n_nodes, 4, 2))
        batch = stencil_probabilities(problem, lat, steps, 0.5, m, alphas)
        for node in (0, 7, 21):
            for c in range(4):
                single = stencil_probabilities(
                    problem, lat, steps, 0.5, m,
                    np.broadcast_to(alphas[node, c],
                                    (lat.n_nodes, 1, 2)))[node, 0]
                np.testing.assert_allclose(batch[node, c], single, atol=1e-15)


def time_varying_problem(spike_at=None):
    """The 2-D model with a correlated volatility and a drift that changes
    with t; at ``spike_at`` the drift jumps so that the self-loop goes
    negative at that time only."""
    problem = dataclasses.replace(
        mfg2d_problem(), volatility=0.3 * np.array([[1.0, 0.3], [0.0, 1.0]]))

    def drift(t, x, m, a):
        t = np.asarray(t)[..., None]
        gain = 1.0 + t if spike_at is None else \
            np.where(t == spike_at, 20.0, 1.0 + t)
        return gain * x - a + 0.1 * m

    problem.drift = drift
    return problem


class TestTimeBlock:
    """A block of times gives, step by step, the probabilities of a call
    at each time, and names the first infeasible time of the block."""

    def test_block_equals_per_step_calls(self, m2d):
        _, steps, lat = m2d
        problem = time_varying_problem()
        rng = np.random.default_rng(6)
        ts = np.arange(3, 9) * steps.h2
        means = rng.uniform(0, 1, (len(ts), 2))
        alphas = rng.uniform(0, 1.5, (len(ts), lat.n_nodes, 4, 2))
        block = stencil_probabilities(problem, lat, steps, ts, means, alphas)
        assert block.shape == (len(ts), lat.n_nodes, 4, 9)
        for b, t in enumerate(ts.tolist()):
            assert np.array_equal(block[b], stencil_probabilities(
                problem, lat, steps, t, means[b], alphas[b]))

    def test_names_the_first_infeasible_time(self, m2d):
        _, steps, lat = m2d
        ts = np.arange(3, 9) * steps.h2
        problem = time_varying_problem(spike_at=ts[2])
        means = np.full((len(ts), 2), 0.5)
        alphas = np.full((len(ts), lat.n_nodes, 1, 2), 0.5)
        for b in (0, 1, 3, 4, 5):
            stencil_probabilities(problem, lat, steps, ts[b], means[b],
                                  alphas[b])
        with pytest.raises(NegativeProbability) as step:
            stencil_probabilities(problem, lat, steps, ts[2], means[2],
                                  alphas[2])
        with pytest.raises(NegativeProbability) as block:
            stencil_probabilities(problem, lat, steps, ts, means, alphas)
        assert str(block.value) == str(step.value)
        assert str(block.value).endswith(f"at t={ts[2]}")


class TestChainStep:
    """``references.chain_step``, the step of the Monte-Carlo tests, moves
    each chain as a loop over its own stencil row does."""

    def test_matches_gathered_rows(self, m2d):
        problem, steps, lat = m2d
        rng = np.random.default_rng(4)
        alphas = rng.uniform(0, 1.5, size=(lat.n_nodes, 1, 2))
        probs = stencil_probabilities(problem, lat, steps, 0.0,
                                      np.array([0.5, 0.5]), alphas)[:, 0]
        nodes = rng.integers(lat.n_nodes, size=500)
        u = np.random.default_rng(8).uniform(size=500)
        got = chain_step(lat.neighbor_indices(), probs, nodes, u)
        assert np.array_equal(got, loop_chain_step(lat.neighbor_indices(),
                                                   probs, nodes, u))

    def test_rows_share_uniforms(self, m2d):
        """Chains of a (P, M) node array share one uniform per column; with
        P tables folded into the node axis that steps P rows at once."""
        problem, steps, lat = m2d
        rng = np.random.default_rng(5)
        alphas = rng.uniform(0, 1.5, size=(lat.n_nodes, 3, 2))
        probs = stencil_probabilities(problem, lat, steps, 0.0,
                                      np.array([0.3, 0.7]), alphas)
        nodes = rng.integers(lat.n_nodes, size=(3, 200))
        rows = np.arange(3)[:, None]
        u = np.random.default_rng(9).uniform(size=200)
        got = chain_step(*fold_rows(lat.neighbor_indices(), probs, nodes,
                                    rows), u)
        for r in range(3):
            assert np.array_equal(got[r], loop_chain_step(
                lat.neighbor_indices(), probs[:, r], nodes[r], u))


def loop_chain_step(neighbors, probs, nodes, u, rows=None):
    """One chain at a time: the target of the first column at which the
    running sum of the chain's stencil row exceeds its uniform, or of column
    0 if none does.  With ``rows`` (P, 1), ``probs`` is (n_nodes, P, n_off)
    and chain j of row r of ``nodes`` (P, M) samples its node's table r."""
    out = np.empty_like(nodes)
    for idx in np.ndindex(nodes.shape):
        row = probs[nodes[idx]] if rows is None else \
            probs[nodes[idx], rows[idx[0], 0]]
        above = [j for j, total in enumerate(itertools.accumulate(
            row.tolist())) if total > u[idx[-1]]]
        out[idx] = neighbors[nodes[idx], above[0] if above else 0]
    return out


def fold_rows(neighbors, probs, nodes, rows):
    """A (n_nodes, P, n_off) table as one (n_nodes * P, n_off) table: row r
    of node i is the pseudo-node i * P + r, whose targets are those of node
    i.  Returns (neighbours, table, flat nodes)."""
    n_rows = probs.shape[1]
    return (np.repeat(neighbors, n_rows, axis=0),
            probs.reshape(-1, probs.shape[-1]), nodes * n_rows + rows)


def tricky_table(rng, n_nodes, n_rows, n_off):
    """Stencil rows with the edge cases of inverse-CDF sampling: tolerated
    -1e-13 off-centre entries, rows summing below 1, all-zero rows."""
    probs = rng.dirichlet(np.ones(n_off), size=(n_nodes, n_rows))
    probs[rng.uniform(size=probs.shape) < 0.15] = 0.0
    neg = rng.uniform(size=probs.shape) < 0.2
    neg[..., 0] = False
    probs[neg] = -1e-13
    probs[..., 0] += 1.0 - probs.sum(axis=-1)
    probs[0, 0] *= 0.9          # the last cumulative value is below 1
    probs[1, -1] = 0.0          # an all-zero row
    return probs


def tricky_uniforms(rng, cum, nodes, rows):
    """Uniforms at, and 1e-13 either side of, a cumulative value of the
    chain's own row, above its last value, zero, and plain draws."""
    pick = cum[nodes] if rows is None else cum[nodes, rows][
        rng.integers(len(rows), size=nodes.shape[1]), np.arange(nodes.shape[1])]
    at = pick[np.arange(len(pick)), rng.integers(pick.shape[1],
                                                 size=len(pick))]
    choices = np.stack([at, at + 1e-13, at - 1e-13,
                        np.full_like(at, 0.95), np.zeros_like(at),
                        rng.uniform(size=len(at))])
    u = choices[rng.integers(len(choices), size=len(at)), np.arange(len(at))]
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


class TestChainStepOracle:
    """The chain step equals the one-chain-at-a-time loop on every finite
    table; P rows of tables are stepped folded into the node axis."""

    @pytest.mark.parametrize("n_off", [3, 5, 9])
    @pytest.mark.parametrize("n_rows", [None, 1, 4])
    def test_equals_argmax_reference(self, n_off, n_rows):
        rng = np.random.default_rng(100 * n_off + (n_rows or 0))
        n_nodes, n_chains = 7, 400
        neighbors = rng.integers(n_nodes, size=(n_nodes, n_off))
        probs = tricky_table(rng, n_nodes, n_rows or 1, n_off)
        if n_rows is None:
            probs, rows = probs[:, 0], None
            nodes = rng.integers(n_nodes, size=n_chains)
        else:
            rows = np.arange(n_rows)[:, None]
            nodes = rng.integers(n_nodes, size=(n_rows, n_chains))
        u = tricky_uniforms(rng, np.cumsum(probs, axis=-1), nodes, rows)
        table = (neighbors, probs, nodes) if rows is None else \
            fold_rows(neighbors, probs, nodes, rows)
        got = chain_step(*table, u)
        expected = loop_chain_step(neighbors, probs, nodes, u, rows)
        assert np.array_equal(got, expected)
        assert got.shape == nodes.shape

    ZERO_COLUMNS = {
        "last1-all-rows": (slice(None), slice(8, 9), 0.0),
        "last4-all-rows": (slice(None), slice(5, 9), 0.0),
        "last4-some-rows": (slice(0, None, 2), slice(5, 9), 0.0),
        "middle-all-rows": (slice(None), slice(3, 7), 0.0),
        "last4-negative-zero": (slice(None), slice(5, 9), -0.0),
    }

    @pytest.mark.parametrize("pattern", sorted(ZERO_COLUMNS))
    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_zero_columns_equal_argmax_reference(self, pattern, n_rows):
        """Columns without mass, trailing or not, in all rows or in some,
        and zeros of either sign."""
        rng = np.random.default_rng(len(pattern) * 10 + n_rows)
        n_nodes, n_chains = 7, 400
        neighbors = rng.integers(n_nodes, size=(n_nodes, 9))
        probs = tricky_table(rng, n_nodes, n_rows, 9)
        nodes_sel, cols, zero = self.ZERO_COLUMNS[pattern]
        probs[nodes_sel, :, cols] = zero
        probs[..., 0] += 1.0 - probs.sum(axis=-1)
        rows = np.arange(n_rows)[:, None]
        nodes = rng.integers(n_nodes, size=(n_rows, n_chains))
        u = tricky_uniforms(rng, np.cumsum(probs, axis=-1), nodes, rows)
        got = chain_step(*fold_rows(neighbors, probs, nodes, rows),
                         u)
        assert np.array_equal(got, loop_chain_step(neighbors, probs, nodes,
                                                   u, rows))

    def test_no_column_exceeding_u_takes_offset_zero(self):
        neighbors = np.array([[5, 6, 7], [8, 9, 10]])
        probs = np.array([[0.2, 0.3, 0.4], [0.0, 0.0, 0.0]])
        nodes = np.array([0, 0, 1, 1])
        u = np.array([0.95, 0.9, 0.0, 0.5])
        got = chain_step(neighbors, probs, nodes, u)
        assert got.tolist() == [5, 5, 8, 8]

    def test_ties_and_dips(self):
        # u equal to a cumulative value moves on; a -1e-13 entry makes the
        # cumulative sum dip below u and back above it
        neighbors = np.array([[0, 1, 2, 3, 4]])
        probs = np.array([[0.5, 0.25, -1e-13, 1e-13, 0.25]])
        nodes = np.zeros(4, dtype=int)
        u = np.array([0.5, 0.75, 0.75 - 1e-13, 0.4])
        got = chain_step(neighbors, probs, nodes, u)
        assert np.array_equal(got, loop_chain_step(neighbors, probs, nodes,
                                                   u))
        assert got.tolist() == [1, 4, 1, 0]


def tricky_values(shape, seed):
    """Values whose text is easy to get wrong, then random magnitudes."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    special = [-0.0, 1e-300, 0.123456789012345, 1 / 3, -2.5e17, np.inf, 7.0]
    vals.flat[:len(special)] = special
    return vals


def reference_value_table_csv(path, lattice, steps, values):
    d = lattice.dims
    header = "t," + ",".join(f"x{i+1}" for i in range(d)) + ",value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for n in range(values.shape[0]):
            t = n * steps.h2
            for idx in range(lattice.n_nodes):
                coords = ",".join(f"{c:.12g}" for c in lattice.points[idx])
                fh.write(f"{t:.12g},{coords},{values[n, idx]:.12g}\n")


def reference_control_field_csv(path, lattice, steps, field):
    d = lattice.dims
    k = field.shape[2]
    header = ("t," + ",".join(f"x{i+1}" for i in range(d)) + ","
              + ",".join(f"a{i+1}" for i in range(k)))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for n in range(field.shape[0]):
            t = n * steps.h2
            for idx in range(lattice.n_nodes):
                coords = ",".join(f"{c:.12g}" for c in lattice.points[idx])
                ctrl = ",".join(f"{c:.12g}" for c in field[n, idx])
                fh.write(f"{t:.12g},{coords},{ctrl}\n")


class TestCsv:
    """The block writers give the bytes of the per-value f-string loop."""

    @pytest.mark.parametrize("problem", ["lq", "m2d"])
    def test_value_table_matches_reference(self, problem, request,
                                           tmp_path):
        _, steps, lat = request.getfixturevalue(problem)
        values = tricky_values((steps.n_time + 1, lat.n_nodes), seed=1)
        value_table_to_csv(tmp_path / "a.csv", lat, steps, values)
        reference_value_table_csv(tmp_path / "b.csv", lat, steps, values)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("problem", ["lq", "m2d"])
    def test_control_field_matches_reference(self, problem, request,
                                             tmp_path):
        prob, steps, lat = request.getfixturevalue(problem)
        field = tricky_values((steps.n_time, lat.n_nodes, prob.control_dim),
                              seed=2)
        control_field_to_csv(tmp_path / "a.csv", lat, steps, field)
        reference_control_field_csv(tmp_path / "b.csv", lat, steps, field)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("problem", ["lq", "m2d"])
    def test_twelve_digit_times_match_reference(self, problem, request,
                                                tmp_path):
        # n * h2 = n / 7 needs all 12 significant digits; the lq lattice
        # has negative coordinates, the mfg2d field two controls
        prob, _, lat = request.getfixturevalue(problem)
        steps = StepSizes(h1=lat.spacing, h2=1 / 7, n_time=7)
        values = tricky_values((steps.n_time + 1, lat.n_nodes), seed=3)
        field = tricky_values((steps.n_time, lat.n_nodes, prob.control_dim),
                              seed=4)
        value_table_to_csv(tmp_path / "a.csv", lat, steps, values)
        reference_value_table_csv(tmp_path / "b.csv", lat, steps, values)
        control_field_to_csv(tmp_path / "c.csv", lat, steps, field)
        reference_control_field_csv(tmp_path / "d.csv", lat, steps, field)
        for ours, ref in (("a", "b"), ("c", "d")):
            assert (tmp_path / f"{ours}.csv").read_bytes() == \
                (tmp_path / f"{ref}.csv").read_bytes()
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[1 + 3 * lat.n_nodes].startswith("0.428571428571,")
        assert lines[0].endswith(",".join(
            f"a{i+1}" for i in range(prob.control_dim)))
        if problem == "lq":
            assert lines[2].startswith("0,-1.8,")
