"""Oracles for the backward recursion, the chain loop and the forward
equation, each written once in ``lattice``.

The references below are the loops the solver ran before the recursion and
the chain loop were shared, one time step at a time: a DP sweep over the
control grid, a policy sweep under one feedback control and the chain
rollout.  The induced law has its own reference: products of the node
weights with the dense transition matrix of each step, built row by row from
``checks.transition_row``.  The shared code, which evaluates controls,
stencils and costs once per block of time steps, must give the same arrays
on the shipped ``lq`` and ``mfg2d`` setups, at the coarse and the fine
spacing, for grid and callable controls, and for blocks of one step, of a
length that does not divide the step count, and of the whole horizon.  The
exact SA evaluator is the policy sweep of one parameter vector: its
objective is minus the mean of the sweep's t = 0 row, bit for bit.

Grid fields match bit for bit everywhere, and so do network policies on
``mfg2d``.  On ``lq`` a network policy matches to 1e-12 relative: a block
forwards B * n_nodes (t, x) inputs in one gemm, and BLAS rounds a product
with two inputs differently when the batch is taller, so the controls can
move in the last ulp.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from mfgsolver import lattice as lattice_module
from mfgsolver.checks import transition_row
from mfgsolver.lattice import (StepSizes, chain_step, dp_backward_sweep,
                               policy_value_sweep, stencil_probabilities)
from mfgsolver.measures import induced_measure
from mfgsolver.network import feedback, random_theta
from mfgsolver.runner import RunConfig
from mfgsolver.sa import improvement
from mfgsolver.seeding import substream
from mfgsolver.simulate import simulate_chain

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------

def ref_dp_backward_sweep(problem, lattice, steps, mbar_path, controls):
    n_nodes = lattice.n_nodes
    neigh = lattice.neighbor_indices()
    values = np.empty((steps.n_time + 1, n_nodes))
    field = np.empty((steps.n_time, n_nodes, controls.shape[1]))
    values[-1] = problem.terminal_cost(lattice.points, mbar_path[-1])
    alphas = np.broadcast_to(controls[None, :, :], (n_nodes,) + controls.shape)
    for n in range(steps.n_time - 1, -1, -1):
        t = n * steps.h2
        mbar = mbar_path[n]
        probs = stencil_probabilities(problem, lattice, steps, t, mbar, alphas)
        q = np.einsum("nco,no->nc", probs, values[n + 1][neigh])
        f = problem.running_cost(t, lattice.points[:, None, :], mbar, alphas)
        q += f * steps.h2
        best = np.argmin(q, axis=1)
        values[n] = q[np.arange(n_nodes), best]
        field[n] = controls[best]
    return values, field


def ref_policy_value_sweep(problem, lattice, steps, mbar_path, control_fn):
    neigh = lattice.neighbor_indices()
    values = np.empty((steps.n_time + 1, lattice.n_nodes))
    values[-1] = problem.terminal_cost(lattice.points, mbar_path[-1])
    for n in range(steps.n_time - 1, -1, -1):
        t = n * steps.h2
        mbar = mbar_path[n]
        al = control_fn(t, lattice.points)[:, None, :]
        probs = stencil_probabilities(problem, lattice, steps, t, mbar,
                                      al)[:, 0]
        values[n] = (np.einsum("no,no->n", probs, values[n + 1][neigh])
                     + problem.running_cost(t, lattice.points, mbar,
                                            al[:, 0]) * steps.h2)
    return values


def dense_transitions(problem, lattice, steps, controls, mbar_path):
    """The chain's (n_nodes, n_nodes) transition matrix of every step,
    row by row from ``checks.transition_row``."""
    mats = np.zeros((steps.n_time, lattice.n_nodes, lattice.n_nodes))
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = controls(t, lattice.points) if callable(controls) \
            else controls[n]
        for i in range(lattice.n_nodes):
            row = transition_row(problem, lattice, steps, t, i, mbar_path[n],
                                 layer[i])
            for j, p in row.targets:
                mats[n, i, j] = p
    return mats


def ref_induced_measure(mats, w0):
    law = [w0]
    for mat in mats:
        law.append(law[-1] @ mat)
    return np.stack(law)


def ref_simulate_chain(problem, lattice, steps, controls, mbar_path, n_paths,
                       seed, x0=None):
    rng = substream(seed, "chain")
    if x0 is None:
        nodes = lattice.indices_of(problem.initial_sampler(rng, n_paths))
    else:
        nodes = np.full(n_paths, lattice.index_of(np.asarray(x0, dtype=float)))
    states = np.empty((n_paths, steps.n_time + 1, problem.dim))
    applied = np.empty((n_paths, steps.n_time, problem.control_dim))
    states[:, 0] = lattice.points[nodes]
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = controls(t, lattice.points) if callable(controls) \
            else controls[n]
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer[:, None, :])[:, 0]
        applied[:, n] = layer[nodes]
        nodes = chain_step(lattice, probs, nodes, rng)
        states[:, n + 1] = lattice.points[nodes]
    return states, applied


# ---------------------------------------------------------------------------
# The shipped setups
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[
    (cfg, grid) for cfg in ("lq.cfg", "mfg2d.cfg")
    for grid in ("coarse", "fine")],
    ids=lambda p: f"{p[0][:-4]}-{p[1]}")
def setup(request):
    """The setup of a shipped config at one spacing: problem, steps,
    lattice, control grid, a random mean path, the reference DP field,
    architecture, two random parameter vectors and their network policies.
    The fine setups stop after 100 of their time steps, which keeps them
    affordable and changes nothing in what is compared."""
    name, grid = request.param
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        problem, steps_c, lat_c, steps_f, lat_f, controls, arch = \
            RunConfig.from_ini(fh.read()).build()
    steps, lat = (steps_c, lat_c) if grid == "coarse" else \
        (StepSizes(steps_f.h1, steps_f.h2, 100), lat_f)
    rng = np.random.default_rng(len(name) + lat.n_nodes)
    mbar_path = rng.uniform(problem.domain_lower, problem.domain_upper,
                            (steps.n_time + 1, problem.dim))
    _, field = ref_dp_backward_sweep(problem, lat, steps, mbar_path, controls)
    thetas = np.stack([random_theta(arch, rng, scale=s) for s in (0.5, 2.0)])
    return SimpleNamespace(
        model=name[:-4], grid=grid, problem=problem, steps=steps, lat=lat,
        controls=controls, mbar_path=mbar_path, field=field, arch=arch,
        thetas=thetas, policies=[feedback(arch, theta) for theta in thetas])


def grid_control(field, steps):
    """The policy of a grid field, at one time or at a block of times."""
    return lambda t, points: field[np.rint(np.asarray(t) / steps.h2)
                                   .astype(int)]


def assert_policy_match(s, got, expected, network):
    """Bit for bit, but a network policy on lq to 1e-12 relative."""
    if network and s.model == "lq":
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(got, expected)


def test_dp_sweep_equals_reference(setup):
    s = setup
    values, field = dp_backward_sweep(s.problem, s.lat, s.steps, s.mbar_path,
                                      s.controls)
    ref_values, ref_field = ref_dp_backward_sweep(
        s.problem, s.lat, s.steps, s.mbar_path, s.controls)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(field, ref_field)


def test_policy_sweep_equals_reference(setup):
    s = setup
    for policy, network in ((grid_control(s.field, s.steps), False),
                            *((p, True) for p in s.policies)):
        assert_policy_match(
            s, policy_value_sweep(s.problem, s.lat, s.steps, s.mbar_path,
                                  policy),
            ref_policy_value_sweep(s.problem, s.lat, s.steps, s.mbar_path,
                                   policy), network)


def test_policy_sweep_calls_the_policy_once_per_step(setup, monkeypatch):
    """Block contract: each call gets a block of consecutive times, the
    blocks run from the last one back, and together they hold every step's
    time n * h2 exactly once; at the default budget and at 7 steps per
    block."""
    s = setup
    for budget in (lattice_module.BLOCK_EVALS, 7 * s.lat.n_nodes):
        monkeypatch.setattr(lattice_module, "BLOCK_EVALS", budget)
        blocks = []

        def recording(ts, points):
            blocks.append(ts.tolist())
            return s.policies[0](ts, points)

        policy_value_sweep(s.problem, s.lat, s.steps, s.mbar_path, recording)
        assert len(blocks) == -(-s.steps.n_time // (budget // s.lat.n_nodes))
        assert [t for block in reversed(blocks) for t in block] == \
            [n * s.steps.h2 for n in range(s.steps.n_time)]


@pytest.fixture(scope="module")
def law_oracle(setup):
    """The steps the forward-equation oracles cover, a start law with some
    empty nodes, and the reference law path under each control of the setup:
    its grid field, then its first network policy.  The fine setups stop
    after 16 steps here, as in ``blocked``: each dense row costs a stencil
    call over the whole lattice."""
    s = setup
    steps = s.steps if s.grid == "coarse" else \
        StepSizes(s.steps.h1, s.steps.h2, 16)
    w0 = np.random.default_rng(s.lat.n_nodes).dirichlet(
        np.ones(s.lat.n_nodes))
    w0[::3] = 0.0
    w0 /= w0.sum()
    refs = [ref_induced_measure(dense_transitions(
        s.problem, s.lat, steps, ctrl, s.mbar_path), w0)
        for ctrl in (s.field, s.policies[0])]
    return steps, w0, refs


def assert_law_matches(law, ref):
    """Within 1e-12 of the reference, nonnegative, and of mass 1 within
    1e-12 at every time."""
    np.testing.assert_allclose(law, ref, rtol=0, atol=1e-12)
    assert law.min() >= 0.0
    np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_induced_measure_equals_reference(setup, law_oracle):
    s = setup
    steps, w0, refs = law_oracle
    for ctrl, ref in zip((s.field, s.policies[0]), refs):
        assert_law_matches(
            induced_measure(s.problem, s.lat, steps, ctrl,
                            s.mbar_path[:steps.n_time + 1], w0), ref)


@pytest.mark.parametrize("start", ["initial law", "x0"])
def test_simulate_chain_equals_reference(setup, start):
    s = setup
    x0 = None if start == "initial law" else s.lat.points[s.lat.n_nodes // 3]
    for seed, ctrl in enumerate((s.field, s.policies[1])):
        bundle = simulate_chain(s.problem, s.lat, s.steps, ctrl, s.mbar_path,
                                40, seed, x0=x0)
        states, applied = ref_simulate_chain(s.problem, s.lat, s.steps, ctrl,
                                             s.mbar_path, 40, seed, x0=x0)
        assert np.array_equal(bundle.states, states)
        assert_policy_match(s, bundle.controls, applied, ctrl is not s.field)
        assert np.array_equal(bundle.times, s.steps.times())


# ---------------------------------------------------------------------------
# Block boundaries
# ---------------------------------------------------------------------------

#: Steps per block: one, a length that divides neither 100 nor 16, and more
#: than the whole horizon (one block).
BLOCKS = {"1-step": 1, "7-steps": 7, "one-block": None}


@pytest.fixture(params=sorted(BLOCKS))
def blocked(request, setup, monkeypatch):
    """The setup with ``block(width)``, which sets the block budget so that
    a loop of ``width`` evaluations per step runs blocks of the fixture's
    length.  The fine setups stop after 16 steps here: a DP block of 100
    fine mfg2d steps would hold 2.2 million stencil rows."""
    s = setup
    steps = s.steps
    if s.grid == "fine":
        steps = StepSizes(steps.h1, steps.h2, 16)
    length = BLOCKS[request.param] or 2 * steps.n_time

    def block(width):
        monkeypatch.setattr(lattice_module, "BLOCK_EVALS", length * width)

    return SimpleNamespace(**{**vars(s), "steps": steps,
                              "mbar_path": s.mbar_path[:steps.n_time + 1],
                              "field": s.field[:steps.n_time],
                              "block": block})


def test_dp_sweep_in_blocks_equals_reference(blocked):
    b = blocked
    b.block(b.lat.n_nodes * len(b.controls))
    values, field = dp_backward_sweep(b.problem, b.lat, b.steps, b.mbar_path,
                                      b.controls)
    ref_values, ref_field = ref_dp_backward_sweep(
        b.problem, b.lat, b.steps, b.mbar_path, b.controls)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(field, ref_field)


def test_policy_sweep_in_blocks_equals_reference(blocked):
    b = blocked
    b.block(b.lat.n_nodes)
    for policy, network in ((grid_control(b.field, b.steps), False),
                            *((p, True) for p in b.policies)):
        assert_policy_match(
            b, policy_value_sweep(b.problem, b.lat, b.steps, b.mbar_path,
                                  policy),
            ref_policy_value_sweep(b.problem, b.lat, b.steps, b.mbar_path,
                                   policy), network)


@pytest.mark.parametrize("n_thetas", [1, 2])
def test_start_values_in_blocks_equal_reference(blocked, n_thetas):
    """SA's objective of each of the first ``n_thetas`` parameter vectors,
    evaluated in blocks, is minus the mean over nodes of the t = 0 row of
    the value table it returns, bit for bit; that table is the policy
    sweep's, bit for bit, and the reference sweep's."""
    b = blocked
    b.block(b.lat.n_nodes)
    for theta, policy in zip(b.thetas[:n_thetas], b.policies[:n_thetas]):
        g, values = improvement(b.problem, b.lat, b.steps, b.mbar_path,
                                b.arch, theta)
        assert g == -np.mean(values[0])
        assert np.array_equal(values, policy_value_sweep(
            b.problem, b.lat, b.steps, b.mbar_path, policy))
        assert_policy_match(b, values, ref_policy_value_sweep(
            b.problem, b.lat, b.steps, b.mbar_path, policy), True)


def test_induced_measure_in_blocks_equals_reference(blocked, law_oracle):
    b = blocked
    b.block(b.lat.n_nodes)
    steps, w0, refs = law_oracle
    assert steps == b.steps
    for ctrl, ref in zip((b.field, b.policies[0]), refs):
        assert_law_matches(
            induced_measure(b.problem, b.lat, b.steps, ctrl, b.mbar_path, w0),
            ref)


@pytest.fixture(scope="module", params=["lq.cfg", "mfg2d.cfg"],
                ids=lambda name: name[:-4])
def coarse_setup(request):
    """(problem, steps, lattice, random mean path, architecture) of a
    shipped config on its coarse lattice, where SA evaluates."""
    with open(os.path.join(CONFIG_DIR, request.param)) as fh:
        problem, steps, lat, _, _, _, arch = \
            RunConfig.from_ini(fh.read()).build()
    rng = np.random.default_rng(lat.n_nodes)
    mbar_path = rng.uniform(problem.domain_lower, problem.domain_upper,
                            (steps.n_time + 1, problem.dim))
    return problem, steps, lat, mbar_path, arch


@pytest.mark.parametrize("n_thetas", [1, 5])
def test_exact_evaluator_equals_policy_sweeps(coarse_setup, n_thetas):
    """G of each theta is -mean over nodes of the t = 0 row of the policy
    sweep under theta, bit for bit."""
    problem, steps, lat, mbar_path, arch = coarse_setup
    rng = np.random.default_rng(n_thetas)
    for scale in np.linspace(0.5, 3.0, n_thetas):
        theta = random_theta(arch, rng, scale=scale)
        g, _ = improvement(problem, lat, steps, mbar_path, arch, theta)
        assert g == -np.mean(policy_value_sweep(
            problem, lat, steps, mbar_path, feedback(arch, theta))[0])


def test_induced_mean_path_agrees_with_chains(coarse_setup):
    """The exact law's mean path against 10,000 chains from one node under
    a network policy: within 3 standard errors at the middle and the end of
    the horizon."""
    problem, steps, lat, mbar_path, arch = coarse_setup
    policy = feedback(arch, random_theta(arch, np.random.default_rng(3),
                                         scale=2.0))
    start = lat.n_nodes // 3
    w0 = np.zeros(lat.n_nodes)
    w0[start] = 1.0
    means = induced_measure(problem, lat, steps, policy, mbar_path,
                            w0) @ lat.points
    states = simulate_chain(problem, lat, steps, policy, mbar_path, 10_000,
                            seed=8, x0=lat.points[start]).states
    for n in (steps.n_time // 2, steps.n_time):
        se = states[:, n].std(axis=0, ddof=1) / np.sqrt(len(states))
        assert np.all(se > 0)
        assert np.all(np.abs(states[:, n].mean(axis=0) - means[n])
                      <= 3.0 * se), n
