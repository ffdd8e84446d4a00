"""Oracles for the backward recursion and the chain loop, each written once
in ``lattice``.

The references below are the four loops the solver ran before the
recursion and the chain loop were shared: a DP sweep over the control grid,
a policy sweep under one feedback control, the induced-measure simulation
and the chain rollout.  The shared code must give the same arrays bit for
bit, on the shipped ``lq`` and ``mfg2d`` setups, at the coarse and the fine
spacing, for grid and callable controls.  The exact SA evaluator, the same
recursion over a stack of parameter rows, must give the policy sweep's
value at t = 0 for each row.
"""

import os

import numpy as np
import pytest

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


def ref_induced_measure(problem, lattice, steps, controls, mbar_path,
                        n_particles, seed):
    rng = substream(seed, "induced")
    nodes = lattice.indices_of(problem.initial_sampler(rng, n_particles))
    path = np.empty((steps.n_time + 1, n_particles, lattice.dims))
    path[0] = lattice.points[nodes]
    for n in range(steps.n_time):
        t = n * steps.h2
        layer = controls(t, lattice.points) if callable(controls) \
            else controls[n]
        probs = stencil_probabilities(problem, lattice, steps, t,
                                      mbar_path[n], layer[:, None, :])[:, 0]
        nodes = chain_step(lattice, probs, nodes, rng)
        path[n + 1] = lattice.points[nodes]
    return path


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
    """(problem, steps, lattice, control grid, random mean path, the
    reference DP field, two random network policies) of a shipped config at
    one spacing.  The fine setups stop after 100 of their time steps, which
    keeps them affordable and changes nothing in what is compared."""
    name, grid = request.param
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        problem, steps_c, lat_c, steps_f, lat_f, controls, arch, _ = \
            RunConfig.from_ini(fh.read()).build()
    steps, lat = (steps_c, lat_c) if grid == "coarse" else \
        (StepSizes(steps_f.h1, steps_f.h2, 100), lat_f)
    rng = np.random.default_rng(len(name) + lat.n_nodes)
    mbar_path = rng.uniform(problem.domain_lower, problem.domain_upper,
                            (steps.n_time + 1, problem.dim))
    _, field = ref_dp_backward_sweep(problem, lat, steps, mbar_path, controls)
    policies = [feedback(arch, random_theta(arch, rng, scale=s))
                for s in (0.5, 2.0)]
    return problem, steps, lat, controls, mbar_path, field, policies


def test_dp_sweep_equals_reference(setup):
    problem, steps, lat, controls, mbar_path, _, _ = setup
    values, field = dp_backward_sweep(problem, lat, steps, mbar_path,
                                      controls)
    ref_values, ref_field = ref_dp_backward_sweep(problem, lat, steps,
                                                  mbar_path, controls)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(field, ref_field)


def test_policy_sweep_equals_reference(setup):
    problem, steps, lat, _, mbar_path, field, policies = setup

    def grid_control(t, points):
        return field[int(round(t / steps.h2))]

    for policy in (grid_control, *policies):
        assert np.array_equal(
            policy_value_sweep(problem, lat, steps, mbar_path, policy),
            ref_policy_value_sweep(problem, lat, steps, mbar_path, policy))


def test_policy_sweep_calls_the_policy_once_per_step(setup):
    problem, steps, lat, _, mbar_path, _, policies = setup
    times = []

    def recording(t, points):
        times.append(t)
        return policies[0](t, points)

    policy_value_sweep(problem, lat, steps, mbar_path, recording)
    assert times == [n * steps.h2 for n in range(steps.n_time - 1, -1, -1)]


def test_induced_measure_equals_reference(setup):
    problem, steps, lat, _, mbar_path, field, policies = setup
    for seed, ctrl in enumerate((field, policies[0])):
        assert np.array_equal(
            induced_measure(problem, lat, steps, ctrl, mbar_path, 300, seed),
            ref_induced_measure(problem, lat, steps, ctrl, mbar_path, 300,
                                seed))


@pytest.mark.parametrize("start", ["initial law", "x0"])
def test_simulate_chain_equals_reference(setup, start):
    problem, steps, lat, _, mbar_path, field, policies = setup
    x0 = None if start == "initial law" else lat.points[lat.n_nodes // 3]
    for seed, ctrl in enumerate((field, policies[1])):
        bundle = simulate_chain(problem, lat, steps, ctrl, mbar_path, 40,
                                seed, x0=x0)
        states, applied = ref_simulate_chain(problem, lat, steps, ctrl,
                                             mbar_path, 40, seed, x0=x0)
        assert np.array_equal(bundle.states, states)
        assert np.array_equal(bundle.controls, applied)
        assert np.array_equal(bundle.times, steps.times())


@pytest.fixture(scope="module", params=["lq.cfg", "mfg2d.cfg"],
                ids=lambda name: name[:-4])
def coarse_setup(request):
    """(problem, steps, lattice, random mean path, architecture) of a
    shipped config on its coarse lattice, where SA evaluates."""
    with open(os.path.join(CONFIG_DIR, request.param)) as fh:
        problem, steps, lat, _, _, _, arch, _ = \
            RunConfig.from_ini(fh.read()).build()
    rng = np.random.default_rng(lat.n_nodes)
    mbar_path = rng.uniform(problem.domain_lower, problem.domain_upper,
                            (steps.n_time + 1, problem.dim))
    return problem, steps, lat, mbar_path, arch


@pytest.mark.parametrize("n_rows", [1, 5])
def test_exact_evaluator_equals_policy_sweeps(coarse_setup, n_rows):
    """Row p is -mean over nodes of the t = 0 row of the policy sweep under
    theta_p.  One row runs the sweep's arithmetic and matches bit for bit;
    with more rows einsum sums the stencil columns in another order, so the
    rows match to rounding."""
    problem, steps, lat, mbar_path, arch = coarse_setup
    rng = np.random.default_rng(n_rows)
    thetas = np.stack([random_theta(arch, rng, scale=s)
                       for s in np.linspace(0.5, 3.0, n_rows)])
    exact = improvement(problem, lat, steps, mbar_path, arch, thetas)
    swept = np.array([-np.mean(policy_value_sweep(
        problem, lat, steps, mbar_path, feedback(arch, theta))[0])
        for theta in thetas])
    if n_rows == 1:
        assert np.array_equal(exact, swept)
    else:
        np.testing.assert_allclose(exact, swept, rtol=1e-12, atol=0)
