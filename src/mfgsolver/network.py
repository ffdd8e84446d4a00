"""Feedforward control map N(t, x, theta) with analytic gradients.

tanh hidden layers; the output layer is a componentwise sigmoid scaled into
the control box, so every forward call is admissible by construction.
Inputs are affinely normalized to [-1, 1] per axis using the horizon and
the state box, which keeps the default initialization well conditioned.
Parameters live in a single flat vector theta (r,), layer-major (W1, b1,
W2, b2, ...), and every pass runs one such vector.  Gradients are
vector-Jacobian products (``vjp``) on a cached forward pass, so a caller
that has already run the pass does not run it again.  The grid fit and the
SA stage descend by one projected line-search step, ``backtracking_step``,
so their iterates stay in the box |theta_j| <= m_bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch


@dataclass(frozen=True)
class NetworkArchitecture:
    state_dim: int
    control_dim: int
    hidden: tuple
    horizon: float
    x_lower: tuple
    x_upper: tuple
    u_lower: tuple
    u_upper: tuple

    def __post_init__(self):
        if any(w < 1 for w in self.hidden):
            raise ValueError("hidden widths must be >= 1")

    @classmethod
    def for_problem(cls, problem, hidden=(32, 32)) -> "NetworkArchitecture":
        return cls(
            state_dim=problem.dim,
            control_dim=problem.control_dim,
            hidden=tuple(hidden),
            horizon=problem.horizon,
            x_lower=tuple(problem.domain_lower),
            x_upper=tuple(problem.domain_upper),
            u_lower=tuple(problem.control_lower),
            u_upper=tuple(problem.control_upper),
        )

    @property
    def input_dim(self) -> int:
        return self.state_dim + 1

    def layer_sizes(self):
        return [self.input_dim, *self.hidden, self.control_dim]

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes()
        return sum(sizes[i + 1] * sizes[i] + sizes[i + 1]
                   for i in range(len(sizes) - 1))


def random_theta(arch: NetworkArchitecture, rng, scale: float = 0.5) -> np.ndarray:
    """Small random weights, zero biases (Xavier-ish scaling)."""
    theta = np.zeros(arch.n_params)
    sizes = arch.layer_sizes()
    pos = 0
    for i in range(len(sizes) - 1):
        n_out, n_in = sizes[i + 1], sizes[i]
        w = rng.standard_normal((n_out, n_in)) * scale / np.sqrt(n_in)
        theta[pos:pos + n_out * n_in] = w.ravel()
        pos += n_out * n_in + n_out
    return theta


def _unpack(arch: NetworkArchitecture, theta: np.ndarray):
    if theta.shape != (arch.n_params,):
        raise LengthMismatch(
            f"theta has shape {theta.shape}, expected ({arch.n_params},)")
    sizes = arch.layer_sizes()
    layers = []
    pos = 0
    for i in range(len(sizes) - 1):
        n_out, n_in = sizes[i + 1], sizes[i]
        w = theta[pos:pos + n_out * n_in].reshape(n_out, n_in)
        pos += n_out * n_in
        b = theta[None, pos:pos + n_out]
        pos += n_out
        layers.append((w, b))
    return layers


def _normalize_inputs(arch: NetworkArchitecture, t, x) -> np.ndarray:
    """Normalized (t, x) rows, shape broadcast(t.shape, x.shape[:-1]) +
    (input_dim,): t and x are normalized as given, then broadcast, so
    points shared by many times are normalized once."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != arch.state_dim:
        raise LengthMismatch("state has wrong dimension")
    tn = 2.0 * t / arch.horizon - 1.0
    lo = np.asarray(arch.x_lower)
    hi = np.asarray(arch.x_upper)
    xn = 2.0 * (x - lo) / (hi - lo) - 1.0
    inputs = np.empty(np.broadcast_shapes(tn.shape, xn.shape[:-1])
                      + (arch.input_dim,))
    inputs[..., 0] = tn
    inputs[..., 1:] = xn
    return inputs


def _sigmoid(z):
    # exp of a non-positive argument only, so it cannot overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _forward_cached(arch: NetworkArchitecture, theta: np.ndarray,
                    inputs: np.ndarray):
    """Forward pass of theta (r,) on normalized inputs (B, in), giving
    outputs (B, k); caches activations."""
    layers = _unpack(arch, theta)
    a = inputs
    cache = [a]
    for w, b in layers[:-1]:
        z = np.matmul(a, w.T) + b
        a = np.tanh(z)
        cache.append(a)
    w, b = layers[-1]
    z_out = np.matmul(cache[-1], w.T) + b
    s = _sigmoid(z_out)
    lo = np.asarray(arch.u_lower)
    hi = np.asarray(arch.u_upper)
    out = lo + (hi - lo) * s
    return out, s, cache, layers


def forward(arch: NetworkArchitecture, theta: np.ndarray, t, x) -> np.ndarray:
    """Control of theta (r,) at (t, x), shape broadcast(t.shape,
    x.shape[:-1]) + (k,)."""
    theta = np.asarray(theta, dtype=float)
    inputs = _normalize_inputs(arch, t, x)
    flat = inputs.reshape(-1, arch.input_dim)
    out, _, _, _ = _forward_cached(arch, theta, flat)
    return out.reshape(inputs.shape[:-1] + (arch.control_dim,))


def feedback(arch: NetworkArchitecture, theta: np.ndarray):
    """The feedback policy (t, x) -> control of theta (r,) at the (n, d)
    points ``x`` at one time ``t``, shape (n, k), or at each time of a block
    ``t`` (B,), shape (B, n, k), from one forward pass over all (time,
    point) inputs; the points are normalized once."""
    def policy(t, x):
        return forward(arch, theta, np.asarray(t, dtype=float)[..., None], x)
    return policy


def fit_loss(arch: NetworkArchitecture, theta: np.ndarray,
             inputs: np.ndarray, targets: np.ndarray) -> float:
    out, _, _, _ = _forward_cached(arch, theta, inputs)
    return float(np.sum((out - targets) ** 2))


def vjp(arch: NetworkArchitecture, fw, d_out: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the network outputs with ``d_out`` (B, k):
    the flat gradient in theta of sum(d_out * out), from the cached forward
    pass ``fw = _forward_cached(arch, theta, inputs)`` of one theta (r,)."""
    _, s, cache, layers = fw
    lo = np.asarray(arch.u_lower)
    hi = np.asarray(arch.u_upper)
    dz = d_out * (hi - lo) * s * (1.0 - s)              # output layer pre-act
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        a_prev = cache[li]
        gw = dz.T @ a_prev
        gb = dz.sum(axis=0)
        grads.append((gw, gb))
        if li > 0:
            da = dz @ w
            dz = da * (1.0 - cache[li] ** 2)            # tanh'
    grads.reverse()
    return np.concatenate([np.concatenate([gw.ravel(), gb])
                           for gw, gb in grads])


def grad_fit_loss_raw(arch: NetworkArchitecture, theta: np.ndarray,
                      inputs: np.ndarray, targets: np.ndarray):
    """Loss and its exact gradient for the summed squared control mismatch."""
    theta = np.asarray(theta, dtype=float)
    fw = _forward_cached(arch, theta, inputs)
    resid = fw[0] - targets
    return float(np.sum(resid ** 2)), vjp(arch, fw, 2.0 * resid)


def _grid_inputs(arch: NetworkArchitecture, lattice, steps) -> np.ndarray:
    """Normalized inputs of every (t_n, x) row, n < n_time, time-major."""
    times = np.arange(steps.n_time) * steps.h2
    return _normalize_inputs(arch, np.repeat(times, lattice.n_nodes),
                             np.tile(lattice.points, (steps.n_time, 1)))


def _fit_dataset(arch: NetworkArchitecture, control_field: np.ndarray,
                 lattice, steps):
    return _grid_inputs(arch, lattice, steps), control_field.reshape(
        -1, arch.control_dim)


#: Length of the first trial step of a descent by ``backtracking_step``.
FIRST_STEP = 1e-2


def backtracking_step(trial, theta: np.ndarray, loss: float, g: np.ndarray,
                      lr: float, m_bound: float):
    """One projected backtracking step on a loss with gradient ``g`` at
    ``theta``: the trial clip(theta - lr g, +-m_bound) is accepted when its
    loss, ``trial(cand) -> (loss, aux)``, is <= loss + 1e-4 g . (cand -
    theta); each rejection halves ``lr``, at most 40 times.  Returns ``(lr,
    cand, loss, aux)`` of the accepted trial, or None when none is accepted
    or the step would not move theta (a zero projected gradient).  The
    caller's next step starts from min(1.5 lr, 1)."""
    for _ in range(40):
        cand = np.clip(theta - lr * g, -m_bound, m_bound)
        if np.array_equal(cand, theta):
            return None
        cand_loss, aux = trial(cand)
        if cand_loss <= loss + 1e-4 * float(g @ (cand - theta)):
            return lr, cand, cand_loss, aux
        lr *= 0.5
    return None


def fit_to_grid(arch: NetworkArchitecture, theta0: np.ndarray,
                control_field: np.ndarray, lattice, steps, m_bound: float,
                trigger: float = 1e-3, max_steps: int = 10_000):
    """Least-squares fit of the network to a grid control field by
    ``backtracking_step`` from ``theta0`` clipped into the box |theta_j| <=
    m_bound, so every iterate stays in the box and the loss never rises.
    Stops when an accepted step lowers the loss by less than ``trigger``,
    when no step is accepted, or after ``max_steps``; returns the last
    accepted theta and its loss.  The gradient at an accepted trial is
    ``vjp`` on that trial's cached forward pass.
    """
    inputs, targets = _fit_dataset(arch, control_field, lattice, steps)
    theta = np.clip(theta0, -m_bound, m_bound)
    loss, g = grad_fit_loss_raw(arch, theta, inputs, targets)

    def trial(cand):
        fw = _forward_cached(arch, cand, inputs)
        resid = fw[0] - targets
        return float(np.sum(resid ** 2)), (fw, resid)

    lr = FIRST_STEP
    for _ in range(max_steps):
        step = backtracking_step(trial, theta, loss, g, lr, m_bound)
        if step is None:
            break
        lr, theta, new_loss, (fw, resid) = step
        g = vjp(arch, fw, 2.0 * resid)
        lr = min(lr * 1.5, 1.0)
        loss, decrement = new_loss, loss - new_loss
        if decrement < trigger:
            break
    return theta, loss


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, arch: NetworkArchitecture, theta: np.ndarray) -> None:
    """Parameter CSV plus a sidecar recording the architecture."""
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(theta):
            fh.write(f"{i},{v:.17g}\n")
    with open(str(path) + ".arch", "w") as fh:
        fh.write(f"state_dim={arch.state_dim}\n")
        fh.write(f"control_dim={arch.control_dim}\n")
        fh.write(f"hidden={','.join(str(w) for w in arch.hidden)}\n")
        fh.write(f"horizon={arch.horizon:.17g}\n")
        for name in ("x_lower", "x_upper", "u_lower", "u_upper"):
            vals = getattr(arch, name)
            fh.write(f"{name}={','.join(f'{v:.17g}' for v in vals)}\n")


def load_checkpoint(path):
    """Inverse of save_checkpoint; round-trips bit-exactly."""
    fields = {}
    with open(str(path) + ".arch") as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            fields[key] = val
    arch = NetworkArchitecture(
        state_dim=int(fields["state_dim"]),
        control_dim=int(fields["control_dim"]),
        hidden=tuple(int(w) for w in fields["hidden"].split(",") if w),
        horizon=float(fields["horizon"]),
        x_lower=tuple(float(v) for v in fields["x_lower"].split(",")),
        x_upper=tuple(float(v) for v in fields["x_upper"].split(",")),
        u_lower=tuple(float(v) for v in fields["u_lower"].split(",")),
        u_upper=tuple(float(v) for v in fields["u_upper"].split(",")),
    )
    values = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            values.append(float(line.split(",")[1]))
    return arch, np.array(values)
