"""ODE models and the time-t flow map via fixed-step RK4 integration.

All models expose a vectorized right-hand side: ``rhs`` accepts arrays of
shape (..., d) and returns the same shape. Each also binds an in-place rhs
to coordinate-first (d, M) buffers (``bind_rhs``), and one RK4 kernel
integrates every batch through it, whole batches of points in lockstep.
Each point's rhs reads only that point, and fixed time steps make every
result bit-reproducible, whatever batch a point is integrated in.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Union

import numpy as np

from .errors import BlowupError

Array = np.ndarray

__all__ = [
    "IntegratorConfig",
    "LinearDiagonal",
    "Lorenz",
    "QuadraticGeneric",
    "FlowModel",
    "TrajectorySample",
    "advance",
    "advance_many",
    "sample_trajectory",
    "sample_path",
    "walk_open_rows",
    "jacobian_norm",
    "jacobian_norms",
    "model_from_json",
    "model_to_json",
    "load_model",
]


def _as_vector(x, name: str = "state") -> Array:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings. ``step`` is the maximum step size."""

    step: float = 1e-3
    scheme: str = "rk4"

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.scheme.lower() != "rk4":
            raise ValueError(f"unsupported scheme {self.scheme!r}; only 'rk4' is available")


@dataclass(frozen=True, eq=False)
class LinearDiagonal:
    """Decoupled linear decay, dx_i/dt = -rates_i * x_i."""

    rates: Array
    model_id: ClassVar[str] = "LinearDiagonal"

    def __post_init__(self):
        object.__setattr__(self, "rates", _as_vector(self.rates, "rates"))
        # negated once: -rates * x is (-rates) * x, and negation is exact
        object.__setattr__(self, "_neg_rates", -self.rates)

    @property
    def dimension(self) -> int:
        return self.rates.shape[0]

    def rhs(self, x: Array) -> Array:
        return self._neg_rates * x

    def bind_rhs(self, *pairs: tuple[Array, Array]) -> list:
        """:meth:`rhs` of coordinate-first (d, M) batches: one call per
        (xt, out) pair of buffers, each writing the rhs of xt into out.

        Each coordinate is one product with its rate as a 0-d array: a
        (d, 1) column would be broadcast on every call, and a (d, M) copy
        adds an operand to stream through memory on wide batches.
        """
        rates = [np.array(r) for r in self._neg_rates]

        def bind(xt: Array, out: Array):
            rows = [partial(np.multiply, r, x, o) for r, x, o in zip(rates, xt, out)]
            if len(rows) == 1:      # d = 1: the product itself, with no loop around it
                return rows[0]

            def rhs() -> None:
                for row in rows:
                    row()
            return rhs

        return [bind(xt, out) for xt, out in pairs]

    def parameters(self) -> dict:
        return {"rates": self.rates.tolist()}


@dataclass(frozen=True, eq=False)
class Lorenz:
    """The Lorenz system; defaults are the canonical chaotic parameters."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    model_id: ClassVar[str] = "Lorenz"

    @property
    def dimension(self) -> int:
        return 3

    def rhs(self, x: Array) -> Array:
        out = np.empty_like(x)
        out[..., 0] = self.sigma * (x[..., 1] - x[..., 0])
        out[..., 1] = x[..., 0] * (self.rho - x[..., 2]) - x[..., 1]
        out[..., 2] = x[..., 0] * x[..., 1] - self.beta * x[..., 2]
        return out

    def bind_rhs(self, *pairs: tuple[Array, Array]) -> list:
        """:meth:`rhs` of coordinate-first (3, M) batches: one call per
        (xt, out) pair of buffers, each writing the rhs of xt into out with
        the same operations."""
        sigma, rho, beta = (np.array(v, dtype=float) for v in (self.sigma, self.rho, self.beta))
        scratch = np.empty(pairs[0][0].shape[1])
        sub, mul = np.subtract, np.multiply

        def bind(xt: Array, out: Array):
            x0, x1, x2 = xt
            o0, o1, o2 = out

            def rhs() -> None:
                sub(x1, x0, o0)
                mul(o0, sigma, o0)
                sub(rho, x2, scratch)
                mul(scratch, x0, scratch)
                sub(scratch, x1, o1)
                mul(x0, x1, o2)
                mul(beta, x2, scratch)
                sub(o2, scratch, o2)
            return rhs

        return [bind(xt, out) for xt, out in pairs]

    def parameters(self) -> dict:
        return {"sigma": self.sigma, "rho": self.rho, "beta": self.beta}


@dataclass(frozen=True, eq=False)
class QuadraticGeneric:
    """Generic quadratic vector field dx/dt = L x + Q(x, x) + f.

    Subsumes low-mode Galerkin truncations of fluid models: supply the linear
    matrix, the quadratic interaction tensor (Q[i, j, k] multiplies x_j x_k),
    and a constant forcing vector.
    """

    linear: Array
    quadratic: Array
    forcing: Array
    model_id: ClassVar[str] = "QuadraticGeneric"

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=float)
        Q = np.asarray(self.quadratic, dtype=float)
        f = np.asarray(self.forcing, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError(f"linear part must be square, got shape {L.shape}")
        d = L.shape[0]
        if Q.shape != (d, d, d):
            raise ValueError(f"quadratic tensor must have shape ({d},{d},{d}), got {Q.shape}")
        if f.shape != (d,):
            raise ValueError(f"forcing must have shape ({d},), got {f.shape}")
        for name, arr in (("linear", L), ("quadratic", Q), ("forcing", f)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "quadratic", Q)
        object.__setattr__(self, "forcing", f)
        # per output coordinate: its forcing and nonzero terms (j, k, c), first
        # c x_j (k None), then c x_j x_k for j <= k, Q[i, j, k] + Q[i, k, j] if j < k
        triads = np.triu(Q + Q.transpose(0, 2, 1), 1) + Q * np.eye(d)
        object.__setattr__(self, "_terms", [
            (np.array(f[i]), [(j, None, np.array(L[i, j])) for j in np.flatnonzero(L[i])]
             + [(j, k, np.array(triads[i, j, k])) for j, k in np.argwhere(triads[i])])
            for i in range(d)])

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    def rhs(self, x: Array) -> Array:
        """The field at x, shape (..., d): :meth:`bind_rhs` on a transposed copy."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise ValueError(f"x has shape {x.shape}, model expects (..., {self.dimension})")
        xt = np.ascontiguousarray(x.reshape(-1, self.dimension).T)
        out = np.empty_like(xt)
        self.bind_rhs((xt, out))[0]()
        return out.T.reshape(x.shape)

    def bind_rhs(self, *pairs: tuple[Array, Array]) -> list:
        """:meth:`rhs` of coordinate-first (d, M) batches, one call per
        (xt, out) pair: each output row starts from its forcing and adds its
        terms in table order through one scratch row. A term reads only its
        own column, so a point's bits do not depend on its batch."""
        scratch = np.empty(pairs[0][0].shape[1])
        mul, add = np.multiply, np.add

        def bind(xt: Array, out: Array):
            ops = []
            for o, (f, terms) in zip(out, self._terms):
                ops.append(partial(np.copyto, o, f))
                for j, k, c in terms:
                    ops.append(partial(mul, xt[j], c, scratch))
                    if k is not None:
                        ops.append(partial(mul, scratch, xt[k], scratch))
                    ops.append(partial(add, o, scratch, o))

            def rhs() -> None:
                for op in ops:
                    op()
            return rhs

        return [bind(xt, out) for xt, out in pairs]

    def parameters(self) -> dict:
        return {
            "linear": self.linear.tolist(),
            "quadratic": self.quadratic.tolist(),
            "forcing": self.forcing.tolist(),
        }


FlowModel = Union[LinearDiagonal, Lorenz, QuadraticGeneric]

_MODEL_IDS = {
    "LinearDiagonal": LinearDiagonal,
    "Lorenz": Lorenz,
    "QuadraticGeneric": QuadraticGeneric,
}


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """States of one orbit on a uniform time grid starting at t=0."""

    times: Array
    states: Array

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.shape[0]:
            raise ValueError(f"inconsistent trajectory shapes {t.shape} vs {s.shape}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _substep_count(duration: float, max_step: float) -> int:
    # Equal substeps no longer than max_step; the 1e-9 slack keeps an exact
    # multiple of the step from picking up a spurious extra substep.
    return max(1, math.ceil(duration / max_step - 1e-9))


# substeps between finiteness checks; a substep adds to the state, so a
# non-finite entry never turns finite again and the check at the end of a
# block sees any blow-up inside it
_FINITE_CHECK_EVERY = 16


def _rk4_kernel(model, yt: Array, dt: float):
    """A call that advances the coordinate-first (d, M) batch yt by one RK4
    step of dt, in place.

    It makes the scalar operations of the classic row-major step on
    ``model.rhs`` in the same order, ((k1 + 2 k2) + 2 k3) + k4 included, so
    the results are bitwise equal; only the operand order of commutative
    products and sums differs. The constants are 0-d arrays and the buffers
    are bound once, because on narrow batches a ufunc call's fixed cost
    outweighs its arithmetic.
    """
    h, full, w, two = (np.array(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))
    stage, acc, k = np.empty_like(yt), np.empty_like(yt), np.empty_like(yt)
    k1, kn = model.bind_rhs((yt, acc), (stage, k))
    add, mul = np.add, np.multiply

    def step() -> None:
        k1()                        # acc = k1
        mul(acc, h, stage)
        add(stage, yt, stage)
        kn()                        # k = k2
        mul(k, h, stage)
        add(stage, yt, stage)
        mul(k, two, k)
        add(acc, k, acc)            # k1 + 2 k2
        kn()                        # k3
        mul(k, full, stage)
        add(stage, yt, stage)
        mul(k, two, k)
        add(acc, k, acc)            # + 2 k3
        kn()                        # k4
        add(acc, k, acc)
        mul(acc, w, acc)
        add(yt, acc, yt)

    return step


def _checked_steps(step, y: Array, n_steps: int, dt: float, t_start: float) -> None:
    """n_steps calls of step, which advances the (d, M) batch y by dt in
    place, checking finiteness every _FINITE_CHECK_EVERY substeps.

    A block that ends non-finite is rerun one checked substep at a time
    from its start, so the BlowupError names the substep and the first row
    exactly.
    """
    # overflow surfaces as a non-finite state, caught below; silence the
    # intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(0, n_steps, _FINITE_CHECK_EVERY):
            y0 = y.copy()
            for _ in range(min(_FINITE_CHECK_EVERY, n_steps - block)):
                step()
            if not np.all(np.isfinite(y)):
                np.copyto(y, y0)
                for i in range(block, n_steps):
                    step()
                    finite = np.all(np.isfinite(y), axis=0)
                    if not np.all(finite):
                        raise BlowupError(time=t_start + (i + 1) * dt,
                                          batch_index=int(np.flatnonzero(~finite)[0]))


def _rk4(model: FlowModel, states: Array, dt: float, n_steps: int, t_start: float = 0.0) -> Array:
    """n_steps RK4 substeps of dt from the (M, d) batch states, into a new
    array; states itself is never written."""
    yt = states.T.copy()
    _checked_steps(_rk4_kernel(model, yt, dt), yt, n_steps, dt, t_start)
    return np.ascontiguousarray(yt.T)


def _as_batch(model: FlowModel, states) -> Array:
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != model.dimension:
        raise ValueError(f"states have shape {states.shape}, model expects (M, {model.dimension})")
    return states


def advance_many(model: FlowModel, states: Array, t: float, cfg: IntegratorConfig,
                 t_start: float = 0.0) -> Array:
    """Numerical F^t applied to a batch of points, shape (M, d) -> (M, d)."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    states = _as_batch(model, states)
    if t == 0:
        return states.copy()
    n = _substep_count(t, cfg.step)
    return _rk4(model, states, t / n, n, t_start=t_start)


def advance(model: FlowModel, x, t: float, cfg: IntegratorConfig) -> Array:
    """Numerical F^t(x) for a single point; t=0 returns x unchanged."""
    x = _as_vector(x)
    if x.shape[0] != model.dimension:
        raise ValueError(f"state has dimension {x.shape[0]}, model expects {model.dimension}")
    return advance_many(model, x[None, :], t, cfg)[0]


def sample_path(model: FlowModel, states: Array, horizon: float, n_samples: int,
                cfg: IntegratorConfig) -> tuple[Array, Array]:
    """Advance a batch along a uniform grid over [0, horizon] in one pass.

    Returns (times of shape (K,), states of shape (M, K, d)). Each grid
    interval continues from the previous grid state, so the whole path is a
    single continuous integration.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    states = _as_batch(model, states)
    times = np.linspace(0.0, horizon, n_samples)
    dt_grid = horizon / (n_samples - 1)
    n_sub = _substep_count(dt_grid, cfg.step)
    out = np.empty((states.shape[0], n_samples, states.shape[1]))
    out[:, 0] = states
    y = states
    for k in range(1, n_samples):
        y = _rk4(model, y, dt_grid / n_sub, n_sub, t_start=times[k - 1])
        out[:, k] = y
    return times, out


def walk_open_rows(model: FlowModel, states: Array, interval: float, n_intervals: int,
                   cfg: IntegratorConfig, visit, times: Array | None = None) -> int:
    """Advance a batch along the grid 0, interval, ..., n_intervals * interval,
    integrating only the rows whose answer is still open.

    At grid point k, visit(k, rows, y) gets the caller's indices of the open
    rows (ascending) and their states, and returns a boolean mask of the
    rows it has decided, or None. A decided row is never visited again.
    No model's rows depend on each other, so decided rows leave the batch
    and the walk ends when none is open. Each interval is one
    :func:`advance_many` call with the substeps of :func:`sample_path`; a
    BlowupError there names the caller's row and the time counted from
    times[k - 1], which defaults to (k - 1) * interval, so the time is the
    orbit's, not the interval's. A caller that walks its rows in blocks
    offsets the row itself; when rows of several blocks blow up, the first
    such block's row is named, and the exit code stays 2. Returns the
    number of rows that left the batch before the last grid point; an
    empty batch is never visited.
    """
    if not 0 <= interval < math.inf:
        raise ValueError(f"interval must be nonnegative and finite, got {interval}")
    y = _as_batch(model, states)
    if y.shape[0] == 0:
        return 0
    rows = np.arange(y.shape[0])
    dropped = 0
    for k in range(n_intervals + 1):
        if k:
            try:
                y = advance_many(model, y, interval, cfg,
                                 t_start=(k - 1) * interval if times is None else times[k - 1])
            except BlowupError as err:
                raise BlowupError(time=err.time, batch_index=int(rows[err.batch_index])) from None
        done = visit(k, rows, y)
        if done is None or not np.any(done):
            continue
        done = np.asarray(done, dtype=bool)
        if k < n_intervals:
            dropped += int(np.count_nonzero(done))
        y, rows = y[~done], rows[~done]
        if rows.shape[0] == 0:
            break
    return dropped


def sample_trajectory(model: FlowModel, x, horizon: float, n_samples: int,
                      cfg: IntegratorConfig) -> TrajectorySample:
    """Sampled orbit of a single point on a uniform grid over [0, horizon]."""
    x = _as_vector(x)
    times, states = sample_path(model, x[None, :], horizon, n_samples, cfg)
    return TrajectorySample(times=times, states=states[0])


def jacobian_norms(model: FlowModel, points: Array, t: float, cfg: IntegratorConfig,
                   fd_step: float = 1e-5) -> Array:
    """Operator 2-norm of the finite-difference Jacobian of F^t at each point.

    Central differences: column j of the Jacobian comes from perturbing
    coordinate j by +-fd_step and advancing both copies.
    """
    if fd_step <= 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    points = _as_batch(model, points)
    m, d = points.shape
    eye = np.eye(d) * fd_step
    # Layout: [p0+e0, p0-e0, p0+e1, ...] for each point, one batched advance.
    perturbed = np.empty((m, d, 2, d))
    perturbed[:, :, 0, :] = points[:, None, :] + eye[None, :, :]
    perturbed[:, :, 1, :] = points[:, None, :] - eye[None, :, :]
    images = advance_many(model, perturbed.reshape(-1, d), t, cfg).reshape(m, d, 2, d)
    jac = (images[:, :, 0, :] - images[:, :, 1, :]) / (2.0 * fd_step)
    # jac[m, j, :] is dF/dx_j, i.e. the transpose of the Jacobian matrix.
    return np.linalg.svd(np.swapaxes(jac, 1, 2), compute_uv=False)[:, 0]


def jacobian_norm(model: FlowModel, x, t: float, cfg: IntegratorConfig,
                  fd_step: float = 1e-5) -> float:
    """Operator 2-norm of the finite-difference Jacobian of y -> F^t(y) at x."""
    x = _as_vector(x)
    return float(jacobian_norms(model, x[None, :], t, cfg, fd_step=fd_step)[0])


def model_from_json(doc: dict) -> FlowModel:
    """Build a model from {"model_id": ..., "dimension": ..., "parameters": {...}}."""
    if "model_id" not in doc:
        raise ValueError("model document missing 'model_id'")
    model_id = doc["model_id"]
    if model_id not in _MODEL_IDS:
        raise ValueError(f"unknown model_id {model_id!r}; expected one of {sorted(_MODEL_IDS)}")
    params = doc.get("parameters", {})
    if model_id == "LinearDiagonal":
        model: FlowModel = LinearDiagonal(rates=np.asarray(params["rates"], dtype=float))
    elif model_id == "Lorenz":
        model = Lorenz(
            sigma=float(params.get("sigma", 10.0)),
            rho=float(params.get("rho", 28.0)),
            beta=float(params.get("beta", 8.0 / 3.0)),
        )
    else:
        model = QuadraticGeneric(
            linear=np.asarray(params["linear"], dtype=float),
            quadratic=np.asarray(params["quadratic"], dtype=float),
            forcing=np.asarray(params["forcing"], dtype=float),
        )
    declared = doc.get("dimension")
    if declared is not None and int(declared) != model.dimension:
        raise ValueError(
            f"declared dimension {declared} does not match parameters ({model.dimension})")
    return model


def model_to_json(model: FlowModel) -> dict:
    return {
        "model_id": model.model_id,
        "dimension": model.dimension,
        "parameters": model.parameters(),
    }


def load_model(path) -> FlowModel:
    """Read a model definition from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
