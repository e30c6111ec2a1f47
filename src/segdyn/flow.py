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
from dataclasses import dataclass, fields
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
    "advance",
    "advance_many",
    "sample_path",
    "walk_open_rows",
    "jacobian_norms",
    "model_from_json",
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
    """Fixed-step RK4 settings. ``step`` is the maximum step size."""

    step: float = 1e-3

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")


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


FlowModel = Union[LinearDiagonal, Lorenz, QuadraticGeneric]

_MODEL_IDS = {
    "LinearDiagonal": LinearDiagonal,
    "Lorenz": Lorenz,
    "QuadraticGeneric": QuadraticGeneric,
}


def _substep_count(duration: float, max_step: float) -> int:
    # Equal substeps no longer than max_step; the 1e-9 slack keeps an exact
    # multiple of the step from picking up a spurious extra substep.
    return max(1, math.ceil(duration / max_step - 1e-9))


# the row budget of a batch walk: calibration walks at most this many probe
# rows at a time, the rejection sampler takes cells in groups whose
# first-round draws add up to at most this many points, and the itinerary
# walk advances this many starts at a time. The (3, M) RK4 kernel holds 13 M
# doubles, 852 kB here, so its batches stay within a 1 MB L2 cache.
_BLOCK_ROWS = 1 << 13

# the coordinate offset of jacobian_norms' central differences
_FD_STEP = 1e-5

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


def _checked_steps(step, y: Array, y0: Array, n_steps: int, dt: float, t_start: float) -> None:
    """n_steps calls of step, which advances the (d, M) batch y by dt in
    place, checking finiteness every _FINITE_CHECK_EVERY substeps.

    Each block starts by copying y into y0, a buffer of its shape, and a
    block that ends non-finite is rerun from it one checked substep at a
    time, so the BlowupError names the substep and the first row exactly.
    """
    # overflow surfaces as a non-finite state, caught below; silence the
    # intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(0, n_steps, _FINITE_CHECK_EVERY):
            np.copyto(y0, y)
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


def _as_batch(model: FlowModel, states) -> Array:
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != model.dimension:
        raise ValueError(f"states have shape {states.shape}, model expects (M, {model.dimension})")
    return states


class _LiveRows:
    """The live states of one batch integration (a :func:`walk_open_rows`
    walk, a :func:`sample_path` path or one :func:`advance_many` call), held
    coordinate-first as a (d, width) view of the first d * width entries of
    a buffer allocated once, beside a spare of the same size. ``states`` is
    their (width, d) view. The spare holds the finiteness check's copy
    while the rows advance, and dropping rows gathers the survivors into it.

    RK4's stage, acc and k are allocated for each interval and freed before
    the walk's visit, which can then reuse their memory: held through the
    visits too, they raised the benchmark's peak resident set by 0.36 MB
    and saved no time."""

    def __init__(self, states: Array):
        m, d = states.shape
        self.dimension = d
        self.buffers = list(np.empty((2, m * d)))
        self._resize(m)
        np.copyto(self.yt, states.T)

    def _resize(self, width: int) -> None:
        self.yt = self.buffers[0][:self.dimension * width].reshape(self.dimension, width)
        self.spare = self.buffers[1][:self.dimension * width].reshape(self.dimension, width)
        self.states = self.yt.T

    def advance(self, model: FlowModel, dt: float, n_steps: int, t_start: float) -> None:
        """n_steps RK4 substeps of dt, in place; a BlowupError names the
        column and the time counted from t_start."""
        _checked_steps(_rk4_kernel(model, self.yt, dt), self.yt, self.spare, n_steps, dt,
                       t_start)

    def keep(self, cols: Array) -> None:
        """Keep only the live columns cols (ascending), moved to the front."""
        d, width = self.dimension, cols.shape[0]
        np.take(self.yt, cols, axis=1, out=self.buffers[1][:d * width].reshape(d, width),
                mode="clip")
        self.buffers.reverse()
        self._resize(width)


def advance_many(model: FlowModel, states: Array, t: float, cfg: IntegratorConfig,
                 t_start: float = 0.0, *, _live: _LiveRows | None = None) -> Array:
    """Numerical F^t applied to a batch of points, shape (M, d) -> (M, d),
    into a new C-contiguous array; states itself is never written.

    The batch is advanced in buffers of its own (:class:`_LiveRows`), or,
    when ``_live`` is given, in a walk's buffers, whose ``states`` view is
    passed as states: that batch is advanced in place, and states is
    returned."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    states = _as_batch(model, states)
    if t == 0:
        return states if _live is not None else states.copy()
    n = _substep_count(t, cfg.step)
    live = _LiveRows(states) if _live is None else _live
    live.advance(model, t / n, n, t_start)
    return states if _live is not None else np.ascontiguousarray(live.states)


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
    live = _LiveRows(states)
    for k in range(1, n_samples):
        live.advance(model, dt_grid / n_sub, n_sub, times[k - 1])
        out[:, k] = live.states
    return times, out


def walk_open_rows(model: FlowModel, states: Array, interval: float, n_intervals: int,
                   cfg: IntegratorConfig, visit, times: Array | None = None) -> int:
    """Advance a batch along the grid 0, interval, ..., n_intervals * interval,
    integrating only the rows whose answer is still open.

    At grid point k, visit(k, rows, y) gets the caller's indices of the open
    rows (ascending) and their states, and returns a boolean mask of the
    rows it has decided, or None. A decided row is never visited again.
    No model's rows depend on each other, so decided rows leave the batch
    and the walk ends when none is open.

    After the visit at t = 0, the walk allocates its buffer once
    (:class:`_LiveRows`), for the rows still open: their states are held
    coordinate-first and moved to the front as rows leave, and from k = 1
    on y is an (M, d) view of them, valid only during the visit. Each
    interval is one :func:`advance_many` call with the substeps of
    :func:`sample_path`; a BlowupError there names the caller's row and
    the time counted from times[k - 1], which defaults to
    (k - 1) * interval, so the time is the orbit's, not the interval's. A
    caller that walks its rows in blocks offsets the row itself; when rows
    of several blocks blow up, the first such block's row is named, and the
    exit code stays 2. Returns the number of rows that left the batch
    before the last grid point; an empty batch is never visited.
    """
    if not 0 <= interval < math.inf:
        raise ValueError(f"interval must be nonnegative and finite, got {interval}")
    y = _as_batch(model, states)
    if y.shape[0] == 0:
        return 0
    rows = np.arange(y.shape[0])

    # allocated once the rows still open after t = 0 are known, so that the
    # first visit runs beside no buffer
    live = None
    dropped = 0
    for k in range(n_intervals + 1):
        if k:
            if live is None:
                live = _LiveRows(y)
                y = live.states
            try:
                advance_many(model, y, interval, cfg,
                             t_start=(k - 1) * interval if times is None else times[k - 1],
                             _live=live)
            except BlowupError as err:
                raise BlowupError(time=err.time, batch_index=int(rows[err.batch_index])) from None
        done = visit(k, rows, y)
        if done is None or not np.any(done):
            continue
        if k == n_intervals:
            break
        kept = np.flatnonzero(~np.asarray(done, dtype=bool))
        dropped += rows.shape[0] - kept.shape[0]
        if kept.shape[0] == 0:
            break
        rows = rows[kept]
        if live is None:
            y = y[kept]
        else:
            live.keep(kept)
            y = live.states
    return dropped


def jacobian_norms(model: FlowModel, points: Array, t: float, cfg: IntegratorConfig) -> Array:
    """Operator 2-norm of the finite-difference Jacobian of F^t at each point.

    Central differences: column j of the Jacobian comes from perturbing
    coordinate j by +-_FD_STEP and advancing both copies.
    """
    points = _as_batch(model, points)
    m, d = points.shape
    eye = np.eye(d) * _FD_STEP
    # Layout: [p0+e0, p0-e0, p0+e1, ...] for each point, one batched advance.
    perturbed = np.empty((m, d, 2, d))
    perturbed[:, :, 0, :] = points[:, None, :] + eye[None, :, :]
    perturbed[:, :, 1, :] = points[:, None, :] - eye[None, :, :]
    images = advance_many(model, perturbed.reshape(-1, d), t, cfg).reshape(m, d, 2, d)
    jac = (images[:, :, 0, :] - images[:, :, 1, :]) / (2.0 * _FD_STEP)
    # jac[m, j, :] is dF/dx_j, i.e. the transpose of the Jacobian matrix.
    return np.linalg.svd(np.swapaxes(jac, 1, 2), compute_uv=False)[:, 0]


def model_from_json(doc: dict) -> FlowModel:
    """Build a model from {"model_id": ..., "dimension": ..., "parameters": {...}}.
    A misspelt field or parameter is refused, not run as its default."""
    if type(doc) is not dict:
        raise ValueError(f"expected an object, got {doc!r}")
    unknown = sorted(set(doc) - {"model_id", "dimension", "parameters"})
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(map(json.dumps, unknown))}")
    if "model_id" not in doc:
        raise ValueError("model document missing 'model_id'")
    model_id = doc["model_id"]
    if model_id not in _MODEL_IDS:
        raise ValueError(f"unknown model_id {model_id!r}; expected one of {sorted(_MODEL_IDS)}")
    params = doc.get("parameters", {})
    if type(params) is not dict:
        raise ValueError(f"parameters: expected an object, got {params!r}")
    unknown = sorted(set(params) - {f.name for f in fields(_MODEL_IDS[model_id])})
    if unknown:
        raise ValueError(
            f"unknown {model_id} parameters: {', '.join(map(json.dumps, unknown))}")
    declared = doc.get("dimension")
    if declared is not None and type(declared) is not int:
        raise ValueError(f"dimension {declared!r} is not a JSON integer")
    if model_id == "LinearDiagonal":
        model: FlowModel = LinearDiagonal(rates=_json_numbers("rates", params["rates"]))
    elif model_id == "Lorenz":
        model = Lorenz(**{name: _json_number(name, params.get(name, default))
                          for name, default in (("sigma", 10.0), ("rho", 28.0),
                                                ("beta", 8.0 / 3.0))})
    else:
        model = QuadraticGeneric(**{name: _json_numbers(name, params[name])
                                    for name in ("linear", "quadratic", "forcing")})
    if declared is not None and declared != model.dimension:
        raise ValueError(
            f"declared dimension {declared} does not match parameters ({model.dimension})")
    return model


# the largest JSON integer a count, a cell id or an integer config field may hold
_INT64_MAX = 2 ** 63 - 1


def _finite_number(value) -> bool:
    """Whether value is a JSON number, not a boolean, that a float holds
    finitely."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _json_number(name: str, value) -> float:
    """A config value that must be a finite JSON number; a boolean or a
    string is refused, not converted."""
    if not _finite_number(value):
        raise ValueError(f"{name}: {json.dumps(value)} is not a finite JSON number")
    return float(value)


def _json_numbers(name: str, value) -> Array:
    """The float array of a value given as nested lists of finite JSON
    numbers (a model parameter, a domain bound, the initial points), each
    checked as :func:`_json_number` checks one."""
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is list:
            pending.extend(item)
        else:
            _json_number(name, item)
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # numpy's message would not name the parameter
        raise ValueError(f"{name}: nested lists of unequal lengths") from None
