import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdyn import (
    BlowupError,
    IntegratorConfig,
    LinearDiagonal,
    Lorenz,
    QuadraticGeneric,
    advance,
    advance_many,
    jacobian_norms,
    model_from_json,
)
from segdyn.flow import _MODEL_IDS, sample_path, walk_open_rows


@pytest.mark.parametrize("t", [0.5, 1.0, 1.37, 2.0])
def test_advance_linear_matches_closed_form(linear1, cfg, t):
    out = advance(linear1, [1.0], t, cfg)
    assert abs(out[0] - np.exp(-t)) <= 1e-8


def test_advance_t0_returns_input_exactly(lorenz, cfg):
    x = np.array([1.3, -2.7, 19.0])
    out = advance(lorenz, x, 0.0, cfg)
    assert np.array_equal(out, x)
    out[0] = 99.0
    assert x[0] == 1.3  # a copy, not a view


def test_lorenz_origin_is_equilibrium(lorenz, cfg):
    out = advance(lorenz, [0.0, 0.0, 0.0], 5.0, cfg)
    assert np.array_equal(out, np.zeros(3))


def test_advance_rejects_negative_time(linear1, cfg):
    with pytest.raises(ValueError, match="nonnegative"):
        advance(linear1, [1.0], -0.5, cfg)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_times_are_refused(linear1, cfg, bad):
    states = np.ones((2, 1))
    calls = {
        "t": lambda: advance_many(linear1, states, bad, cfg),
        "horizon": lambda: sample_path(linear1, states, bad, 3, cfg),
        "interval": lambda: walk_open_rows(linear1, states, bad, 2, cfg,
                                           lambda k, rows, y: None),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"^{name} must be .* finite, got {bad}$"):
                call()


def test_advance_rejects_nonfinite_state(linear1, cfg):
    with pytest.raises(ValueError, match="finite"):
        advance(linear1, [np.inf], 1.0, cfg)


def test_sample_path_closed_form(linear1, cfg):
    times, states = sample_path(linear1, [[1.0]], 1.0, 3, cfg)
    expected = np.array([1.0, np.exp(-0.5), np.exp(-1.0)])
    assert np.abs(states.ravel() - expected).max() <= 1e-8
    assert np.array_equal(times, [0.0, 0.5, 1.0])


def test_sample_path_two_samples_is_endpoints(linear1, cfg):
    _, states = sample_path(linear1, [[1.0]], 0.7, 2, cfg)
    assert np.array_equal(states[0, 0], [1.0])
    assert np.array_equal(states[0, 1], advance(linear1, [1.0], 0.7, cfg))


def test_lorenz_sampling_consistent_with_advance(lorenz, cfg):
    x0 = [1.0, 1.0, 1.0]
    _, states = sample_path(lorenz, [x0], 0.5, 6, cfg)
    direct = advance(lorenz, x0, 0.5, cfg)
    assert np.linalg.norm(states[0, -1] - direct) <= 1e-12


def test_jacobian_norm_linear(linear1, cfg):
    assert abs(jacobian_norms(linear1, [[0.4]], 1.0, cfg)[0] - np.exp(-1)) <= 1e-5


def test_jacobian_norm_t0_is_identity(lorenz, cfg):
    assert abs(jacobian_norms(lorenz, [[3.0, -1.0, 20.0]], 0.0, cfg)[0] - 1.0) <= 1e-9


def test_jacobian_norm_rotation_is_isometry(rotation2d, cfg):
    assert abs(jacobian_norms(rotation2d, [[0.3, 0.4]], 1.0, cfg)[0] - 1.0) <= 1e-5


@settings(max_examples=20, deadline=None)
@given(s=st.floats(0.01, 1.0), t=st.floats(0.01, 1.0))
def test_semigroup_linear(s, t):
    model = LinearDiagonal(rates=[1.0, 2.0])
    cfg = IntegratorConfig(step=1e-3)
    x = np.array([0.7, -0.3])
    two_leg = advance(model, advance(model, x, s, cfg), t, cfg)
    one_leg = advance(model, x, s + t, cfg)
    assert np.linalg.norm(two_leg - one_leg) <= 1e-8


def test_semigroup_lorenz(lorenz, cfg):
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.uniform([-15, -20, 5], [15, 20, 40])
        s, t = rng.uniform(0.05, 0.5, size=2)
        two_leg = advance(lorenz, advance(lorenz, x, s, cfg), t, cfg)
        one_leg = advance(lorenz, x, s + t, cfg)
        assert np.linalg.norm(two_leg - one_leg) <= 1e-6


def test_rk4_fourth_order_convergence(linear1):
    x0 = [1.0]
    exact = np.exp(-1.0)
    err_h = abs(advance(linear1, x0, 1.0, IntegratorConfig(step=0.1))[0] - exact)
    err_h2 = abs(advance(linear1, x0, 1.0, IntegratorConfig(step=0.05))[0] - exact)
    ratio = err_h / err_h2
    assert 8.0 <= ratio <= 32.0


def test_advance_is_bit_deterministic(lorenz, cfg):
    x = np.array([1.0, 1.0, 1.0])
    a = advance(lorenz, x, 0.3, cfg)
    b = advance(lorenz, x, 0.3, cfg)
    assert np.array_equal(a, b)


def test_blowup_reports_time_reached():
    model = QuadraticGeneric(linear=[[0.0]], quadratic=np.ones((1, 1, 1)), forcing=[0.0])
    cfg = IntegratorConfig(step=0.01)
    with pytest.raises(BlowupError, match="t~"):
        advance(model, [1.0], 2.0, cfg)  # dx/dt = x^2 escapes at t=1


def test_blowup_inside_a_check_block_reports_exact_step_and_row():
    # dx/dt = x^2: rows starting at 1.7 blow up first, at a substep that is
    # not a multiple of the finiteness-check block
    model = QuadraticGeneric(linear=[[0.0]], quadratic=np.ones((1, 1, 1)), forcing=[0.0])
    states = np.array([[0.1], [0.3], [1.7], [1.7], [0.2]])
    t, t_start, dt = 2.0, 0.5, 0.01
    y = states
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, 201):
            k1 = model.rhs(y)
            k2 = model.rhs(y + (0.5 * dt) * k1)
            k3 = model.rhs(y + (0.5 * dt) * k2)
            k4 = model.rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                break
    assert step % 16 != 0
    row = int(np.flatnonzero(~np.all(np.isfinite(y), axis=-1))[0])
    with pytest.raises(BlowupError) as exc:
        advance_many(model, states, t, IntegratorConfig(step=dt), t_start=t_start)
    assert exc.value.time == t_start + step * dt
    assert exc.value.batch_index == row == 2


def test_batch_advance_matches_scalar(lorenz, cfg):
    pts = np.array([[1.0, 1.0, 1.0], [-3.0, 4.0, 20.0]])
    batch = advance_many(lorenz, pts, 0.25, cfg)
    for i, p in enumerate(pts):
        assert np.array_equal(batch[i], advance(lorenz, p, 0.25, cfg))


@pytest.mark.parametrize("model,shape", [
    (LinearDiagonal(rates=[1.0]), (4, 3)),
    (Lorenz(), (7, 2)),
    (Lorenz(), (600, 2)),
    (Lorenz(), (3,)),
    (Lorenz(), (2, 3, 1)),
])
def test_batch_of_the_wrong_shape_is_refused(cfg, model, shape):
    states = np.ones(shape)
    message = re.escape(f"states have shape {shape}, model expects (M, {model.dimension})")
    calls = [
        lambda: advance_many(model, states, 0.01, cfg),
        lambda: advance_many(model, states, 0.0, cfg),
        lambda: sample_path(model, states, 0.01, 3, cfg),
        lambda: walk_open_rows(model, states, 0.01, 2, cfg, lambda k, rows, y: None),
    ]
    if len(shape) == 2:
        calls.append(lambda: jacobian_norms(model, states, 0.01, cfg))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("model,shape", [
    (LinearDiagonal(rates=[0.7]), (6, 1)),
    (LinearDiagonal(rates=[0.7, -0.2, 1.5]), (1, 3)),
    (Lorenz(), (1, 3)),
    (QuadraticGeneric(linear=[[-1.0]], quadratic=[[[0.5]]], forcing=[0.1]), (6, 1)),
])
def test_integration_never_writes_the_callers_states(cfg, model, shape):
    # (M, 1) and (1, d) batches transpose to contiguous views of themselves
    states = np.random.default_rng(5).uniform(-1.0, 1.0, size=shape)
    before = states.copy()
    out = advance_many(model, states, 0.05, cfg)
    assert not np.shares_memory(out, states)
    _, path = sample_path(model, states, 0.05, 3, cfg)
    seen = []

    def visit(k, rows, y):
        seen.append(y.copy())
        return None

    walk_open_rows(model, states, 0.025, 2, cfg, visit)
    assert np.array_equal(states, before)
    assert np.array_equal(seen[-1], path[:, -1])


@pytest.mark.parametrize("model", [LinearDiagonal(rates=[1.0, 2.0]), Lorenz(),
                                   QuadraticGeneric(linear=np.eye(2), quadratic=np.zeros((2, 2, 2)),
                                                    forcing=[0.0, 0.0])])
def test_empty_batch_keeps_its_shape(cfg, model):
    d = model.dimension
    assert advance_many(model, np.empty((0, d)), 0.05, cfg).shape == (0, d)
    assert sample_path(model, np.empty((0, d)), 0.05, 3, cfg)[1].shape == (0, 3, d)


def test_model_json_roundtrip():
    cases = [
        (LinearDiagonal(rates=[1.0, 0.5]),
         {"model_id": "LinearDiagonal", "dimension": 2, "parameters": {"rates": [1.0, 0.5]}}),
        (Lorenz(sigma=10.0, rho=28.0, beta=8.0 / 3.0),
         {"model_id": "Lorenz", "dimension": 3,
          "parameters": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}}),
        (QuadraticGeneric(linear=[[0.0, -1.0], [1.0, 0.0]],
                          quadratic=np.zeros((2, 2, 2)), forcing=[0.1, 0.0]),
         {"model_id": "QuadraticGeneric", "dimension": 2,
          "parameters": {"linear": [[0.0, -1.0], [1.0, 0.0]],
                         "quadratic": np.zeros((2, 2, 2)).tolist(), "forcing": [0.1, 0.0]}}),
    ]
    for model, doc in cases:
        back = model_from_json(json.loads(json.dumps(doc)))
        assert back.model_id == model.model_id
        assert back.dimension == model.dimension
        x = np.linspace(0.1, 0.9, model.dimension)
        assert np.array_equal(back.rhs(x), model.rhs(x))


def test_model_json_validation():
    with pytest.raises(ValueError, match="model_id"):
        model_from_json({"parameters": {}})
    with pytest.raises(ValueError, match="unknown model_id"):
        model_from_json({"model_id": "Rossler"})
    with pytest.raises(ValueError, match="dimension"):
        model_from_json({"model_id": "Lorenz", "dimension": 4, "parameters": {}})


def test_quadratic_shape_validation():
    with pytest.raises(ValueError, match="square"):
        QuadraticGeneric(linear=[[1.0, 0.0]], quadratic=np.zeros((1, 1, 1)), forcing=[0.0])
    with pytest.raises(ValueError, match="quadratic"):
        QuadraticGeneric(linear=[[1.0]], quadratic=np.zeros((2, 2, 2)), forcing=[0.0])


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="step"):
        IntegratorConfig(step=0.0)


# ---- every model on the one (d, M) kernel ---------------------------------

def einsum_rhs(model, x):
    """L x + Q(x, x) + f through a dense einsum over every coefficient: the
    arithmetic QuadraticGeneric had before its term table, kept here as an
    oracle independent of that table."""
    lin = x @ model.linear.T
    quad = np.einsum("ijk,...j,...k->...i", model.quadratic, x, x)
    return lin + quad + model.forcing


def einsum_scale(model, x):
    """Sum of the magnitudes of every term of einsum_rhs at x."""
    ax = np.abs(x)
    return (ax @ np.abs(model.linear).T + np.abs(model.forcing)
            + np.einsum("ijk,...j,...k->...i", np.abs(model.quadratic), ax, ax))


# rhs and bind_rhs against einsum_rhs: at most this many units of double
# rounding of einsum_scale (d <= 6 sums at most 28 terms)
ORACLE_RTOL = 64 * np.finfo(float).eps


def lorenz_as_quadratic(model):
    s, r, b = model.sigma, model.rho, model.beta
    quadratic = np.zeros((3, 3, 3))
    quadratic[1, 0, 2], quadratic[2, 0, 1] = -1.0, 1.0
    return QuadraticGeneric(linear=[[-s, s, 0.0], [r, -1.0, 0.0], [0.0, 0.0, -b]],
                            quadratic=quadratic, forcing=np.zeros(3))


def random_quadratic(rng, d, density=0.6):
    """Sparse random L, Q and f; Q is not symmetric in its last two indices,
    and for d > 1 one output coordinate has no term at all."""
    linear = rng.normal(size=(d, d)) * (rng.random((d, d)) < density)
    quadratic = rng.normal(size=(d, d, d)) * (rng.random((d, d, d)) < density)
    forcing = rng.normal(size=d) * (rng.random(d) < density)
    if d > 1:
        empty = rng.integers(d)
        linear[empty], quadratic[empty], forcing[empty] = 0.0, 0.0, 0.0
    return QuadraticGeneric(linear=linear, quadratic=quadratic, forcing=forcing)


def model_and_states(model_id, rng, d, width):
    """A random model of the given kind (Lorenz is always 3-d) and a batch
    of states that stays bounded over t = 0.2."""
    if model_id == "Lorenz":
        model = Lorenz(sigma=rng.uniform(5, 15), rho=rng.uniform(20, 35), beta=rng.uniform(1, 4))
        return model, rng.uniform([-20, -25, 0], [20, 25, 45], size=(width, 3))
    if model_id == "LinearDiagonal":
        return LinearDiagonal(rates=rng.uniform(-2, 5, size=d)), rng.normal(size=(width, d))
    if model_id == "QuadraticGeneric":
        return random_quadratic(rng, d), rng.uniform(-0.2, 0.2, size=(width, d))
    raise KeyError(f"no random {model_id} model")


def test_quadratic_term_table_cases():
    # an asymmetric pair Q[0, 0, 1] != Q[0, 1, 0], a square term, an output
    # with forcing only and one with no term at all
    quadratic = np.zeros((4, 4, 4))
    quadratic[0, 0, 1], quadratic[0, 1, 0], quadratic[1, 2, 2] = 2.0, -0.5, 3.0
    linear = np.zeros((4, 4))
    linear[0, 3], linear[1, 0] = -1.5, 0.25
    model = QuadraticGeneric(linear=linear, quadratic=quadratic, forcing=[0.0, 1.0, -2.0, 0.0])
    x = np.array([[0.5, -2.0, 1.5, 4.0], [np.inf, 1.0, 1.0, 1.0]])
    out = model.rhs(x[:1])
    assert np.array_equal(out, [[1.5 * 0.5 * -2.0 - 1.5 * 4.0, 0.25 * 0.5 + 3.0 * 2.25 + 1.0,
                                 -2.0, 0.0]])
    assert np.array_equal(model.rhs(x[0]), out[0])
    # an output with no term reads no coordinate
    assert model.rhs(x)[1, 3] == 0.0
    for shape in [(8,), (2, 3), ()]:
        with pytest.raises(ValueError, match=re.escape(f"x has shape {shape}, model expects")):
            model.rhs(np.ones(shape))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1,), (5,), (3, 4), (700,)]))
def test_quadratic_rhs_matches_the_einsum_oracle(d, seed, shape):
    rng = np.random.default_rng(seed)
    model = random_quadratic(rng, d)
    x = rng.normal(scale=3.0, size=shape + (d,))
    out = model.rhs(x)
    assert out.shape == x.shape
    assert np.all(np.abs(out - einsum_rhs(model, x)) <= ORACLE_RTOL * einsum_scale(model, x))
    xt = np.ascontiguousarray(x.reshape(-1, d).T)
    bound = np.full_like(xt, np.nan)
    model.bind_rhs((xt, bound))[0]()
    assert np.array_equal(bound.T.reshape(x.shape), out)


@pytest.mark.parametrize("model_id", sorted(_MODEL_IDS))
@pytest.mark.parametrize("width", [0, 1, 7, 600])
def test_bind_rhs_equals_rhs_bitwise(model_id, width):
    # two pairs bound at once, as the kernel binds them, sharing any scratch
    rng = np.random.default_rng(width)
    model, states = model_and_states(model_id, rng, 4, 2 * width)
    first, second = states[:width], states[width:]
    xs = [np.ascontiguousarray(first.T), np.ascontiguousarray(second.T)]
    outs = [np.full_like(xs[0], np.nan), np.full_like(xs[1], np.nan)]
    calls = model.bind_rhs(*zip(xs, outs))
    for call in calls[::-1]:
        call()
    assert np.array_equal(outs[0].T, model.rhs(first))
    assert np.array_equal(outs[1].T, model.rhs(second))


def test_lorenz_as_quadratic_matches_lorenz(cfg):
    # the two rhs differ only in the order of their roundings; over one
    # time unit on the attractor the orbits stay within 1e-9 of each other
    rng = np.random.default_rng(11)
    lorenz = Lorenz()
    states = advance_many(lorenz, rng.uniform([-15, -20, 5], [15, 20, 40], (64, 3)), 2.0, cfg)
    x = rng.normal(scale=10.0, size=(50, 3))
    assert np.allclose(lorenz_as_quadratic(lorenz).rhs(x), lorenz.rhs(x), rtol=0, atol=1e-12)
    got = advance_many(lorenz_as_quadratic(lorenz), states, 1.0, cfg)
    assert np.max(np.abs(got - advance_many(lorenz, states, 1.0, cfg))) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(model_id=st.sampled_from(sorted(_MODEL_IDS)), d=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), width=st.sampled_from([2, 33, 4096]))
def test_a_row_does_not_depend_on_its_batch(model_id, d, seed, width):
    # a row integrated alone equals the same row inside a wider batch, bit
    # for bit, through advance_many and through a walk that drops rows
    rng = np.random.default_rng(seed)
    model, states = model_and_states(model_id, rng, d, width)
    cfg = IntegratorConfig(step=0.01)
    row = int(rng.integers(width))
    alone = states[row:row + 1]
    assert np.array_equal(advance_many(model, states, 0.2, cfg)[row],
                          advance_many(model, alone, 0.2, cfg)[0])
    leave = rng.random((5, width)) < 0.3
    leave[:, row] = False
    seen, seen_alone = [], []

    def visit(k, rows, y):
        seen.append(y[np.searchsorted(rows, row)].copy())
        return leave[k, rows]

    walk_open_rows(model, states, 0.05, 4, cfg, visit)
    walk_open_rows(model, alone, 0.05, 4, cfg, lambda k, rows, y: seen_alone.append(y[0].copy()))
    assert np.array_equal(seen, seen_alone)
