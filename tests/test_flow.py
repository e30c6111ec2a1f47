import json
import re

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
    jacobian_norm,
    jacobian_norms,
    load_model,
    model_from_json,
    model_to_json,
    sample_trajectory,
)
from segdyn.flow import sample_path, walk_open_rows


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


def test_advance_rejects_nonfinite_state(linear1, cfg):
    with pytest.raises(ValueError, match="finite"):
        advance(linear1, [np.inf], 1.0, cfg)


def test_sample_trajectory_closed_form(linear1, cfg):
    traj = sample_trajectory(linear1, [1.0], 1.0, 3, cfg)
    expected = np.array([1.0, np.exp(-0.5), np.exp(-1.0)])
    assert np.abs(traj.states.ravel() - expected).max() <= 1e-8
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0])


def test_sample_trajectory_two_samples_is_endpoints(linear1, cfg):
    traj = sample_trajectory(linear1, [1.0], 0.7, 2, cfg)
    assert np.array_equal(traj.states[0], [1.0])
    assert np.array_equal(traj.states[1], advance(linear1, [1.0], 0.7, cfg))


def test_lorenz_sampling_consistent_with_advance(lorenz, cfg):
    x0 = [1.0, 1.0, 1.0]
    traj = sample_trajectory(lorenz, x0, 0.5, 6, cfg)
    direct = advance(lorenz, x0, 0.5, cfg)
    assert np.linalg.norm(traj.states[-1] - direct) <= 1e-12


def test_jacobian_norm_linear(linear1, cfg):
    assert abs(jacobian_norm(linear1, [0.4], 1.0, cfg) - np.exp(-1)) <= 1e-5


def test_jacobian_norm_t0_is_identity(lorenz, cfg):
    assert abs(jacobian_norm(lorenz, [3.0, -1.0, 20.0], 0.0, cfg) - 1.0) <= 1e-9


def test_jacobian_norm_rotation_is_isometry(rotation2d, cfg):
    assert abs(jacobian_norm(rotation2d, [0.3, 0.4], 1.0, cfg) - 1.0) <= 1e-5


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
    models = [
        LinearDiagonal(rates=[1.0, 0.5]),
        Lorenz(sigma=10.0, rho=28.0, beta=8.0 / 3.0),
        QuadraticGeneric(linear=[[0.0, -1.0], [1.0, 0.0]],
                         quadratic=np.zeros((2, 2, 2)), forcing=[0.1, 0.0]),
    ]
    for model in models:
        doc = model_to_json(model)
        back = model_from_json(doc)
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


def test_load_model_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(LinearDiagonal(rates=[2.0]))))
    model = load_model(path)
    assert model.model_id == "LinearDiagonal"
    assert np.array_equal(model.rates, [2.0])


def test_quadratic_shape_validation():
    with pytest.raises(ValueError, match="square"):
        QuadraticGeneric(linear=[[1.0, 0.0]], quadratic=np.zeros((1, 1, 1)), forcing=[0.0])
    with pytest.raises(ValueError, match="quadratic"):
        QuadraticGeneric(linear=[[1.0]], quadratic=np.zeros((2, 2, 2)), forcing=[0.0])


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="step"):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError, match="scheme"):
        IntegratorConfig(step=0.1, scheme="euler")
