"""The live-row walker and the (d, M) RK4 kernel against the loops they replace.

The reference functions below are the integrator, calibration, itinerary
and encoding loops as they were before rows could leave a batch: every row
is integrated over the whole grid through the textbook row-major RK4 step
on ``model.rhs``, every answer is read off at the end, and calibration walks
once per bisection round. The fast paths must reproduce them bit for bit.
The shadowing reference is the two-pass check: encode, then integrate each
word length's orbits again over the pseudo-orbit's grid.
"""
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from segdyn import (
    BlowupError,
    CalibrationError,
    Cover,
    IntegratorConfig,
    LinearDiagonal,
    Lorenz,
    Partition,
    QuadraticGeneric,
    advance_many,
    build_segments,
    calibrate_deltas,
    collocate,
    encode_many,
    reconstruct_pseudo_orbit,
    sample_itineraries,
    shadowing_error,
    shadowing_report,
)
from segdyn import transitions
from segdyn._rng import STREAM_CALIBRATION, derive_rng
from segdyn.config import load_config
from segdyn.cover import _SPECULATE_ROWS, _probe_directions, diameters
from segdyn.flow import sample_path, walk_open_rows
from segdyn.transitions import _draw_cell_starts, cell_itineraries

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---- reference loops ----------------------------------------------------

def _ref_rhs(model):
    if isinstance(model, LinearDiagonal):
        return lambda x: -model.rates * x
    return model.rhs


def ref_rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_rk4(model, states, dt, n_steps, t_start=0.0):
    f = _ref_rhs(model)
    y = states
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(0, n_steps, 16):
            y0 = y
            for _ in range(min(16, n_steps - block)):
                y = ref_rk4_step(f, y, dt)
            if not np.all(np.isfinite(y)):
                y = y0
                for i in range(block, n_steps):
                    y = ref_rk4_step(f, y, dt)
                    if not np.all(np.isfinite(y)):
                        bad = int(np.flatnonzero(~np.all(np.isfinite(y), axis=-1))[0]) \
                            if y.ndim > 1 else None
                        raise BlowupError(time=t_start + (i + 1) * dt, batch_index=bad)
    return y


def _substeps(duration, max_step):
    return max(1, int(np.ceil(duration / max_step - 1e-9)))


def ref_advance_many(model, states, t, cfg, t_start=0.0):
    states = np.asarray(states, dtype=float)
    n = _substeps(t, cfg.step)
    return ref_rk4(model, states, t / n, n, t_start=t_start)


def ref_sample_path(model, states, horizon, n_samples, cfg):
    states = np.asarray(states, dtype=float)
    times = np.linspace(0.0, horizon, n_samples)
    dt_grid = horizon / (n_samples - 1)
    n_sub = _substeps(dt_grid, cfg.step)
    out = np.empty((states.shape[0], n_samples, states.shape[1]))
    out[:, 0] = states
    y = states
    for k in range(1, n_samples):
        y = ref_rk4(model, y, dt_grid / n_sub, n_sub, t_start=times[k - 1])
        out[:, k] = y
    return times, out


def ref_calibrate_deltas(model, centers, horizon, epsilon, cfg, boundary_samples, *,
                         delta_max, delta_min=1e-9, time_samples=17, rel_tol=0.01, seed=0):
    centers = np.asarray(centers, dtype=float)
    n, d = centers.shape
    dirs = np.stack([_probe_directions(d, boundary_samples,
                                       derive_rng(seed, STREAM_CALIBRATION, i))
                     for i in range(n)])

    def evolved_diameters(c, deltas, dr):
        m, p, _ = dr.shape
        clouds = c[:, None, :] + deltas[:, None, None] * dr
        _, states = ref_sample_path(model, clouds.reshape(-1, d), horizon, time_samples, cfg)
        states = states.reshape(m, p, time_samples, d)
        return diameters(states.transpose(0, 2, 1, 3)).max(axis=1)

    def feasible(deltas, active):
        out = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(active)
        for start in range(0, idx.size, 256):
            part = idx[start:start + 256]
            out[part] = evolved_diameters(centers[part], deltas[part], dirs[part]) <= epsilon
        return out

    result = np.full(n, delta_max)
    todo = ~feasible(np.full(n, delta_max), np.ones(n, dtype=bool))
    if np.any(todo):
        floor_ok = feasible(np.full(n, delta_min), todo)
        bad = todo & ~floor_ok
        if np.any(bad):
            first = int(np.flatnonzero(bad)[0])
            raise CalibrationError(
                f"center {first + 1} at {centers[first].tolist()}: evolved-ball diameter "
                f"exceeds epsilon={epsilon} even at the minimum radius {delta_min}")
        lo, hi = np.full(n, delta_min), np.full(n, delta_max)
        active = todo.copy()
        for _ in range(200):
            if not np.any(active):
                break
            mid = np.sqrt(lo * hi)
            ok = feasible(mid, active)
            lo = np.where(active & ok, mid, lo)
            hi = np.where(active & ~ok, mid, hi)
            active &= (hi / lo) > 1.0 + rel_tol
        result[todo] = lo[todo]
    return result


def ref_sample_itineraries(model, partition, horizon, n_steps, samples_per_cell, cfg,
                           rng_seed):
    starts = _draw_cell_starts(partition, samples_per_cell, rng_seed)
    itins = np.zeros((starts.shape[0], n_steps + 1), dtype=np.int64)
    itins[:, 0] = np.repeat(np.arange(1, partition.n_cells + 1), samples_per_cell)
    states = starts
    for step in range(1, n_steps + 1):
        states = ref_advance_many(model, states, horizon, cfg)
        itins[:, step] = partition.assign_many(states)
    escaped = itins == 0
    if np.any(escaped):
        first = np.where(escaped.any(axis=1), escaped.argmax(axis=1), n_steps + 1)
        itins[np.arange(n_steps + 1)[None, :] >= first[:, None]] = 0
    return starts, itins


def ref_window_states(model, partition, x0s, length, horizon, cfg):
    states = np.asarray(x0s, dtype=float)
    cells = np.empty((states.shape[0], length), dtype=np.int64)
    cells[:, 0] = partition.assign_many(states)
    for j in range(1, length):
        states = ref_advance_many(model, states, horizon, cfg)
        cells[:, j] = partition.assign_many(states)
    return cells


def ref_shadowing_errors(model, x0s, pseudos, cfg):
    """Shadowing errors for a batch of orbits against same-grid pseudo-orbits."""
    grid = pseudos[0].times
    for p in pseudos[1:]:
        if p.times.shape != grid.shape or not np.array_equal(p.times, grid):
            raise ValueError("all pseudo-orbits must share one global grid")
    # The grid repeats junction times; integrate over the unique times and
    # compare each pseudo sample against the matching true state.
    unique_times, inverse = np.unique(grid, return_inverse=True)
    states = np.asarray(x0s, dtype=float)
    errors = np.zeros(states.shape[0])
    pstack = np.stack([p.states for p in pseudos])
    prev_t = 0.0
    for k, t in enumerate(unique_times):
        if t > prev_t:
            states = advance_many(model, states, t - prev_t, cfg, t_start=prev_t)
            prev_t = t
        for col in np.flatnonzero(inverse == k):
            dist = np.linalg.norm(pstack[:, col, :] - states, axis=1)
            np.maximum(errors, dist, out=errors)
    return errors


def ref_shadowing_report(model, lib, partition, x0s, length, cfg):
    x0s = np.asarray(x0s, dtype=float)
    words = encode_many(model, partition, x0s, length, lib.horizon, cfg)
    per_orbit = []
    by_length = {}
    for i, w in enumerate(words):
        if w is None or len(w) == 0:
            per_orbit.append({"x0": x0s[i].tolist(), "word_length": 0,
                              "complete": False, "error": None})
            continue
        per_orbit.append(None)
        by_length.setdefault(len(w), []).append(i)
    for wlen, rows in by_length.items():
        pseudos = [reconstruct_pseudo_orbit(lib, words[i]) for i in rows]
        errs = ref_shadowing_errors(model, x0s[rows], pseudos, cfg)
        for i, e in zip(rows, errs):
            per_orbit[i] = {"x0": x0s[i].tolist(), "word_length": len(words[i]),
                            "complete": words[i].complete, "error": float(e)}
    return per_orbit


def _zero_after_first_zero(cells):
    dead = np.cumsum(cells == 0, axis=1) > 0
    return np.where(dead, 0, cells)


# ---- the (d, M) kernel --------------------------------------------------

WIDTHS = [0, 1, 3, 511, 512, 549, 2000]


def _model_and_states(kind, width, seed, d):
    rng = np.random.default_rng(seed)
    if kind == "lorenz":
        model = Lorenz(sigma=rng.uniform(5, 15), rho=rng.uniform(20, 35),
                       beta=rng.uniform(1, 4))
        states = rng.uniform([-20, -25, 0], [20, 25, 45], size=(width, 3))
    else:
        model = LinearDiagonal(rates=rng.uniform(-2, 5, size=d))
        states = rng.normal(scale=3.0, size=(width, d))
    return model, states


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["lorenz", "linear"]), width=st.sampled_from(WIDTHS),
       seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 8, 9]),
       t=st.floats(0.001, 0.2), step=st.sampled_from([0.001, 0.003, 0.01]))
def test_kernel_matches_reference_bitwise(kind, width, seed, d, t, step):
    model, states = _model_and_states(kind, width, seed, d)
    cfg = IntegratorConfig(step=step)
    out = advance_many(model, states, t, cfg)
    assert out.flags.c_contiguous
    assert np.array_equal(out, ref_advance_many(model, states, t, cfg))
    times, path = sample_path(model, states, t, 4, cfg)
    ref_times, ref_path = ref_sample_path(model, states, t, 4, cfg)
    assert np.array_equal(times, ref_times) and np.array_equal(path, ref_path)


def test_linear_rates_are_kept_as_given():
    model = LinearDiagonal(rates=[1.5, -0.25, 0.0])
    assert model.parameters() == {"rates": [1.5, -0.25, 0.0]}
    x = np.array([[0.3, 2.0, -1.0]])
    assert np.array_equal(model.rhs(x), -model.rates * x)


def _assert_exact_blowup(width, first):
    # dx/dt = 40 x grows through the largest double; rows first and
    # first + 1 start highest and overflow first, inside a check block, so
    # the block is rerun from its start
    model = LinearDiagonal(rates=[-40.0])
    states = np.full((width, 1), 1e290)
    states[first:first + 2] = 1e300
    t, t_start, dt = 1.0, 0.25, 0.01
    with pytest.raises(BlowupError) as ref:
        ref_advance_many(model, states, t, IntegratorConfig(step=dt), t_start=t_start)
    step = round((ref.value.time - t_start) / dt)
    assert step % 16 != 0 and ref.value.batch_index == first
    with pytest.raises(BlowupError) as exc:
        advance_many(model, states, t, IntegratorConfig(step=dt), t_start=t_start)
    assert exc.value.time == ref.value.time == t_start + step * dt
    assert exc.value.batch_index == first


def test_wide_blowup_reports_exact_step_and_row():
    _assert_exact_blowup(517, 300)


def test_narrow_blowup_reports_exact_step_and_row():
    _assert_exact_blowup(5, 3)


# ---- the walker ---------------------------------------------------------

def test_walker_reports_the_callers_row_after_drops():
    # the even rows leave at t = 0; odd row 301 overflows first, and the
    # error names it and the reference time of its grid interval
    model = LinearDiagonal(rates=[-40.0])
    m = 1034
    states = np.full((m, 1), 1e280)
    states[300] = 1e306          # decided at t = 0: never integrated again
    states[301] = 1e300
    times = np.linspace(0.0, 1.2, 7)
    cfg = IntegratorConfig(step=0.01)
    with pytest.raises(BlowupError) as ref:
        ref_sample_path(model, states, 1.2, 7, cfg)
    assert ref.value.batch_index == 300

    def visit(k, rows, y):
        return rows % 2 == 0 if k == 0 else None

    with pytest.raises(BlowupError) as exc:
        walk_open_rows(model, states, 0.2, 6, cfg, visit, times=times)
    with pytest.raises(BlowupError) as odd:
        ref_sample_path(model, states[1::2], 1.2, 7, cfg)
    assert exc.value.batch_index == 301
    assert exc.value.time == odd.value.time


def test_decided_row_no_longer_raises():
    # the only row that would overflow is decided at t = 0
    model = LinearDiagonal(rates=[-40.0])
    states = np.array([[1.0], [1e300], [2.0]])
    cfg = IntegratorConfig(step=0.01)
    with pytest.raises(BlowupError):
        ref_sample_path(model, states, 1.2, 7, cfg)
    seen = []

    def visit(k, rows, y):
        seen.append(rows.tolist())
        return rows == 1

    assert walk_open_rows(model, states, 0.2, 6, cfg, visit) == 1
    assert seen == [[0, 1, 2]] + [[0, 2]] * 6


def test_walker_drops_decided_quadratic_rows(rotation2d, cfg):
    states = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    seen = []

    def visit(k, rows, y):
        seen.append((rows.tolist(), y.copy()))
        return rows == 1

    assert walk_open_rows(rotation2d, states, 0.1, 3, cfg, visit) == 1
    _, path = ref_sample_path(rotation2d, states, 0.3, 4, cfg)
    assert [rows for rows, _ in seen] == [[0, 1, 2], [0, 2], [0, 2], [0, 2]]
    for k, (rows, y) in enumerate(seen):
        assert np.array_equal(y, path[rows, k])


# ---- calibration --------------------------------------------------------

def test_calibrate_matches_reference_on_the_bench_grid():
    cfg = load_config(CONFIGS / "lorenz.json")
    centers = collocate(cfg.domain, cfg.resolution)
    kwargs = dict(delta_max=cfg.delta_max(), delta_min=cfg.delta_floor,
                  time_samples=cfg.calibration_time_samples, seed=cfg.rng_seed)
    counters = {}
    radii = calibrate_deltas(cfg.model, centers, cfg.horizon, cfg.epsilon, cfg.integrator,
                             4, counters=counters, **kwargs)
    ref = ref_calibrate_deltas(cfg.model, centers, cfg.horizon, cfg.epsilon,
                               cfg.integrator, 4, **kwargs)
    assert np.array_equal(radii, ref)
    assert counters["bisection_rounds"] > 0 and counters["rows_dropped"] > 0
    # 1,728 clouds fit no second round in a pass: one pass walks the cap, and
    # one per round follows, the first also walking the floor
    assert counters["probe_passes"] == counters["bisection_rounds"] + 1


def test_calibrate_matches_reference_on_linear1d():
    cfg = load_config(CONFIGS / "linear1d.json")
    centers = collocate(cfg.domain, cfg.resolution)
    kwargs = dict(delta_max=cfg.delta_max(), delta_min=cfg.delta_floor,
                  time_samples=cfg.calibration_time_samples, seed=cfg.rng_seed)
    counters = {}
    radii = calibrate_deltas(cfg.model, centers, cfg.horizon, cfg.epsilon, cfg.integrator,
                             cfg.boundary_samples, counters=counters, **kwargs)
    ref = ref_calibrate_deltas(cfg.model, centers, cfg.horizon, cfg.epsilon,
                               cfg.integrator, cfg.boundary_samples, **kwargs)
    assert np.array_equal(radii, ref)
    # eight clouds of 34 probe rows fit two rounds beside the floor and three
    # after it, so the passes are the cap, the floor with rounds 1-2, and one
    # per three rounds
    rounds = counters["bisection_rounds"]
    assert rounds > 2
    assert counters["probe_passes"] == 2 + math.ceil((rounds - 2) / 3)


def test_calibrate_clouds_failing_at_t0(linear1, cfg):
    # a contracting cloud is widest at t = 0: every cap cloud fails there
    # and leaves before any substep
    centers = np.linspace(-0.5, 0.5, 7)[:, None]
    counters = {}
    radii = calibrate_deltas(linear1, centers, 1.0, 0.1, cfg, 5, delta_max=1.0, seed=4,
                             counters=counters)
    ref = ref_calibrate_deltas(linear1, centers, 1.0, 0.1, cfg, 5, delta_max=1.0, seed=4)
    assert np.array_equal(radii, ref)
    assert counters["rows_dropped"] >= 7 * 7


def test_calibrate_with_no_row_dropped(linear1, cfg):
    centers = np.array([[0.0], [0.3]])
    counters = {}
    radii = calibrate_deltas(linear1, centers, 1.0, 10.0, cfg, 3, delta_max=0.3, seed=2,
                             counters=counters)
    assert np.array_equal(radii, [0.3, 0.3])
    assert counters == {"bisection_rounds": 0, "probe_passes": 1, "rows_dropped": 0}


def test_calibrate_quadratic_matches_reference(expanding1d, cfg):
    centers = np.array([[-0.2], [0.0], [0.4]])
    radii = calibrate_deltas(expanding1d, centers, 1.0, 0.1, cfg, 4, delta_max=1.0, seed=6)
    ref = ref_calibrate_deltas(expanding1d, centers, 1.0, 0.1, cfg, 4, delta_max=1.0, seed=6)
    assert np.array_equal(radii, ref)


def _calibration_case(kind, wide, rng):
    """A model and centers on the given side of _SPECULATE_ROWS: wide, one
    center's p - 1 probe rows are too many for two rounds' mids to fit in a
    pass; narrow, the floor and two rounds' mids of every center fit."""
    if kind == "lorenz":
        model, d = Lorenz(), 3
        centers = rng.uniform([-15, -20, 5], [15, 20, 40], size=(8, 3))
    else:
        d = 1
        a, b = rng.uniform(-3, 3), rng.uniform(-2, 2)
        model = (LinearDiagonal(rates=[a]) if kind == "linear" else
                 QuadraticGeneric(linear=[[-a]], quadratic=[[[b]]], forcing=[0.0]))
        centers = rng.uniform(-1, 1, size=(8, 1))
    if wide:
        n, boundary = 8, _SPECULATE_ROWS // 3 + 1 - 2 * d
    else:
        n, boundary = int(rng.integers(1, 7)), int(rng.integers(0, 7))
    rows = 2 * d + boundary
    assert 3 * rows > _SPECULATE_ROWS if wide else n * rows * 4 <= _SPECULATE_ROWS
    return model, centers[:n], boundary


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["linear", "lorenz", "quadratic"]), wide=st.booleans(),
       seed=st.integers(0, 2**32 - 1), rel_tol=st.sampled_from([0.0, 0.01, 0.3]),
       epsilon=st.floats(0.02, 3.0), delta_max=st.floats(0.01, 1.0),
       floor=st.sampled_from([1e-9, 1e-3, 0.5]), time_samples=st.sampled_from([2, 3, 5]))
def test_calibrate_matches_reference_bitwise(kind, wide, seed, rel_tol, epsilon, delta_max,
                                             floor, time_samples):
    # a floor at half the cap can fail on its own; rel_tol = 0 runs to the
    # 200-round cap; a cap above epsilon / 2 fails at t = 0
    rng = np.random.default_rng(seed)
    model, centers, boundary = _calibration_case(kind, wide, rng)
    kwargs = dict(delta_max=delta_max, delta_min=floor * delta_max,
                  time_samples=time_samples, rel_tol=rel_tol, seed=seed % 1000)
    cfg = IntegratorConfig(step=0.02)
    try:
        ref = ref_calibrate_deltas(model, centers, 0.2, epsilon, cfg, boundary, **kwargs)
    except CalibrationError as err:
        with pytest.raises(CalibrationError) as exc:
            calibrate_deltas(model, centers, 0.2, epsilon, cfg, boundary, **kwargs)
        assert str(exc.value) == str(err)
        return
    counters = {}
    radii = calibrate_deltas(model, centers, 0.2, epsilon, cfg, boundary, counters=counters,
                             **kwargs)
    assert np.array_equal(radii, ref)
    bisected = bool(np.any(radii < delta_max))
    if rel_tol == 0 and bisected:
        assert counters["bisection_rounds"] == 200
    # the cap's pass, then at least one round per pass; exactly one when wide
    assert counters["probe_passes"] <= counters["bisection_rounds"] + 1
    if wide:
        assert counters["probe_passes"] == counters["bisection_rounds"] + 1


@pytest.mark.parametrize("model_name", ["quadratic", "lorenz"])
def test_calibrate_mixes_cap_feasible_and_bisected_centers(model_name, cfg):
    # clouds near the unstable point 1 of dx/dt = -x + x^2, or far out on the
    # Lorenz attractor, spread more; both calls evaluate several rounds per walk
    if model_name == "quadratic":
        model = QuadraticGeneric(linear=[[-1.0]], quadratic=[[[1.0]]], forcing=[0.0])
        centers, epsilon = np.array([[-0.5], [0.2], [0.6], [0.9]]), 0.2
    else:
        model, epsilon = Lorenz(), 1.0
        centers = np.array([[0.0, 0.0, 0.0], [-8.0, -8.0, 27.0], [0.5, 0.5, 0.5],
                            [5.0, -3.0, 30.0]])
    kwargs = dict(delta_max=0.1, time_samples=5, seed=3)
    radii = calibrate_deltas(model, centers, 0.5, epsilon, cfg, 4, **kwargs)
    ref = ref_calibrate_deltas(model, centers, 0.5, epsilon, cfg, 4, **kwargs)
    assert np.array_equal(radii, ref)
    assert np.any(radii == 0.1) and np.any(radii < 0.1)


@pytest.mark.parametrize("model_name", ["linear", "quadratic"])
def test_calibration_blowup_names_the_center(model_name):
    # the probes of center 3 start farthest from 0 and overflow first; the
    # centers' own orbits, RK4 stages included, stay finite over the horizon
    cfg = IntegratorConfig(step=0.001)
    if model_name == "linear":
        model = LinearDiagonal(rates=[-40.0])
        centers, horizon = np.array([[0.0], [0.0], [0.1]]), 17.645
    else:
        model = QuadraticGeneric(linear=[[0.0]], quadratic=[[[1.0]]], forcing=[0.0])
        centers, horizon = np.array([[0.1], [0.1], [0.2]]), 3.0
    with pytest.raises(BlowupError) as exc:
        calibrate_deltas(model, centers, horizon, 1e300, cfg, 0, delta_max=0.5,
                         time_samples=2)
    assert str(exc.value).startswith(f"center 3 at {centers[2].tolist()}: probe orbit")


# ---- itineraries and words ----------------------------------------------

def _lorenz_partition(n_balls, radius, seed=3):
    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(step=0.005)
    pts = advance_many(Lorenz(), rng.uniform([-12, -15, 8], [12, 15, 35], (n_balls, 3)),
                       4.0, cfg)
    return Partition(cover=Cover(centers=pts, radii=np.full(n_balls, radius)))


@pytest.mark.parametrize("n_balls,radius,samples", [(60, 2.5, 12), (150, 1.5, 6)])
def test_itineraries_match_reference(n_balls, radius, samples):
    partition = _lorenz_partition(n_balls, radius)
    cfg = IntegratorConfig(step=0.005)
    counters = {}
    starts, itins = sample_itineraries(Lorenz(), partition, 0.1, 3, samples, cfg, 21,
                                       counters=counters)
    ref_starts, ref_itins = ref_sample_itineraries(Lorenz(), partition, 0.1, 3, samples,
                                                   cfg, 21)
    assert np.array_equal(starts, ref_starts) and np.array_equal(itins, ref_itins)
    assert counters["rows_dropped"] == np.count_nonzero(itins[:, 2] == 0)


def test_itineraries_all_escaping_at_the_first_hop(cfg):
    # dx/dt = 3 x carries every sample of the cover, at least 0.3 from 0,
    # well out of it
    model = LinearDiagonal(rates=[-3.0])
    partition = Partition(cover=Cover(centers=np.array([[-0.6], [0.6]]),
                                      radii=np.array([0.3, 0.3])))
    counters = {}
    starts, itins = sample_itineraries(model, partition, 1.0, 4, 30, cfg, 5,
                                       counters=counters)
    _, ref_itins = ref_sample_itineraries(model, partition, 1.0, 4, 30, cfg, 5)
    assert np.array_equal(itins, ref_itins)
    assert not np.any(itins[:, 1:])
    assert counters["rows_dropped"] == starts.shape[0]


def test_itineraries_quadratic_drop_escaped_rows(rotation2d, cfg):
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 2.0]])
    partition = Partition(cover=Cover(centers=centers, radii=np.full(5, 0.6)))
    counters = {}
    _, itins = sample_itineraries(rotation2d, partition, 0.8, 3, 20, cfg, 8,
                                  counters=counters)
    _, ref_itins = ref_sample_itineraries(rotation2d, partition, 0.8, 3, 20, cfg, 8)
    assert np.array_equal(itins, ref_itins)
    assert np.any(itins == 0) and counters["rows_dropped"] > 0
    assert counters["rows_dropped"] == np.count_nonzero(itins[:, 2] == 0)


@pytest.mark.parametrize("block_rows", [7, 64])
@pytest.mark.parametrize("model_name", ["lorenz", "quadratic"])
def test_itineraries_in_row_blocks_match_reference(model_name, block_rows, rotation2d, cfg):
    # blocks of 7 or 64 rows split cells' samples (12 and 20 per cell),
    # end in a partial block and hold escapes in several blocks, whose
    # rows_dropped add up; encoding the starts walks the same blocks
    if model_name == "lorenz":
        model, partition = Lorenz(), _lorenz_partition(60, 2.5)
        horizon, samples, icfg = 0.1, 12, IntegratorConfig(step=0.005)
    else:
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 2.0]])
        model, partition = rotation2d, Partition(cover=Cover(centers=centers,
                                                             radii=np.full(5, 0.6)))
        horizon, samples, icfg = 0.8, 20, cfg
    counters = {}
    with mock.patch.object(transitions, "_BLOCK_ROWS", block_rows):
        starts, itins = sample_itineraries(model, partition, horizon, 3, samples, icfg, 21,
                                           counters=counters)
    ref_starts, ref_itins = ref_sample_itineraries(model, partition, horizon, 3, samples,
                                                   icfg, 21)
    assert np.array_equal(starts, ref_starts) and np.array_equal(itins, ref_itins)
    m = itins.shape[0]
    assert np.any(np.arange(block_rows, m, block_rows) % samples) and m % block_rows
    escaped = np.flatnonzero(itins[:, -1] == 0)
    assert np.unique(escaped // block_rows).size >= 2
    assert counters["rows_dropped"] == np.count_nonzero(itins[:, 2] == 0) > 0
    with mock.patch.object(transitions, "_BLOCK_ROWS", block_rows):
        words = encode_many(model, partition, starts, 4, horizon, icfg)
    assert words == encode_many(model, partition, starts, 4, horizon, icfg)
    assert [w.word for w in words] == [tuple(row[row > 0].tolist()) for row in itins]


def test_blowup_in_a_later_block_names_its_global_row_and_the_orbits_time():
    # x' = x^2 blows up at t = 1/x0. Cell 1's samples shrink and leave the
    # cover at T = 0.5; cell 2's (x0 in [0.56, 0.64]) pass through cells 3,
    # 4 and 5 at t = 0.5, 1 and 1.5 and blow up in the fourth hop. In blocks
    # of 3 rows cell 2's first samples are rows 4 and 5 of the second
    # block, which blows up before the blocks of cells 3-5's own samples;
    # encoding the same starts walks the same blocks
    model = QuadraticGeneric(linear=[[0.0]], quadratic=[[[1.0]]], forcing=[0.0])
    partition = Partition(cover=Cover(centers=np.array([[-0.5], [0.6], [0.86], [1.55], [15.0]]),
                                      radii=np.array([0.05, 0.04, 0.1, 0.35, 12.0])))
    cfg = IntegratorConfig(step=0.001)
    with mock.patch.object(transitions, "_BLOCK_ROWS", 3):
        with pytest.raises(BlowupError) as err:
            sample_itineraries(model, partition, 0.5, 4, 4, cfg, 7)
    starts = _draw_cell_starts(partition, 4, 7)
    with pytest.raises(BlowupError) as ref:
        ref_sample_path(model, starts[3:6], 2.0, 5, cfg)
    assert err.value.batch_index == 3 + ref.value.batch_index
    assert err.value.batch_index in (4, 5)
    assert err.value.time == ref.value.time
    assert 1.5 < err.value.time < 1 / starts[err.value.batch_index, 0] + 0.01
    with mock.patch.object(transitions, "_BLOCK_ROWS", 3):
        with pytest.raises(BlowupError) as enc:
            encode_many(model, partition, starts, 5, 0.5, cfg)
    assert (enc.value.batch_index, enc.value.time) == (err.value.batch_index, err.value.time)


def test_encoding_blowup_reports_the_orbits_time():
    # x' = x^2 from 0.6 reaches cell 2 at t = 1 and blows up at t = 1/0.6 in
    # the second window; the error gives that time, not the time within
    # the window (about 0.669)
    model = QuadraticGeneric(linear=[[0.0]], quadratic=[[[1.0]]], forcing=[0.0])
    partition = Partition(cover=Cover(centers=np.array([[0.6], [1.5]]),
                                      radii=np.array([0.1, 0.5])))
    cfg = IntegratorConfig(step=0.001)
    with pytest.raises(BlowupError) as err:
        encode_many(model, partition, [[0.6]], 3, 1.0, cfg)
    with pytest.raises(BlowupError) as ref:
        ref_sample_path(model, [[0.6]], 2.0, 3, cfg)
    assert err.value.time == ref.value.time
    assert abs(err.value.time - 1 / 0.6) < 0.01


def test_itinerary_sampling_memory_does_not_grow_with_samples_per_cell():
    # the starts are drawn and walked _BLOCK_ROWS rows at a time, so past
    # the returned starts and itineraries the peak stays near 2.5 MiB from
    # 3,000 to 48,000 samples; drawing and walking them whole took 8.6 MiB
    # at 48,000
    partition = _lorenz_partition(150, 1.5)
    partition.assign_many(partition.cover.centers[:1])  # the grid is built on first use
    cfg = IntegratorConfig(step=0.005)
    excess = []
    for samples in (20, 320):
        (starts, itins), peak = traced_peak(
            lambda: sample_itineraries(Lorenz(), partition, 0.1, 2, samples, cfg, 4))
        assert itins.shape == (150 * samples, 3)
        excess.append(peak - starts.nbytes - itins.nbytes)
    assert excess[1] < excess[0] + 2 ** 19
    assert excess[1] < 4 * 2 ** 20


@pytest.mark.parametrize("model_name", ["lorenz", "quadratic"])
def test_window_states_match_reference(model_name, rotation2d, cfg):
    if model_name == "lorenz":
        model, partition = Lorenz(), _lorenz_partition(150, 2.5)
        rng = np.random.default_rng(8)
        x0s = partition.cover.centers[rng.integers(0, 150, 700)] + rng.normal(size=(700, 3))
        horizon, icfg = 0.1, IntegratorConfig(step=0.005)
    else:
        model, icfg, horizon = rotation2d, cfg, 0.7
        partition = Partition(cover=Cover(
            centers=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            radii=np.full(4, 0.7)))
        x0s = np.random.default_rng(9).uniform(-1.2, 1.2, size=(40, 2))
    cells, _ = cell_itineraries(model, partition, x0s, 7, horizon, icfg)
    ref = ref_window_states(model, partition, x0s, 8, horizon, icfg)
    assert np.array_equal(cells, _zero_after_first_zero(ref))
    assert np.any(ref[:, 1:] == 0) and np.any(cells[:, -1] > 0)
    words = encode_many(model, partition, x0s, 8, horizon, icfg)
    for row, w in zip(ref, words):
        if row[0] == 0:
            assert w is None
        else:
            cut = list(row).index(0) if 0 in row else len(row)
            assert w.word == tuple(row[:cut]) and w.complete == (cut == len(row))


# ---- shadowing ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate=st.floats(-1.5, 1.5),
       horizon=st.sampled_from([0.5, 1.0]), samples=st.sampled_from([2, 3, 5, 9]),
       step=st.sampled_from([1 / 64, 1 / 32]), length=st.integers(1, 6))
def test_one_walk_shadow_matches_two_pass_reference_bitwise(seed, rate, horizon, samples,
                                                            step, length):
    # dyadic horizons, grids and steps: the walk's substep and every
    # reference interval have the same bits, so nothing may differ
    rng = np.random.default_rng(seed)
    model = LinearDiagonal(rates=[rate, 0.5 * rate])
    cfg = IntegratorConfig(step=step)
    centers = rng.uniform(-1, 1, size=(12, 2))
    partition = Partition(cover=Cover(centers=centers, radii=rng.uniform(0.1, 0.5, 12)))
    lib = build_segments(model, partition.cover, horizon, samples, cfg, epsilon=0.5)
    x0s = rng.uniform(-1.3, 1.3, size=(40, 2))
    report = shadowing_report(model, lib, partition, x0s, length, cfg)
    ref = ref_shadowing_report(model, lib, partition, x0s, length, cfg)
    assert report["per_orbit"] == ref
    assert report["orbits"] == 40 and report["requested_length"] == length


def test_one_walk_shadow_on_lorenz_matches_within_tolerance():
    # T / (K - 1) / n_sub and T / n have the same bits here, so the words
    # agree exactly; the reference steps t - prev_t between grid times, which
    # can differ from T / (K - 1) in the last bits, so errors agree to 1e-9
    partition = _lorenz_partition(150, 2.5)
    cfg = IntegratorConfig(step=0.005)
    lib = build_segments(Lorenz(), partition.cover, 0.1, 11, cfg)
    rng = np.random.default_rng(12)
    x0s = partition.cover.centers[rng.integers(0, 150, 300)] + rng.normal(size=(300, 3))
    x0s = np.concatenate([x0s, [[100.0, 0.0, 0.0]]])
    report = shadowing_report(Lorenz(), lib, partition, x0s, 8, cfg)
    ref = ref_shadowing_report(Lorenz(), lib, partition, x0s, 8, cfg)
    lengths = [r["word_length"] for r in ref]
    assert 0 in lengths and 8 in lengths and len(set(lengths)) > 3
    assert report["epsilon"] is None
    keys = ("x0", "word_length", "complete")
    for got, want in zip(report["per_orbit"], ref):
        assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
        if want["error"] is None:
            assert got["error"] is None
        else:
            assert got["error"] == pytest.approx(want["error"], rel=0, abs=1e-9)
    # shadowing_error takes the same walk
    for row in np.flatnonzero(np.array(lengths) > 1)[:5]:
        word = encode_many(Lorenz(), partition, x0s[row:row + 1], 8, 0.1, cfg)[0]
        pseudo = reconstruct_pseudo_orbit(lib, word)
        assert shadowing_error(Lorenz(), x0s[row], pseudo, cfg) == \
            report["per_orbit"][row]["error"]


def test_shadow_of_no_starts_is_an_empty_report(linear1, cfg):
    partition = Partition(cover=Cover(centers=np.array([[0.0]]), radii=np.array([0.5])))
    lib = build_segments(linear1, partition.cover, 1.0, 5, cfg, epsilon=0.25)
    report = shadowing_report(linear1, lib, partition, np.empty((0, 1)), 4, cfg)
    assert report == {"epsilon": 0.25, "max_error": None, "requested_length": 4,
                      "orbits": 0, "complete_orbits": 0, "per_orbit": []}
