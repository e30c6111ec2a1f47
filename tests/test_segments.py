import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segdyn import (
    BlowupError,
    Cover,
    IntegratorConfig,
    QuadraticGeneric,
    build_segments,
    load_library,
    max_difference,
    save_library,
)
from segdyn.segments import SegmentLibrary, write_max_difference_csv


def _cover(centers, radius=0.6):
    centers = np.asarray(centers, dtype=float)
    return Cover(centers=centers, radii=np.full(len(centers), radius))


def test_build_segments_closed_form(linear1, cfg):
    lib = build_segments(linear1, _cover([[1.0]]), 1.0, 3, cfg)
    expected = np.array([1.0, np.exp(-0.5), np.exp(-1.0)])
    assert np.abs(lib.states[0].ravel() - expected).max() <= 1e-8


def test_build_segments_two_samples_holds_endpoints(lorenz, cfg):
    cover = _cover([[1.0, 1.0, 1.0], [2.0, -1.0, 20.0]])
    lib = build_segments(lorenz, cover, 0.4, 2, cfg)
    assert np.array_equal(lib.states[:, 0], cover.centers)
    from segdyn import advance
    for i in range(2):
        assert np.array_equal(lib.ends()[i], advance(lorenz, cover.centers[i], 0.4, cfg))


def test_lorenz_equilibrium_segment_is_constant(lorenz, cfg):
    lib = build_segments(lorenz, _cover([[0.0, 0.0, 0.0]]), 1.0, 5, cfg)
    assert np.array_equal(lib.states[0], np.zeros((5, 3)))


def test_library_shares_one_time_grid(linear1, cfg):
    lib = build_segments(linear1, _cover([[0.5], [1.0]]), 2.0, 7, cfg)
    assert lib.states.shape == (2, 7, 1)
    assert np.array_equal(lib.times, np.linspace(0, 2.0, 7))


def test_max_difference_single_segment_is_zero(linear1, cfg):
    lib = build_segments(linear1, _cover([[1.0]]), 1.0, 6, cfg)
    assert np.array_equal(max_difference(lib), np.zeros(6))


def test_max_difference_linear_closed_form(linear1, cfg):
    lib = build_segments(linear1, _cover([[0.0], [1.0]]), 1.0, 11, cfg)
    md = max_difference(lib)
    assert np.abs(md - np.exp(-lib.times)).max() <= 1e-8


def test_max_difference_frozen_flow_is_constant(zero_field_1d, cfg):
    lib = build_segments(zero_field_1d, _cover([[0.0], [0.7], [0.2]]), 1.0, 6, cfg)
    md = max_difference(lib)
    assert np.allclose(md, 0.7, atol=1e-15)


def test_max_difference_invariant_under_relabeling(lorenz, cfg):
    centers = np.array([[1.0, 1.0, 20.0], [-5.0, 2.0, 15.0], [3.0, -4.0, 30.0]])
    lib_a = build_segments(lorenz, _cover(centers), 0.3, 5, cfg)
    lib_b = build_segments(lorenz, _cover(centers[::-1]), 0.3, 5, cfg)
    assert np.allclose(max_difference(lib_a), max_difference(lib_b), atol=1e-12)


def test_max_difference_nonincreasing_for_contraction(cfg):
    from segdyn import LinearDiagonal
    model = LinearDiagonal(rates=[1.0, 0.5])
    lib = build_segments(model, _cover([[0.0, 0.0], [1.0, 0.4], [-0.6, 0.8]]), 2.0, 9, cfg)
    md = max_difference(lib)
    assert np.all(np.diff(md) <= 1e-12)


def test_lorenz_profile_sanity_bound(lorenz, cfg, tmp_path):
    rng = np.random.default_rng(0)
    from segdyn import advance_many
    pts = advance_many(lorenz, rng.uniform([-10, -15, 10], [10, 15, 35], (12, 3)), 3.0,
                       IntegratorConfig(step=0.005))
    lib = build_segments(lorenz, _cover(pts), 0.5, 9, IntegratorConfig(step=0.005))
    md = max_difference(lib)
    assert md.max() - md.min() <= md.max()
    write_max_difference_csv(tmp_path / "md.csv", lib.times, md)
    rows = np.loadtxt(tmp_path / "md.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], md)


def test_library_persistence_roundtrip(lorenz, cfg, tmp_path):
    lib = build_segments(lorenz, _cover([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 0.7, 4,
                         cfg, epsilon=0.25)
    save_library(lib, tmp_path / "library")
    back = load_library(tmp_path / "library")
    assert np.array_equal(back.states, lib.states)
    assert np.array_equal(back.times, lib.times)
    assert back.horizon == lib.horizon
    assert back.epsilon == 0.25
    assert back.model_id == "Lorenz"
    assert back.step == cfg.step


_SPECIAL = [-0.0, 0.0, 5e-324, -2.0 ** -1060, 1e300, -1e300, 1.0 / 3.0, 0.1 + 0.2]


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        hnp.arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))),
        st.lists(st.one_of(st.sampled_from(_SPECIAL),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=shape[1], max_size=shape[1]))))
def test_library_roundtrip_is_bitwise(data):
    states, times = data
    lib = SegmentLibrary(times=times, states=states, horizon=1.0, epsilon=np.nan,
                         model_id="test", step=0.1)
    with tempfile.TemporaryDirectory() as tmp:
        save_library(lib, tmp)
        raw = (Path(tmp) / "segments.npy").read_bytes()
        back = load_library(tmp)
    assert back.states.tobytes() == states.tobytes()
    assert back.times.tobytes() == np.array(times, dtype=float).tobytes()
    # the file is what np.save writes, so any NPY reader reads it
    expected = io.BytesIO()
    np.save(expected, states)
    assert raw == expected.getvalue()
    assert np.load(io.BytesIO(raw), allow_pickle=False).tobytes() == states.tobytes()


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def _with_sample(value):
    def edit(raw, states):
        states = states.copy()
        states[1, 2, 0] = value
        return _npy(states)
    return edit


# edits of segments.npy, as functions of its bytes and the saved states
# (2 cells, 4 samples, 3 coordinates: 96 data bytes)
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda raw, s: b"", "segments.npy: EOF: reading magic string", id="empty"),
    pytest.param(lambda raw, s: raw[:40], "segments.npy: EOF: reading array header",
                 id="cut-in-header"),
    pytest.param(lambda raw, s: raw[:-8], "holds 184 data bytes, not 192", id="truncated"),
    pytest.param(lambda raw, s: raw + raw[-8:], "holds 200 data bytes, not 192",
                 id="over-long"),
    pytest.param(lambda raw, s: b"\x93NUMPX" + raw[6:], "segments.npy: the magic string",
                 id="bad-magic"),
    pytest.param(lambda raw, s: raw[:6] + b"\x02" + raw[7:], r"NPY version 2\.0, not 1\.0",
                 id="version-2"),
    pytest.param(lambda raw, s: _npy(s.astype(">f8")), "holds >f8 in C order", id="big-endian"),
    pytest.param(lambda raw, s: _npy(s.astype(np.float32)), "holds <f4 in C order",
                 id="float32"),
    pytest.param(lambda raw, s: _npy(s.astype(object)), r"holds \|O in C order",
                 id="pickled-objects"),
    pytest.param(lambda raw, s: _npy(np.asfortranarray(s)), "holds <f8 in Fortran order",
                 id="fortran-order"),
    pytest.param(lambda raw, s: _npy(s[:1]),
                 r"has shape \(1, 4, 3\), library.json says \(2, 4, 3\)", id="fewer-cells"),
    pytest.param(lambda raw, s: _npy(s.reshape(2, 3, 4)),
                 r"has shape \(2, 3, 4\), library.json says \(2, 4, 3\)", id="reshaped"),
    pytest.param(_with_sample(np.nan), "cell 2, sample 2, coordinate 0 is nan", id="nan"),
    pytest.param(_with_sample(-np.inf), "cell 2, sample 2, coordinate 0 is -inf", id="inf"),
])
def test_load_library_rejects_a_malformed_states_file(lorenz, cfg, tmp_path, edit, message):
    lib = build_segments(lorenz, _cover([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 0.7, 4, cfg)
    save_library(lib, tmp_path)
    path = tmp_path / "segments.npy"
    path.write_bytes(edit(path.read_bytes(), lib.states))
    with pytest.raises(ValueError, match=message):
        load_library(tmp_path)


@pytest.mark.parametrize("key, value, message", [
    ("times", [0.0, 0.35, 0.7], "times are not 4 finite JSON numbers"),
    ("times", [0.0, 0.35, "0.5", 0.7], "times are not 4 finite JSON numbers"),
    ("times", [0.0, 0.35, True, 0.7], "times are not 4 finite JSON numbers"),
    ("times", [0.0, 0.35, float("nan"), 0.7], "times are not 4 finite JSON numbers"),
    ("times", [0.0, 0.35, float("inf"), 0.7], "times are not 4 finite JSON numbers"),
    ("times", None, "times are not 4 finite JSON numbers"),
    pytest.param("times", [0.0, 0.35, 10 ** 400, 0.7], "times are not 4 finite JSON numbers",
                 id="time-past-float"),
    ("n_cells", 2.0, r"shape \(2.0, 4, 3\) is not three nonnegative JSON integers"),
    ("dimension", -3, r"shape \(2, 4, -3\) is not three nonnegative JSON integers"),
    ("horizon", "1.0", 'horizon "1.0" is not a finite JSON number'),
    ("horizon", True, "horizon true is not a finite JSON number"),
    ("horizon", float("inf"), "horizon Infinity is not a finite JSON number"),
    ("horizon", None, "horizon null is not a finite JSON number"),
    pytest.param("horizon", 10 ** 400, f"horizon {10 ** 400} is not a finite JSON number",
                 id="horizon-past-float"),
    ("integrator_step", True, "integrator_step true is not a finite JSON number"),
    ("integrator_step", float("nan"), "integrator_step NaN is not a finite JSON number"),
    ("epsilon", "0.5", 'epsilon "0.5" is not a finite JSON number'),
    ("epsilon", False, "epsilon false is not a finite JSON number"),
    ("epsilon", float("-inf"), "epsilon -Infinity is not a finite JSON number"),
])
def test_load_library_rejects_malformed_metadata(lorenz, cfg, tmp_path, key, value, message):
    lib = build_segments(lorenz, _cover([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 0.7, 4, cfg)
    save_library(lib, tmp_path)
    path = tmp_path / "library.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
    with pytest.raises(ValueError, match=message):
        load_library(tmp_path)


@pytest.mark.parametrize("epsilon, expected", [(None, None), (2, 2.0), (0.25, 0.25)])
def test_load_library_reads_a_null_epsilon_as_nan(lorenz, cfg, tmp_path, epsilon, expected):
    lib = build_segments(lorenz, _cover([[1.0, 2.0, 3.0]]), 0.7, 4, cfg)
    save_library(lib, tmp_path)
    path = tmp_path / "library.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), epsilon=epsilon, horizon=1)))
    back = load_library(tmp_path)
    assert back.horizon == 1.0 and type(back.horizon) is float
    assert math.isnan(back.epsilon) if expected is None else back.epsilon == expected


def test_blowup_names_cell(cfg):
    model = QuadraticGeneric(linear=[[0.0]], quadratic=np.ones((1, 1, 1)), forcing=[0.0])
    with pytest.raises(BlowupError, match="cell 1"):
        build_segments(model, _cover([[1.0]]), 2.0, 5, IntegratorConfig(step=0.01))


def _csv_writer_bytes(rows) -> bytes:
    """The rows as csv.writer renders them into a file opened with newline=""."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_csv_files_are_the_csv_writer_bytes(tmp_path):
    # 17-digit values, signed zeros, subnormal-range and huge magnitudes
    times = np.array([0.0, 0.1, 1.0 / 3.0, 0.30000000000000004])
    values = np.array([12.5, -0.0, 1e-300, 0.1 + 0.2])
    write_max_difference_csv(tmp_path / "md.csv", times, values)
    expected = _csv_writer_bytes([["t", "M_d"]] + [[repr(float(t)), repr(float(v))]
                                                    for t, v in zip(times, values)])
    assert (tmp_path / "md.csv").read_bytes() == expected
