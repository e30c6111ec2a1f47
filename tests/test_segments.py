import csv
import io

import numpy as np
import pytest

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
    assert np.array_equal(lib.starts(), cover.centers)
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
    seg = lib.segment(2)
    assert np.array_equal(seg.states, lib.states[1])
    with pytest.raises(ValueError, match="out of range"):
        lib.segment(3)


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


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:3] + ["\r\n"] + lines[3:], "line 4: 0 fields, expected 6"),
    (lambda lines: [lines[0], "1.5" + lines[1][1:]] + lines[2:],
     r"line 2: \(cell 1.5, k 0\) is out of range or repeated"),
    (lambda lines: lines[:5] + ["2,4" + lines[5][3:]] + lines[6:],
     r"line 6: \(cell 2, k 4\) is out of range or repeated"),
    (lambda lines: lines[:1], "holds 0 of the 8"),
])
def test_load_library_rejects_bad_rows(lorenz, cfg, tmp_path, edit, message):
    lib = build_segments(lorenz, _cover([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 0.7, 4, cfg)
    save_library(lib, tmp_path)
    path = tmp_path / "segments.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_library(tmp_path)


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
    rng = np.random.default_rng(5)
    states = rng.normal(size=(3, 4, 2)) * 10.0 ** rng.integers(-20, 20, size=(3, 4, 2))
    states[0, 0] = [-0.0, 0.0]
    states[1, 2] = [1e-300, -1e300]
    states[2, 3] = [0.1 + 0.2, 2.0 ** -1074]
    times = np.array([0.0, 0.1, 1.0 / 3.0, 0.30000000000000004])
    lib = SegmentLibrary(cells=np.arange(1, 4), times=times, states=states, horizon=1.0,
                         epsilon=np.nan, model_id="test", step=0.1)
    save_library(lib, tmp_path)
    expected = _csv_writer_bytes(
        [["cell", "k", "t", "coord_0", "coord_1"]]
        + [[n + 1, k, repr(float(times[k]))] + [repr(float(v)) for v in states[n, k]]
           for n in range(3) for k in range(4)])
    assert (tmp_path / "segments.csv").read_bytes() == expected
    assert np.array_equal(load_library(tmp_path).states, states)

    values = np.array([12.5, -0.0, 1e-300, 0.1 + 0.2])
    write_max_difference_csv(tmp_path / "md.csv", times, values)
    expected = _csv_writer_bytes([["t", "M_d"]] + [[repr(float(t)), repr(float(v))]
                                                    for t, v in zip(times, values)])
    assert (tmp_path / "md.csv").read_bytes() == expected
