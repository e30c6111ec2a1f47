"""Segment libraries: one finite-time solution piece per cover cell.

Segment n starts at cover center n and is sampled on a uniform grid over
[0, T]; every segment in a library shares the same grid.

A saved library is a directory of two files: ``library.json``, the metadata
and the K grid times as JSON numbers, and ``segments.npy``, the (N, K, d)
states as one NPY v1.0 array of little-endian float64 in C order, written
from the array's buffer and read back into one, so both round-trip bitwise.
Any NPY reader reads the states: ``np.load(path, allow_pickle=False)``.
"""
from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic, write_json
from .cover import Cover, diameters
from .errors import BlowupError
from .flow import FlowModel, IntegratorConfig, _finite_number, sample_path

Array = np.ndarray

__all__ = [
    "SegmentLibrary",
    "build_segments",
    "max_difference",
    "save_library",
    "load_library",
    "write_max_difference_csv",
]

_LIBRARY_JSON = "library.json"
_SEGMENTS_NPY = "segments.npy"
# the one layout segments.npy holds: little-endian float64
_DTYPE = "<f8"


@dataclass(eq=False)
class SegmentLibrary:
    """All segments of a cover on a shared time grid.

    states has shape (N, n_t, d); row n-1 is the segment launched from cover
    center n. epsilon echoes the tolerance the cover radii were calibrated
    against (NaN when the cover was built some other way).
    """

    times: Array
    states: Array
    horizon: float
    epsilon: float
    model_id: str
    step: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        _, k, _ = self.states.shape
        if self.times.shape != (k,):
            raise ValueError("inconsistent library shapes")

    @property
    def n_segments(self) -> int:
        return self.states.shape[0]

    @property
    def n_times(self) -> int:
        return self.states.shape[1]

    @property
    def dimension(self) -> int:
        return self.states.shape[2]

    def ends(self) -> Array:
        return self.states[:, -1, :]


def build_segments(model: FlowModel, cover: Cover, horizon: float, n_samples: int,
                   cfg: IntegratorConfig, epsilon: float = math.nan) -> SegmentLibrary:
    """Integrate one segment from every cover center over [0, horizon]."""
    try:
        times, states = sample_path(model, cover.centers, horizon, n_samples, cfg)
    except BlowupError as err:
        cell = err.batch_index + 1 if err.batch_index is not None else "?"
        raise BlowupError(time=err.time, message=(
            f"segment for cell {cell} became non-finite at t~{err.time:.6g}")) from err
    return SegmentLibrary(
        times=times,
        states=states,
        horizon=float(horizon),
        epsilon=float(epsilon),
        model_id=model.model_id,
        step=float(cfg.step),
    )


def max_difference(lib: SegmentLibrary) -> Array:
    """Largest pairwise distance between segments at each grid time: the
    :func:`~segdyn.cover.diameters` of the N segment states at each time."""
    return diameters(lib.states.transpose(1, 0, 2))


def save_library(lib: SegmentLibrary, directory) -> None:
    """Persist as library.json (metadata and the time grid) plus segments.npy
    (the states: one NPY v1.0 array, little-endian float64, C order, shape
    (N, K, d)), which ``np.load(path, allow_pickle=False)`` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "n_cells": lib.n_segments,
        "segment_samples": lib.n_times,
        "dimension": lib.dimension,
        "horizon": lib.horizon,
        "epsilon": None if math.isnan(lib.epsilon) else lib.epsilon,
        "model_id": lib.model_id,
        "integrator_step": lib.step,
        "times": lib.times.tolist(),
    }
    write_json(directory / _LIBRARY_JSON, meta)
    states = np.ascontiguousarray(lib.states, dtype=_DTYPE)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": _DTYPE, "fortran_order": False, "shape": states.shape})
    write_atomic(directory / _SEGMENTS_NPY, (header.getvalue(), states))


def _read_states(path: Path, shape: tuple) -> Array:
    """The states array of segments.npy, which must be an NPY v1.0 file of a
    little-endian float64 C-order array of ``shape`` and nothing after it."""
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"NPY version {version[0]}.{version[1]}, not 1.0")
            stored, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as err:
            raise ValueError(f"segments.npy: {err}") from None
        if dtype.str != _DTYPE or fortran:
            raise ValueError(f"segments.npy holds {dtype.str} in "
                             f"{'Fortran' if fortran else 'C'} order, not {_DTYPE} in C order")
        if stored != shape:
            raise ValueError(f"segments.npy has shape {stored}, library.json says {shape}")
        states = np.empty(shape, dtype=_DTYPE)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != states.nbytes:
            raise ValueError(f"segments.npy holds {size} data bytes, not {states.nbytes}")
        fh.readinto(states)
    return states


def load_library(directory) -> SegmentLibrary:
    """Read a saved library. library.json must give the shape (N, K, d) as
    JSON integers, K finite times and a finite horizon, integrator_step and
    epsilon as JSON numbers (epsilon may be null, read as NaN); segments.npy
    must hold exactly that array (see save_library), every sample finite.
    Anything else is a ValueError."""
    directory = Path(directory)
    with open(directory / _LIBRARY_JSON, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    shape = (meta["n_cells"], meta["segment_samples"], meta["dimension"])
    if not all(type(v) is int and v >= 0 for v in shape):
        raise ValueError(f"library.json shape {shape} is not three nonnegative JSON integers")
    times = meta["times"]
    if type(times) is not list or len(times) != shape[1] or not all(map(_finite_number, times)):
        raise ValueError(f"library.json times are not {shape[1]} finite JSON numbers")
    for field in ("horizon", "integrator_step", "epsilon"):
        value = meta[field]
        if not (_finite_number(value) or field == "epsilon" and value is None):
            raise ValueError(f"library.json {field} {json.dumps(value)} "
                             f"is not a finite JSON number")
    states = _read_states(directory / _SEGMENTS_NPY, shape)
    finite = np.isfinite(states)
    if not finite.all():
        n, k, i = np.argwhere(~finite)[0]
        raise ValueError(f"segments.npy: cell {n + 1}, sample {k}, coordinate {i} "
                         f"is {states[n, k, i]}")
    eps = meta["epsilon"]
    return SegmentLibrary(
        times=np.array(times, dtype=float),
        states=states,
        horizon=float(meta["horizon"]),
        epsilon=math.nan if eps is None else float(eps),
        model_id=meta["model_id"],
        step=float(meta["integrator_step"]),
    )


def write_max_difference_csv(path, times: Array, values: Array) -> None:
    """t, M_d rows, in the bytes csv.writer would write: fields are reprs,
    which it never quotes, and rows end in \\r\\n."""
    rows = zip(np.asarray(times, dtype=float).tolist(), np.asarray(values, dtype=float).tolist())
    write_atomic(path, ["t,M_d\r\n" + "".join(f"{t!r},{v!r}\r\n" for t, v in rows)])
