"""Segment libraries: one finite-time solution piece per cover cell.

Segment n starts at cover center n and is sampled on a uniform grid over
[0, T]; every segment in a library shares the same grid.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .atomic import write_atomic, write_json
from .cover import Cover, diameters
from .errors import BlowupError
from .flow import FlowModel, IntegratorConfig, TrajectorySample, sample_path

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
_SEGMENTS_CSV = "segments.csv"
# rows of segments.csv per written block
_CSV_ROWS = 1 << 12


@dataclass(eq=False)
class SegmentLibrary:
    """All segments of a cover on a shared time grid.

    states has shape (N, n_t, d); row n-1 is the segment launched from cover
    center n. epsilon echoes the tolerance the cover radii were calibrated
    against (NaN when the cover was built some other way).
    """

    cells: Array
    times: Array
    states: Array
    horizon: float
    epsilon: float
    model_id: str
    step: float

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        n, k, _ = self.states.shape
        if self.cells.shape != (n,) or self.times.shape != (k,):
            raise ValueError("inconsistent library shapes")
        if list(self.cells) != list(range(1, n + 1)):
            raise ValueError("library must hold exactly one segment per cell, ids 1..N")

    @property
    def n_segments(self) -> int:
        return self.states.shape[0]

    @property
    def n_times(self) -> int:
        return self.states.shape[1]

    @property
    def dimension(self) -> int:
        return self.states.shape[2]

    def starts(self) -> Array:
        return self.states[:, 0, :]

    def ends(self) -> Array:
        return self.states[:, -1, :]

    def segment(self, cell: int) -> TrajectorySample:
        if not 1 <= cell <= self.n_segments:
            raise ValueError(f"cell id {cell} out of range 1..{self.n_segments}")
        return TrajectorySample(times=self.times, states=self.states[cell - 1])


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
        cells=np.arange(1, cover.n_balls + 1),
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
    """Persist as library.json (metadata) plus segments.csv (samples)."""
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
    }
    write_json(directory / _LIBRARY_JSON, meta)
    header = ",".join(["cell", "k", "t"] + [f"coord_{i}" for i in range(lib.dimension)])
    write_atomic(directory / _SEGMENTS_CSV, chain((header + "\r\n",), _segment_rows(lib)))


def _segment_rows(lib: SegmentLibrary):
    """The rows of segments.csv, about _CSV_ROWS at a time, in the bytes
    csv.writer would write: fields are reprs, which it never quotes, and
    rows end in \r\n."""
    times = [repr(t) for t in lib.times.tolist()]
    cells = max(1, _CSV_ROWS // max(1, lib.n_times))
    for lo in range(0, lib.n_segments, cells):
        yield "".join(f"{n},{k},{times[k]}," + ",".join(map(repr, state)) + "\r\n"
                      for n, segment in enumerate(lib.states[lo:lo + cells].tolist(),
                                                  start=lo + 1)
                      for k, state in enumerate(segment))


def _lines(fh) -> int:
    """The lines of a text file, read from its start in blocks: its line
    breaks, plus one for a last line without one."""
    fh.seek(0)
    breaks, last = 0, ""
    for block in iter(lambda: fh.read(1 << 16), ""):
        breaks += block.count("\n")
        last = block[-1]
    return breaks + (last != "\n")


def _first_unparsable_row(path: Path, fields: int) -> None:
    """Raise a ValueError naming the first row of segments.csv that has the
    wrong number of fields or a field that is not a number."""
    reader = csv.reader(io.StringIO(path.read_text(encoding="utf-8")))
    next(reader, None)
    for line, row in enumerate(reader, start=2):
        if len(row) != fields:
            raise ValueError(f"segments.csv line {line}: {len(row)} fields, expected {fields}")
        [float(v) for v in row]


def load_library(directory) -> SegmentLibrary:
    """Read a saved library. segments.csv must hold every (cell, k) row
    exactly once, with 3 + d fields each; anything else is a ValueError."""
    directory = Path(directory)
    with open(directory / _LIBRARY_JSON, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    n, k, d = meta["n_cells"], meta["segment_samples"], meta["dimension"]
    path = directory / _SEGMENTS_CSV
    with open(path, "r", encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline().partition("\n")[0]]), [])
        if header[:3] != ["cell", "k", "t"]:
            raise ValueError(f"unexpected segments.csv header: {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no rows
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            _first_unparsable_row(path, 3 + d)
            raise
        rows = _lines(fh) - 1
    # loadtxt skips blank lines; each one is a row of 0 fields
    if data.shape[0] != rows:
        _first_unparsable_row(path, 3 + d)
    if data.size == 0:
        data = data.reshape(0, 3 + d)
    elif data.shape[1] != 3 + d:
        raise ValueError(f"segments.csv line 2: {data.shape[1]} fields, expected {3 + d}")
    cell, kk = data[:, 0], data[:, 1]
    valid = ((cell == np.floor(cell)) & (kk == np.floor(kk))
             & (1 <= cell) & (cell <= n) & (0 <= kk) & (kk < k))
    row = np.where(valid, (cell - 1) * k + kk, -1.0 - np.arange(data.shape[0]))
    order = np.argsort(row, kind="stable")
    # a repeat is every occurrence of a (cell, k) row after its first
    valid[order[1:][row[order[1:]] == row[order[:-1]]]] = False
    if not valid.all():
        bad = int(np.flatnonzero(~valid)[0])
        raise ValueError(f"segments.csv line {bad + 2}: (cell {cell[bad]:g}, k {kk[bad]:g}) "
                         f"is out of range or repeated")
    if data.shape[0] != n * k:
        raise ValueError(f"segments.csv holds {data.shape[0]} of the {n * k} (cell, k) rows")
    cells, ks = cell.astype(np.int64) - 1, kk.astype(np.int64)
    states = np.empty((n, k, d))
    times = np.empty(k)
    times[ks] = data[:, 2]
    states[cells, ks] = data[:, 3:]
    eps = meta["epsilon"]
    return SegmentLibrary(
        cells=np.arange(1, n + 1),
        times=times,
        states=states,
        horizon=float(meta["horizon"]),
        epsilon=math.nan if eps is None else float(eps),
        model_id=meta["model_id"],
        step=float(meta["integrator_step"]),
    )


def write_max_difference_csv(path, times: Array, values: Array) -> None:
    """t, M_d rows, in the bytes csv.writer would write (see save_library)."""
    rows = zip(np.asarray(times, dtype=float).tolist(), np.asarray(values, dtype=float).tolist())
    write_atomic(path, ["t,M_d\r\n" + "".join(f"{t!r},{v!r}\r\n" for t, v in rows)])
