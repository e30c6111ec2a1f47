"""Segment libraries: one finite-time solution piece per cover cell.

Segment n starts at cover center n and is sampled on a uniform grid over
[0, T]; every segment in a library shares the same grid.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cover import Cover
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
    """Largest pairwise distance between segments at each grid time."""
    n = lib.n_segments
    out = np.zeros(lib.n_times)
    if n < 2:
        return out
    for k in range(lib.n_times):
        x = lib.states[:, k, :]
        best = 0.0
        for start in range(0, n, 1024):
            chunk = x[start:start + 1024]
            d2 = ((chunk[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
            best = max(best, float(d2.max()))
        out[k] = math.sqrt(best)
    return out


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
    with open(directory / _LIBRARY_JSON, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(directory / _SEGMENTS_CSV, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "k", "t"] + [f"coord_{i}" for i in range(lib.dimension)])
        for n in range(lib.n_segments):
            for k in range(lib.n_times):
                writer.writerow([n + 1, k, repr(float(lib.times[k]))]
                                + [repr(float(v)) for v in lib.states[n, k]])


def load_library(directory) -> SegmentLibrary:
    """Read a saved library. segments.csv must hold every (cell, k) row
    exactly once, with 3 + d fields each; anything else is a ValueError."""
    directory = Path(directory)
    with open(directory / _LIBRARY_JSON, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    n, k, d = meta["n_cells"], meta["segment_samples"], meta["dimension"]
    states = np.empty((n, k, d))
    times = np.empty(k)
    seen = np.zeros((n, k), dtype=bool)
    with open(directory / _SEGMENTS_CSV, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["cell", "k", "t"]:
            raise ValueError(f"unexpected segments.csv header: {header}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 3 + d:
                raise ValueError(f"segments.csv line {line}: {len(row)} fields, expected {3 + d}")
            cell, kk = int(row[0]), int(row[1])
            if not (1 <= cell <= n and 0 <= kk < k) or seen[cell - 1, kk]:
                raise ValueError(f"segments.csv line {line}: (cell {cell}, k {kk}) "
                                 f"is out of range or repeated")
            seen[cell - 1, kk] = True
            times[kk] = float(row[2])
            states[cell - 1, kk] = [float(v) for v in row[3:]]
    if not seen.all():
        raise ValueError(f"segments.csv holds {int(seen.sum())} of the {n * k} (cell, k) rows")
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "M_d"])
        for t, v in zip(times, values):
            writer.writerow([repr(float(t)), repr(float(v))])
