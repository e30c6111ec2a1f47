"""Sampled transition structure between partition cells.

Whether the time-T image of one cell meets another is undecidable exactly,
so admissibility is estimated Ulam-style: draw seeded samples in every
cell, advance them, and record the cells they land in. Higher-order
tensors reuse the same per-cell sample streams, which makes prefix closure
across orders exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from ._rng import STREAM_TRANSITIONS, derive_rng
from .cover import _PAIR_CHUNK, Partition, _squared_distances
from .errors import SamplingError
from .flow import FlowModel, IntegratorConfig, walk_open_rows
from .segments import SegmentLibrary

Array = np.ndarray

__all__ = [
    "TransitionMatrix",
    "MarkovMatrix",
    "TransitionTensor",
    "ExpansionVerdict",
    "sample_itineraries",
    "transitions_from_itineraries",
    "row_sensitivity",
    "expanding_to_depth",
    "ball_successors",
    "ball_admissibility",
    "transitions_to_json",
    "transitions_from_json",
    "tensor_to_json",
    "tensor_from_json",
]

_DENSE_JSON_LIMIT = 512
# the rejection sampler takes cells in consecutive groups whose first-round
# draws, the largest of any round, add up to at most this many points
_ROUND_POINTS = 1 << 18


@dataclass(eq=False)
class TransitionMatrix:
    """Sampled admissibility table: admissible[m-1, n-1] says some sample of
    cell m landed in cell n. counts holds the raw tallies; escapes counts
    samples that left the partition entirely."""

    admissible: Array
    counts: Array
    escapes: Array

    def __post_init__(self):
        self.admissible = np.asarray(self.admissible, dtype=bool)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.escapes = np.asarray(self.escapes, dtype=np.int64)
        n = self.admissible.shape[0]
        if self.admissible.shape != (n, n) or self.counts.shape != (n, n):
            raise ValueError("admissible and counts must be square and same-shaped")
        if self.escapes.shape != (n,):
            raise ValueError("escapes must have one entry per cell")
        if np.any((self.counts > 0) & ~self.admissible):
            raise ValueError("counts[m][n] > 0 requires admissible[m][n]")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def n_cells(self) -> int:
        return self.admissible.shape[0]

    @property
    def landed(self) -> Array:
        return self.counts.sum(axis=1)

    @property
    def unsupported_rows(self) -> set[int]:
        return {int(m) + 1 for m in np.flatnonzero(self.landed == 0)}

    def escape_fractions(self) -> Array:
        total = self.landed + self.escapes
        with np.errstate(invalid="ignore"):
            frac = np.where(total > 0, self.escapes / np.maximum(total, 1), 0.0)
        return frac


@dataclass(eq=False)
class MarkovMatrix:
    """Row-stochastic landing probabilities on supported rows."""

    p: Array

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        n = self.p.shape[0]
        if self.p.shape != (n, n) or np.any(self.p < 0):
            raise ValueError("p must be a square nonnegative matrix")

    @property
    def n_cells(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True, eq=False)
class TransitionTensor:
    """Admissible cell itineraries of a fixed length, as an (n, order) int64
    table of distinct rows in lexicographic order, made from any table of rows."""

    order: int
    tuples: Array
    n_cells: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"tensor order must be at least 2, got {self.order}")
        try:
            rows = np.asarray(self.tuples, dtype=np.int64)
        except OverflowError:  # a symbol past int64 is outside 1..n_cells, named below
            rows = np.asarray(self.tuples, dtype=object)
        if rows.shape == (0,):
            rows = rows.reshape(0, self.order)
        if rows.ndim != 2 or rows.shape[1] != self.order:
            raise ValueError(f"tuples must be a table of order-{self.order} rows, "
                             f"got shape {rows.shape}")
        bad = np.any((rows < 1) | (rows > self.n_cells), axis=1)
        if np.any(bad):
            raise ValueError(f"tuple {tuple(rows[np.argmax(bad)].tolist())} has a symbol "
                             f"outside 1..{self.n_cells}")
        object.__setattr__(self, "tuples", _rank_rows(rows)[1])


def _rank_rows(table: Array) -> tuple[Array, Array]:
    """(rank of each row among the distinct rows, the distinct rows), in lexicographic order."""
    by_row = np.lexsort(table.T[::-1])
    ordered = table[by_row]
    first = np.ones(by_row.shape[0], dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks = np.empty(by_row.shape[0], dtype=np.int64)
    ranks[by_row] = np.cumsum(first) - 1
    return ranks, ordered[first]


@dataclass
class ExpansionVerdict:
    """Finite-depth check of the expanding-tensor property.

    witness_failures holds tuples refuted with their whole extension window
    available; inconclusive holds tuples whose window runs past the deepest
    tensor, where no verdict is possible either way.
    """

    expanding_up_to_depth: bool
    witness_failures: list
    inconclusive: list
    depth: int
    m_max: int


def _draw_cell_starts(partition: Partition, count: int, rng_seed: int,
                      max_draw_factor: int = 200, counters: dict | None = None) -> Array:
    """``count`` uniform samples of each ball that the partition assigns to
    the ball's own cell, as (n_cells * count, d), cell by cell.

    Cell n draws from its own stream derive_rng(rng_seed, STREAM_TRANSITIONS,
    n) in rounds of m points, normals for the directions and then uniforms
    for the radii, until it holds ``count`` hits or has drawn
    max_draw_factor * count points; it keeps its first hits in draw order.
    Cells go in consecutive groups of at most about _ROUND_POINTS draws per
    round, and each round of a group assigns the draws of all its unfinished
    cells in one :meth:`Partition.assign_many` call, so the result is that
    of sampling each cell alone. The lowest cell left short raises a
    SamplingError. When ``counters`` is given, "start_draws" (points drawn)
    and "start_hits" (draws in their own cell, kept or not) are added to it.
    """
    centers, radii = partition.cover.centers, partition.cover.radii
    n_cells, d = centers.shape
    budget = max_draw_factor * count
    out = np.empty((n_cells, count, d))
    n_draws = n_hits = 0
    group = max(1, _ROUND_POINTS // max(1, min(max(4 * count, 64), budget)))
    for lo in range(0, n_cells, group):
        ids = np.arange(lo + 1, min(lo + group, n_cells) + 1)
        rngs = [derive_rng(rng_seed, STREAM_TRANSITIONS, cell) for cell in ids.tolist()]
        got = np.zeros(ids.shape[0], dtype=np.int64)
        drawn = np.zeros(ids.shape[0], dtype=np.int64)
        while True:
            todo = np.flatnonzero((got < count) & (drawn < budget))
            if todo.shape[0] == 0:
                break
            m = np.minimum(np.maximum(4 * (count - got[todo]), 64), budget - drawn[todo])
            drawn[todo] += m
            pts = []
            for i, size in zip(todo.tolist(), m.tolist()):
                u = rngs[i].normal(size=(size, d))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                r = radii[lo + i] * rngs[i].random(size) ** (1.0 / d)
                pts.append(centers[lo + i] + r[:, None] * u)
            pts = np.concatenate(pts, axis=0)
            owner = np.repeat(todo, m)
            hits = np.flatnonzero(partition.assign_many(pts) == ids[owner])
            n_draws += owner.shape[0]
            n_hits += hits.shape[0]
            own = owner[hits]
            # hits come grouped by cell: each goes after the cell's earlier ones
            slot = got[own] + np.arange(hits.shape[0]) - np.searchsorted(own, own)
            keep = slot < count
            out[lo + own[keep], slot[keep]] = pts[hits[keep]]
            got += np.bincount(own[keep], minlength=ids.shape[0])
        if np.any(got < count):
            i = int(np.argmax(got < count))
            raise SamplingError(
                f"cell {ids[i]}: rejection sampling produced {got[i]}/{count} points "
                f"after {drawn[i]} draws; the cell is a vanishing fraction of its ball")
    if counters is not None:
        counters["start_draws"] = counters.get("start_draws", 0) + n_draws
        counters["start_hits"] = counters.get("start_hits", 0) + n_hits
    return out.reshape(n_cells * count, d)


def sample_itineraries(model: FlowModel, partition: Partition, horizon: float,
                       n_steps: int, samples_per_cell: int, cfg: IntegratorConfig,
                       rng_seed: int, max_draw_factor: int = 200,
                       counters: dict | None = None) -> tuple[Array, Array]:
    """Seeded cell samples and their cell itineraries over ``n_steps`` hops of T.

    Returns (starts of shape (M, d), itineraries of shape (M, n_steps + 1));
    itinerary entry 0 is the source cell and 0 marks an escape. Entries after
    the first escape are 0: an itinerary is only trusted up to the time it
    leaves the partition, so a sample stops being integrated there
    (:func:`~segdyn.flow.walk_open_rows`). Start points depend only on
    (rng_seed, cell), so different n_steps see identical samples. When
    ``counters`` is given, "rows_dropped" (samples that stopped before the
    last hop) and the start sampler's "start_draws" and "start_hits" are
    added to it.
    """
    n_cells = partition.n_cells
    starts = _draw_cell_starts(partition, samples_per_cell, rng_seed, max_draw_factor,
                               counters)
    itins = np.zeros((starts.shape[0], n_steps + 1), dtype=np.int64)
    itins[:, 0] = np.repeat(np.arange(1, n_cells + 1), samples_per_cell)

    def visit(k, rows, y):
        if k == 0:
            return None
        cells = partition.assign_many(y)
        itins[rows, k] = cells
        return cells == 0

    dropped = walk_open_rows(model, starts, horizon, n_steps, cfg, visit)
    if counters is not None:
        counters["rows_dropped"] = counters.get("rows_dropped", 0) + dropped
    return starts, itins


def transitions_from_itineraries(itins: Array, n_cells: int, orders: Sequence[int] = ()
                                 ) -> tuple[TransitionMatrix, MarkovMatrix, list]:
    """Ulam-style transition matrix, landing probabilities and tensors.

    Gamma[m][n] is set when at least one itinerary goes from cell m to cell n
    in its first hop. Probabilities divide by the landed samples of each
    row; escapes are tallied separately and excluded from the denominator.
    The order-k tensor for each k in ``orders`` holds the alive length-k
    prefixes, so tensors built from one set of itineraries are prefix closed
    by construction.
    """
    full = np.zeros((n_cells + 1, n_cells + 1), dtype=np.int64)
    np.add.at(full, (itins[:, 0], itins[:, 1]), 1)
    counts = full[1:, 1:]
    # a row with nothing landed is all zeros, and 0 / 1 leaves it so
    p = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
    tensors = [TransitionTensor(order=k, tuples=itins[np.all(itins[:, :k] > 0, axis=1), :k],
                                n_cells=n_cells) for k in orders]
    return (TransitionMatrix(admissible=counts > 0, counts=counts, escapes=full[1:, 0]),
            MarkovMatrix(p=p), tensors)


def _admissible_rows(gamma) -> Array:
    if isinstance(gamma, TransitionMatrix):
        return gamma.admissible
    return np.asarray(gamma, dtype=bool)


def row_sensitivity(gamma) -> bool:
    """Whether every supported row of Gamma has at least two admissible
    successors, the hypothesis under which the shift map has sensitive
    dependence. Rows with no successors at all carry no information and are
    skipped."""
    rows = _admissible_rows(gamma)
    degrees = rows.sum(axis=1)
    supported = degrees > 0
    return bool(np.all(degrees[supported] >= 2))


def expanding_to_depth(tensors: Sequence[TransitionTensor], m_max: int) -> ExpansionVerdict:
    """Finite-depth version of the expanding-tensor chaos criterion.

    For every admissible tuple of order j < K (including single symbols),
    looks for some extension length m <= min(m_max, K - j) at which at least
    two different final symbols are admissible. A tuple with no certificate
    counts as a failure only when its whole search window fit inside the
    available depth (j + m_max <= K); otherwise it is inconclusive and does
    not flip the verdict. The unbounded property is never certified.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    by_order = {t.order: t.tuples for t in tensors}
    depth = max(by_order)
    if sorted(by_order) != list(range(2, depth + 1)):
        raise ValueError(f"need consecutive tensor orders 2..{depth}, got {sorted(by_order)}")

    # the symbols of the order-2 rows (np.unique's first call on ints maps 1.5 MB)
    checks = [np.flatnonzero(np.bincount(by_order[2].ravel()))[:, None]]
    checks += [by_order[k] for k in range(2, depth)]
    failures, inconclusive = [], []
    for rows in checks:
        n, j = rows.shape
        ok = np.zeros(n, dtype=bool)
        for m in range(1, min(m_max, depth - j) + 1):
            longer = by_order[j + m]
            # rank the rows with the longer tuples' j-prefixes; count distinct finals per rank
            ranks, _ = _rank_rows(np.concatenate([rows, longer[:, :j]]))
            _, pairs = _rank_rows(np.stack([ranks[n:], longer[:, -1]], axis=1))
            ok |= np.bincount(pairs[:, 0], minlength=ranks.shape[0])[ranks[:n]] >= 2
        (failures if j + m_max <= depth else inconclusive).extend(map(tuple, rows[~ok].tolist()))
    return ExpansionVerdict(expanding_up_to_depth=not failures,
                            witness_failures=failures, inconclusive=inconclusive,
                            depth=depth, m_max=m_max)


def ball_successors(lib: SegmentLibrary, partition: Partition, rho: Sequence[float],
                    cells: Sequence[int] | None = None) -> list[Array]:
    """Successor cells admitted by the gradient-ball rule, as an ascending
    array of cell ids for each of ``cells`` (default: every cell, in order).

    r_n is the gap from segment start n to its nearest other start; n_* is
    the start nearest to the segment's endpoint (the first on ties). Every
    cell whose start lies within rho_n * r_n of start n_* qualifies (n_*
    always does). Cells are taken in blocks, with one (block, N) table per
    distance; each distance is the norm of ``np.linalg.norm`` on one row,
    bit for bit.
    """
    n_cells = lib.n_segments
    if partition.n_cells != n_cells:
        raise ValueError("partition and library disagree on the number of cells")
    if n_cells < 2:
        raise ValueError("the nearest-neighbor gap r_n needs at least two segments")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (n_cells,):
        raise ValueError(f"rho must have one entry per cell, got shape {rho.shape}")
    cells = np.arange(1, n_cells + 1) if cells is None else np.asarray(cells, dtype=np.int64)
    outside = (cells < 1) | (cells > n_cells)
    if np.any(outside):
        raise ValueError(f"cell id {cells[outside][0]} out of range 1..{n_cells}")
    starts = np.ascontiguousarray(lib.starts().T)
    ends = lib.ends().T

    def norms(points: Array) -> Array:
        """(block, N) distances from the (d, block) points to every start."""
        return np.sqrt(_squared_distances(points[:, :, None], starts[:, None, :]))

    found = []
    step = max(1, _PAIR_CHUNK // n_cells)
    for lo in range(0, cells.shape[0], step):
        own = cells[lo:lo + step] - 1
        rows = np.arange(own.shape[0])
        gaps = norms(starts[:, own])
        gaps[rows, own] = np.inf
        n_star = norms(ends[:, own]).argmin(axis=1)
        near = norms(starts[:, n_star]) <= (rho[own] * gaps.min(axis=1))[:, None]
        near[rows, n_star] = True
        found.extend(np.flatnonzero(row) + 1 for row in near)
    return found


def ball_admissibility(lib: SegmentLibrary, partition: Partition,
                       rho: Sequence[float], cell: int) -> set[int]:
    """The :func:`ball_successors` of one cell, as a set."""
    return set(ball_successors(lib, partition, rho, [cell])[0].tolist())


def transitions_to_json(tm: TransitionMatrix, mm: MarkovMatrix, rng_seed: int,
                        samples_per_cell: int) -> dict:
    """JSON document for Gamma, counts, p and escape fractions.

    Dense tables up to 512 cells, sparse (row, col, value) triplets above.
    """
    n = tm.n_cells
    doc: dict = {
        "n_cells": n,
        "rng_seed": rng_seed,
        "samples_per_cell": samples_per_cell,
        "unsupported_rows": sorted(tm.unsupported_rows),
        "escapes": tm.escapes.tolist(),
        "escape_fractions": [round(v, 12) for v in tm.escape_fractions().tolist()],
    }
    if n <= _DENSE_JSON_LIMIT:
        doc["format"] = "dense"
        doc["admissible"] = tm.admissible.astype(int).tolist()
        doc["counts"] = tm.counts.tolist()
        doc["p"] = mm.p.tolist()
    else:
        doc["format"] = "sparse"
        rows, cols = np.nonzero(tm.counts)
        doc["counts"] = [[int(r) + 1, int(c) + 1, int(tm.counts[r, c])]
                         for r, c in zip(rows, cols)]
        doc["p"] = [[int(r) + 1, int(c) + 1, float(mm.p[r, c])]
                    for r, c in zip(rows, cols)]
    return doc


def _triplets(entries, n: int, what: str, counts: bool = False) -> tuple[Array, Array, Array]:
    """0-based rows and columns, and values, of sparse (row, col, value)
    triplets; ids must be JSON integers in 1..n, no (row, col) pair may
    repeat, and values must be nonnegative (for ``counts``, JSON integers
    that fit in int64)."""
    t = np.asarray(entries, dtype=float)
    if t.shape == (0,):
        t = t.reshape(0, 3)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"{what} must be a list of (row, col, value) triplets")
    ints = (0, 1, 2) if counts else (0, 1)
    if not set(map(type, chain.from_iterable(map(itemgetter(*ints), entries)))) <= {int}:
        i, k = next((i, k) for i, e in enumerate(entries) for k in ints if type(e[k]) is not int)
        raise ValueError(f"{what} entry {i}: {('row', 'col', 'value')[k]} "
                         f"{json.dumps(entries[i][k])} is not "
                         f"{f'a cell id in 1..{n}' if k < 2 else 'an int64 count'}")
    ids = t[:, :2]
    bad = ~((ids >= 1) & (ids <= n))
    if np.any(bad):
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"{what} entry {i}: {('row', 'col')[k]} {ids[i, k]:g} "
                         f"is not a cell id in 1..{n}")
    if not np.all(t[:, 2] >= 0):
        i = int(np.argmin(t[:, 2] >= 0))
        raise ValueError(f"{what} entry {i}: value {t[i, 2]:g} is not a nonnegative number")
    values = t[:, 2]
    if counts:
        try:
            values = np.array(list(map(itemgetter(2), entries)), dtype=np.int64)
        except OverflowError:
            i = next(i for i, e in enumerate(entries) if e[2] > np.iinfo(np.int64).max)
            raise ValueError(f"{what} entry {i}: value {entries[i][2]} is not an int64 count")
    rows, cols = ids[:, 0].astype(np.int64) - 1, ids[:, 1].astype(np.int64) - 1
    key = rows * n + cols
    _, first = np.unique(key, return_index=True)
    if first.size < key.size:
        i = int(np.setdiff1d(np.arange(key.size), first)[0])
        raise ValueError(f"{what} entry {i}: cell pair ({rows[i] + 1}, {cols[i] + 1}) "
                         f"repeats an earlier entry")
    return rows, cols, values


def _json_counts(values, ndim: int, what: str) -> Array:
    """The int64 array of a list (ndim 1) or table (ndim 2) of counts; each
    must be a nonnegative JSON integer in int64 range, so a float, string or
    boolean is refused rather than truncated."""
    cells = np.asarray(values, dtype=object)
    if cells.ndim != ndim:
        raise ValueError(f"{what} must be a {('list', 'table')[ndim - 1]} of counts")
    for i, v in enumerate(cells.flat):
        if type(v) is not int or not 0 <= v <= np.iinfo(np.int64).max:
            at = (f"cell {i + 1}" if ndim == 1 else
                  f"cell pair ({i // cells.shape[1] + 1}, {i % cells.shape[1] + 1})")
            raise ValueError(f"{what} must be nonnegative JSON integers; "
                             f"{at} holds {json.dumps(v)}")
    return cells.astype(np.int64)


def transitions_from_json(doc: dict) -> tuple[TransitionMatrix, MarkovMatrix]:
    """The tables of a ``transitions.json`` document. Escapes and dense counts
    are checked as sparse counts are, and a dense ``admissible`` must equal
    ``counts > 0``."""
    n = doc["n_cells"]
    escapes = _json_counts(doc["escapes"], 1, "escapes")
    if doc["format"] == "dense":
        counts = _json_counts(doc["counts"], 2, "counts")
        p = np.asarray(doc["p"], dtype=float)
        admissible = np.asarray(doc["admissible"], dtype=bool)
        if p.shape != counts.shape:
            raise ValueError(f"p has shape {p.shape}, counts has shape {counts.shape}")
        if admissible.shape == counts.shape and np.any(admissible & (counts == 0)):
            r, c = np.argwhere(admissible & (counts == 0))[0]
            raise ValueError(f"admissible cell pair ({r + 1}, {c + 1}) has count 0")
    else:
        counts = np.zeros((n, n), dtype=np.int64)
        p = np.zeros((n, n))
        r, c, v = _triplets(doc["counts"], n, "counts", counts=True)
        counts[r, c] = v
        r, c, v = _triplets(doc["p"], n, "p")
        missing = counts[r, c] == 0
        if np.any(missing):
            i = int(np.argmax(missing))
            raise ValueError(f"p entry {i}: cell pair ({r[i] + 1}, {c[i] + 1}) has count 0")
        p[r, c] = v
        admissible = counts > 0
    return (TransitionMatrix(admissible=admissible, counts=counts, escapes=escapes),
            MarkovMatrix(p=p))


def tensor_to_json(tensor: TransitionTensor) -> dict:
    return {"order": tensor.order, "n_cells": tensor.n_cells, "tuples": tensor.tuples}


def tensor_from_json(doc: dict) -> TransitionTensor:
    """The tensor of a ``tensors.json`` entry; ``order``, ``n_cells`` and every
    symbol of a tuple (a list of ``order`` of them) must be JSON integers, not
    floats, strings or booleans."""
    for field in ("order", "n_cells"):
        if type(doc[field]) is not int:
            raise ValueError(f"{field} {json.dumps(doc[field])} is not a JSON integer")
    tuples, order = doc["tuples"], doc["order"]
    if not (set(map(type, tuples)) <= {list}
            and set(map(type, chain.from_iterable(tuples))) <= {int}):
        i, t = next((i, t) for i, t in enumerate(tuples)
                    if type(t) is not list or not set(map(type, t)) <= {int})
        raise ValueError(f"tuples entry {i}: {json.dumps(t)} is not a list of integer cell ids")
    if not set(map(len, tuples)) <= {order}:
        i, t = next((i, t) for i, t in enumerate(tuples) if len(t) != order)
        raise ValueError(f"tuples entry {i}: {json.dumps(t)} does not have order {order}")
    return TransitionTensor(order=order, tuples=tuples, n_cells=doc["n_cells"])
