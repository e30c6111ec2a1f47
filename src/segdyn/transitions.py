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
from typing import Sequence

import numpy as np

from ._rng import STREAM_TRANSITIONS, derive_rng
from .cover import Partition, _BallGrid, _squared_distances
from .errors import BlowupError, SamplingError
from .flow import _BLOCK_ROWS, FlowModel, IntegratorConfig, walk_open_rows
from .segments import SegmentLibrary

Array = np.ndarray

__all__ = [
    "TransitionMatrix",
    "TransitionTensor",
    "ExpansionVerdict",
    "cell_itineraries",
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

_INT64_MAX = 2 ** 63 - 1
# the slack s of the image-ball enclosure (ball_successors): cell m's image
# is taken as a ball of s times its first-order radius
ENCLOSURE_SLACK = 1.0


@dataclass(eq=False)
class TransitionMatrix:
    """Sampled transitions between cells, as CSR arrays: the samples of cell
    m landed in the cells ``indices[indptr[m-1]:indptr[m]] + 1`` (ascending),
    ``counts`` of them in each. Gamma is this pattern: cell m -> n is
    admissible when n - 1 is stored in row m - 1. ``escapes`` counts, per
    cell, the samples that left the partition. ``p`` holds the landing
    probabilities on the same pattern: each count over its row's landed
    samples, so supported rows sum to 1 and escapes are left out."""

    indptr: Array
    indices: Array
    counts: Array
    escapes: Array

    def __post_init__(self):
        self.indptr, self.indices = _checked_pattern(self.indptr, self.indices)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.escapes = np.asarray(self.escapes, dtype=np.int64)
        if self.counts.shape != self.indices.shape:
            raise ValueError("counts must have one entry per stored cell pair")
        if self.escapes.shape != (self.n_cells,):
            raise ValueError("escapes must have one entry per cell")
        if np.any(self.counts <= 0):
            raise ValueError("stored counts must be positive")
        if np.any(self.escapes < 0):
            raise ValueError("escapes must be nonnegative")

    @property
    def n_cells(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def landed(self) -> Array:
        return _row_totals(self.indptr, self.counts)

    @property
    def p(self) -> Array:
        return self.counts / self.landed[_entry_rows(self.indptr)]

    def escape_fractions(self) -> Array:
        total = self.landed + self.escapes
        with np.errstate(invalid="ignore"):
            frac = np.where(total > 0, self.escapes / np.maximum(total, 1), 0.0)
        return frac


def _checked_pattern(indptr, indices) -> tuple[Array, Array]:
    """The int64 indptr and column indices of a CSR pattern on n x n cells,
    n = len(indptr) - 1: indptr runs from 0 to len(indices) without
    decreasing, and each row's columns ascend strictly within 0..n-1."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.ndim != 1 or indptr.shape[0] < 1 or indices.ndim != 1:
        raise ValueError("indptr and indices must be 1-d, indptr of length n_cells + 1")
    n = indptr.shape[0] - 1
    if indptr[0] != 0 or indptr[-1] != indices.shape[0] or np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must run from 0 to len(indices) without decreasing")
    if np.any((indices < 0) | (indices >= n)):
        raise ValueError(f"column indices must lie in 0..{n - 1}")
    rising = np.diff(indices) > 0
    # a row may start below where the one before it ended
    rising[indptr[1:-1][(indptr[1:-1] > 0) & (indptr[1:-1] < indices.shape[0])] - 1] = True
    if not np.all(rising):
        raise ValueError("the column indices of each row must ascend strictly")
    return indptr, indices


def _entry_rows(indptr: Array) -> Array:
    """The 0-based row of every stored entry of a CSR pattern."""
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def _row_totals(indptr: Array, values: Array) -> Array:
    """Per row, the sum of its stored integer values, exactly."""
    running = np.zeros(values.shape[0] + 1, dtype=values.dtype)
    np.cumsum(values, out=running[1:])
    return running[indptr[1:]] - running[indptr[:-1]]


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
            rows = np.array(self.tuples, dtype=np.int64)
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
        # the writer's tables are already sorted and distinct
        object.__setattr__(self, "tuples", rows if _ascending(rows) else _rank_rows(rows)[1])


def _ascending(table: Array) -> bool:
    """Whether the rows of a table ascend strictly in lexicographic order:
    each row exceeds the one before it in the first column where they differ."""
    below, above = table[:-1], table[1:]
    differ = below != above
    at = np.arange(below.shape[0]), np.argmax(differ, axis=1)
    return bool(np.all(differ[at]) and np.all(above[at] > below[at]))


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
    Cells go in consecutive groups whose rounds draw at most _BLOCK_ROWS
    points (one cell whose first round is larger forms a group alone), and
    each round of a group assigns the draws of all its unfinished cells in
    one :meth:`Partition.assign_many` call. So the transient memory is
    bounded by the block, not by n_cells * count, and the result is that of
    sampling each cell alone. The lowest cell left short raises a
    SamplingError. When ``counters`` is given, "start_draws" (points drawn)
    and "start_hits" (draws in their own cell, kept or not) are added to it.
    """
    centers, radii = partition.cover.centers, partition.cover.radii
    n_cells, d = centers.shape
    budget = max_draw_factor * count
    out = np.empty((n_cells, count, d))
    n_draws = n_hits = 0
    group = max(1, _BLOCK_ROWS // max(1, min(max(4 * count, 64), budget)))
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
            stops = np.cumsum(m)
            pts = np.empty((int(stops[-1]), d))
            u = np.empty(pts.shape[0])
            for i, a, b in zip(todo.tolist(), (stops - m).tolist(), stops.tolist()):
                pts[a:b] = rngs[i].normal(size=(b - a, d))
                u[a:b] = rngs[i].random(b - a)
            # each row takes the operations its cell's draws would alone
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts *= (np.repeat(radii[lo + todo], m) * u ** (1.0 / d))[:, None]
            pts += centers[np.repeat(lo + todo, m)]
            hits = np.flatnonzero(partition.assign_many(pts) == np.repeat(ids[todo], m))
            n_draws += pts.shape[0]
            n_hits += hits.shape[0]
            own = todo[np.searchsorted(stops, hits, side="right")]
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


def cell_itineraries(model: FlowModel, partition: Partition, starts: Array, n_hops: int,
                     horizon: float, cfg: IntegratorConfig) -> tuple[Array, int]:
    """The cells of each start at times 0, T, ..., n_hops T, and the number
    of rows that stopped before the last hop.

    Returns an (M, n_hops + 1) int64 table; 0 marks a state outside every
    cell. An itinerary is only trusted up to its first 0, so a row stops
    being integrated there (:func:`~segdyn.flow.walk_open_rows`) and the
    entries after it stay 0. The starts are walked _BLOCK_ROWS rows at a
    time. No row's RK4 bits depend on its batch, so the result is that of
    one walk of every start. A BlowupError names the global row and the
    orbit's time; when rows of several blocks blow up, the first such
    block's row is named, which need not be the first to blow up. The exit
    code stays 2.
    """
    starts = np.asarray(starts, dtype=float)
    itins = np.zeros((starts.shape[0], n_hops + 1), dtype=np.int64)
    dropped = 0
    for lo in range(0, starts.shape[0], _BLOCK_ROWS):
        block = itins[lo:lo + _BLOCK_ROWS]

        def visit(k, rows, y):
            cells = partition.assign_many(y)
            block[rows, k] = cells
            return cells == 0

        try:
            dropped += walk_open_rows(model, starts[lo:lo + _BLOCK_ROWS], horizon, n_hops,
                                      cfg, visit)
        except BlowupError as err:
            raise BlowupError(time=err.time, batch_index=lo + err.batch_index) from None
    return itins, dropped


def sample_itineraries(model: FlowModel, partition: Partition, horizon: float,
                       n_steps: int, samples_per_cell: int, cfg: IntegratorConfig,
                       rng_seed: int, max_draw_factor: int = 200,
                       counters: dict | None = None) -> tuple[Array, Array]:
    """Seeded cell samples and their cell itineraries over ``n_steps`` hops of T.

    Returns (starts of shape (M, d), itineraries of shape (M, n_steps + 1))
    from :func:`_draw_cell_starts` and :func:`cell_itineraries`; itinerary
    entry 0 is the source cell, as every start is drawn inside its own
    cell, and 0 marks an escape, after which the entries stay 0. Start
    points depend only on (rng_seed, cell), so different n_steps see
    identical samples. When ``counters`` is given, "rows_dropped" (samples
    that stopped before the last hop) and the start sampler's "start_draws"
    and "start_hits" are added to it.
    """
    starts = _draw_cell_starts(partition, samples_per_cell, rng_seed, max_draw_factor,
                               counters)
    itins, dropped = cell_itineraries(model, partition, starts, n_steps, horizon, cfg)
    if counters is not None:
        counters["rows_dropped"] = counters.get("rows_dropped", 0) + dropped
    return starts, itins


def transitions_from_itineraries(itins: Array, n_cells: int, orders: Sequence[int] = ()
                                 ) -> tuple[TransitionMatrix, list]:
    """Ulam-style transition matrix and tensors.

    Gamma[m][n] is set when at least one itinerary goes from cell m to cell n
    in its first hop. The matrix's landing probabilities divide by the
    landed samples of each row; escapes are tallied separately and excluded
    from the denominator. The order-k tensor for each k in ``orders`` holds
    the alive length-k prefixes, so tensors built from one set of
    itineraries are prefix closed by construction.
    """
    src, dst = itins[:, 0] - 1, itins[:, 1] - 1
    landed = dst >= 0
    escapes = np.bincount(src[~landed], minlength=n_cells)
    # each landed (source, landing) pair once, in row-major order, with its count
    pairs, counts = np.unique(src[landed] * n_cells + dst[landed], return_counts=True)
    indptr, indices = _csr_pattern(pairs, n_cells)
    tensors = [TransitionTensor(order=k, tuples=itins[np.all(itins[:, :k] > 0, axis=1), :k],
                                n_cells=n_cells) for k in orders]
    return TransitionMatrix(indptr, indices, counts, escapes), tensors


def row_sensitivity(tm: TransitionMatrix) -> bool:
    """Whether every supported row of Gamma has at least two admissible
    successors, the hypothesis under which the shift map has sensitive
    dependence. Rows with no successors at all carry no information and are
    skipped."""
    degrees = np.diff(tm.indptr)
    return bool(np.all(degrees[degrees > 0] >= 2))


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


def ball_successors(lib: SegmentLibrary, partition: Partition,
                    rho: Sequence[float]) -> tuple[Array, Array]:
    """The image-ball enclosure of Gamma as CSR arrays (indptr, successors):
    cell m's possible successors, 1-based and ascending, are
    ``successors[indptr[m-1]:indptr[m]]``.

    Cell m's time-T image is taken as the ball about the segment's end
    phi_T(c_m) of radius s rho_m delta_m, s = ENCLOSURE_SLACK and rho_m the
    stretch at c_m (:func:`~segdyn.flow.jacobian_norms`). Cell m' is a
    possible successor when that ball meets ball m', that is when
    |phi_T(c_m) - c_m'|^2 <= (s rho_m delta_m + delta_m')^2. The radius is
    first order, so a Gamma edge outside the enclosure means it was
    under-estimated. The centers query one ball grid of the image balls,
    widened by the largest delta, and the exact test filters its pairs.
    """
    n_cells = lib.n_segments
    if partition.n_cells != n_cells:
        raise ValueError("partition and library disagree on the number of cells")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (n_cells,):
        raise ValueError(f"rho must have one entry per cell, got shape {rho.shape}")
    if not np.all(rho >= 0):
        raise ValueError("rho must be nonnegative")
    centers, deltas = partition.cover.centers, partition.cover.radii
    reach = ENCLOSURE_SLACK * rho * deltas
    grid = _BallGrid(lib.ends(), reach + deltas.max())
    keys = [np.zeros(0, dtype=np.int64)]
    for row, image in grid.pairs(centers):
        meets = (_squared_distances(grid.centers_t[:, image], centers[row].T)
                 <= (reach[image] + deltas[row]) ** 2)
        keys.append(image[meets] * n_cells + row[meets])
    indptr, indices = _csr_pattern(np.sort(np.concatenate(keys)), n_cells)
    return indptr, indices + 1


def ball_admissibility(lib: SegmentLibrary, partition: Partition,
                       rho: Sequence[float], cell: int) -> set[int]:
    """The possible successors of one cell in :func:`ball_successors`, as a set."""
    if not 1 <= cell <= partition.n_cells:
        raise ValueError(f"cell id {cell} out of range 1..{partition.n_cells}")
    indptr, successors = ball_successors(lib, partition, rho)
    return set(successors[indptr[cell - 1]:indptr[cell]].tolist())


def transitions_to_json(tm: TransitionMatrix, rng_seed: int, samples_per_cell: int) -> dict:
    """JSON document for Gamma, counts, p and escapes. counts and p are
    (row, col, value) triplets of the stored entries, in row-major order;
    escape fractions and unsupported rows are left to readers to derive."""
    rows, cols = _entry_rows(tm.indptr) + 1, tm.indices + 1
    return {
        "n_cells": tm.n_cells,
        "rng_seed": rng_seed,
        "samples_per_cell": samples_per_cell,
        "escapes": tm.escapes.tolist(),
        "format": "sparse",
        "counts": np.stack([rows, cols, tm.counts], axis=1).tolist(),
        "p": _p_triplets(tm),
    }


def _p_triplets(tm: TransitionMatrix) -> list:
    """The (row, col, p) triplets of the stored entries, in row-major order."""
    rows, cols = _entry_rows(tm.indptr) + 1, tm.indices + 1
    return [list(t) for t in zip(rows.tolist(), cols.tolist(), tm.p.tolist())]


def _count_triplets(entries, n: int) -> tuple[Array, Array, Array]:
    """The keys (row - 1) * n + (col - 1) and the int64 counts of sparse
    (row, col, count) triplets, and the order that sorts the keys; ids must
    be JSON integers in 1..n, no (row, col) pair may repeat, and counts must
    be nonnegative JSON integers that fit in int64; every refusal names the
    entry."""
    if not (type(entries) is list and set(map(type, entries)) <= {list}
            and set(map(len, entries)) <= {3}):
        raise ValueError("counts must be a list of (row, col, value) triplets")
    # JSON types first, so that no float, string or boolean reaches the conversion
    if not set(map(type, chain.from_iterable(entries))) <= {int}:
        i, k = next((i, k) for i, e in enumerate(entries) for k in range(3)
                    if type(e[k]) is not int)
        should = f"a cell id in 1..{n}" if k < 2 else "an int64 count"
        raise ValueError(f"counts entry {i}: {('row', 'col', 'value')[k]} "
                         f"{json.dumps(entries[i][k])} is not {should}")
    try:
        t = np.fromiter(chain.from_iterable(entries), np.int64, 3 * len(entries))
    except OverflowError:  # an id or a count past int64, named below
        t = np.array(entries, dtype=float)
    t = t.reshape(len(entries), 3)
    ids = t[:, :2]
    bad = ~((ids >= 1) & (ids <= n))
    if np.any(bad):
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"counts entry {i}: {('row', 'col')[k]} {float(ids[i, k]):g} "
                         f"is not a cell id in 1..{n}")
    if not np.all(t[:, 2] >= 0):
        i = int(np.argmin(t[:, 2] >= 0))
        raise ValueError(f"counts entry {i}: value {float(t[i, 2]):g} is not a nonnegative number")
    if t.dtype != np.int64:
        i = next(i for i, e in enumerate(entries) if e[2] > _INT64_MAX)
        raise ValueError(f"counts entry {i}: value {entries[i][2]} is not an int64 count")
    values = t[:, 2]
    key = (ids[:, 0] - 1) * n + (ids[:, 1] - 1)
    _, first = np.unique(key, return_index=True)
    if first.size < key.size:
        i = int(np.setdiff1d(np.arange(key.size), first)[0])
        raise ValueError(f"counts entry {i}: cell pair ({key[i] // n + 1}, {key[i] % n + 1}) "
                         f"repeats an earlier entry")
    return key, values, first


def _check_p(entries, tm: TransitionMatrix) -> None:
    """Refuse a ``p`` list other than the (row, col, p) triplets of tm that
    :func:`transitions_to_json` writes, naming the first entry that differs
    and its first field that does; a boolean is never a JSON number here."""
    if not (type(entries) is list and set(map(type, entries)) <= {list}
            and set(map(len, entries)) <= {3}):
        raise ValueError("p must be a list of (row, col, value) triplets")
    if (len(entries) == tm.indices.shape[0]
            and set(map(type, chain.from_iterable(entries))) <= {int, float}):
        try:
            got = np.fromiter(chain.from_iterable(entries), float, 3 * len(entries))
        except OverflowError:  # an integer past float range, named below
            got = None
        want = np.stack([_entry_rows(tm.indptr) + 1, tm.indices + 1, tm.p], axis=1)
        if got is not None and np.array_equal(got.reshape(-1, 3), want):
            return
    want = _p_triplets(tm)
    for i, (e, w) in enumerate(zip(entries, want)):
        for k, kinds in enumerate(({int}, {int}, {int, float})):
            if type(e[k]) not in kinds:
                raise ValueError(f"p entry {i}: {('row', 'col', 'value')[k]} {json.dumps(e[k])} "
                                 f"is not a JSON {'number' if k == 2 else 'integer'}")
        if e[:2] != w[:2]:
            raise ValueError(f"p entry {i}: cell pair ({e[0]}, {e[1]}) is not "
                             f"({w[0]}, {w[1]}), the next pair with a count")
        if e[2] != w[2]:
            raise ValueError(f"p entry {i}: value {json.dumps(e[2])} is not {w[2]!r}, "
                             f"the p that its counts give")
    raise ValueError(f"the number of p entries, {len(entries)}, is not the number of "
                     f"cell pairs with a count, {len(want)}")


def _json_counts(values, what: str) -> Array:
    """The int64 array of a list of per-cell counts; each must be a
    nonnegative JSON integer in int64 range, so a float, string or boolean
    is refused rather than truncated."""
    if type(values) is list and set(map(type, values)) <= {int}:
        try:
            cells = np.array(values, dtype=np.int64)
        except OverflowError:  # a count past int64, named below
            cells = None
        if cells is not None and not np.any(cells < 0):
            return cells
    cells = np.asarray(values, dtype=object)
    if cells.ndim != 1:
        raise ValueError(f"{what} must be a list of counts")
    for i, v in enumerate(cells):
        if type(v) is not int or not 0 <= v <= _INT64_MAX:
            raise ValueError(f"{what} must be nonnegative JSON integers; "
                             f"cell {i + 1} holds {json.dumps(v)}")
    return cells.astype(np.int64)


def _csr_pattern(keys: Array, n: int) -> tuple[Array, Array]:
    """The CSR pattern on n x n cells of the ascending int64 keys
    row * n + col; the keys are overwritten with the column indices."""
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return indptr, np.remainder(keys, n, out=keys)


def transitions_from_json(doc: dict) -> TransitionMatrix:
    """The table of a ``transitions.json`` document, built straight into CSR
    arrays. ``format`` must be "sparse", and ``n_cells`` a JSON integer
    equal to the number of escapes, both checked before any table is read.
    Escapes are checked as the counts are, and ``p`` must be the landing
    probabilities that the counts give (:func:`_check_p`)."""
    if doc["format"] != "sparse":
        raise ValueError(f"format {json.dumps(doc['format'])} is not \"sparse\"")
    n = doc["n_cells"]
    if type(n) is not int:
        raise ValueError(f"n_cells {json.dumps(n)} is not a JSON integer")
    if type(doc["escapes"]) is list and len(doc["escapes"]) != n:
        raise ValueError(f"n_cells {n} does not match the {len(doc['escapes'])} escapes")
    escapes = _json_counts(doc["escapes"], "escapes")
    key, v, order = _count_triplets(doc["counts"], n)
    # a zero count stores nothing
    order = order[v[order] > 0]
    tm = TransitionMatrix(*_csr_pattern(key[order], n), v[order], escapes)
    _check_p(doc["p"], tm)
    return tm


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
    if type(tuples) is list and order >= 2:  # the tensor refuses anything else
        try:
            tuples = np.fromiter(chain.from_iterable(tuples), np.int64,
                                 order * len(tuples)).reshape(len(tuples), order)
        except OverflowError:  # a symbol past int64; the tensor names its tuple
            pass
    return TransitionTensor(order=order, tuples=tuples, n_cells=doc["n_cells"])
