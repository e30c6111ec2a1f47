"""Finite ball covers of a box-shaped absorbing set and their partitions.

The cover is an ordered list of balls; the partition assigns each point to
the largest-index ball containing it, which makes the cells mutually
disjoint by construction. Radii are calibrated so that an evolved ball
stays within a target diameter over a finite horizon.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._rng import STREAM_CALIBRATION, derive_rng
from .errors import BlowupError, CalibrationError, CoverageError, DimensionExplosionError
from .flow import _BLOCK_ROWS, FlowModel, IntegratorConfig, sample_path, walk_open_rows

Array = np.ndarray

__all__ = [
    "BoxDomain",
    "CoverBall",
    "Cover",
    "Partition",
    "CellMeasure",
    "collocate",
    "calibrate_deltas",
    "diameters",
    "minimal_cover",
    "cell_measure",
    "metric_entropy",
    "cover_to_json",
    "cover_from_json",
]

DEFAULT_COLLOCATION_CAP = 2_000_000

# entries per block of the (point, ball) and (point, point) tables that grid
# queries and diameter searches build, and edges per block of a state graph walk
_PAIR_CHUNK = 1 << 16
# points per block of a grid query, so that its memory does not grow with
# the number of points
_QUERY_ROWS = 1 << 12
# point sets of at least this many points take the pruned diameter search
_PRUNE_MIN_POINTS = 128
# buckets are widened only when the registrations of balls in buckets would
# exceed this many per ball and _MIN_REGISTRATIONS in all
_BUCKETS_PER_BALL = 64
_MIN_REGISTRATIONS = 1 << 18
# a calibration pass evaluates as many bisection rounds as keep its walk
# within this many probe rows, and at least one (BENCH_12.json,
# speculation_depth)
_SPECULATE_ROWS = 2048
# bisection rounds per calibration, at most
_MAX_ROUNDS = 200


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box standing in for the compact absorbing set."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"bounds must be 1-d arrays of equal length, got {lo.shape} and {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("lower bound must be strictly below upper bound on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> Array:
        return self.upper - self.lower

    def contains(self, points: Array) -> Array:
        pts = np.asarray(points, dtype=float)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=-1)

    def sample(self, rng: np.random.Generator, count: int) -> Array:
        return rng.uniform(self.lower, self.upper, size=(count, self.dimension))

    def max_norm(self) -> float:
        """Largest Euclidean norm over the box (attained at a corner)."""
        return float(np.sqrt(np.sum(np.maximum(np.abs(self.lower), np.abs(self.upper)) ** 2)))


@dataclass(frozen=True, eq=False)
class CoverBall:
    index: int
    center: Array
    radius: float


@dataclass(eq=False)
class Cover:
    """Ordered ball cover; ball n is centers[n-1] with radius radii[n-1]."""

    centers: Array
    radii: Array

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        if c.ndim != 2 or r.shape != (c.shape[0],):
            raise ValueError(f"centers/radii shapes inconsistent: {c.shape} vs {r.shape}")
        if not np.all(r > 0):
            raise ValueError("all radii must be positive")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r))):
            raise ValueError("centers and radii must be finite")
        self.centers = c
        self.radii = r

    @property
    def n_balls(self) -> int:
        return self.centers.shape[0]

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def balls(self) -> list[CoverBall]:
        return [CoverBall(index=n + 1, center=self.centers[n], radius=float(self.radii[n]))
                for n in range(self.n_balls)]


def _expand(starts: Array, counts: Array) -> Array:
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, concatenated."""
    total = int(counts.sum())
    return np.arange(total) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _blocks(counts: Array, limit: int):
    """Consecutive row slices whose counts add up to at most ``limit``; a
    row whose count alone exceeds it gets a slice of its own."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.shape[0]:
        hi = int(np.searchsorted(ends, ends[lo] - counts[lo] + limit, side="right"))
        hi = max(hi, lo + 1)
        yield slice(lo, hi)
        lo = hi


def _squared_distances(a: Array, b: Array) -> Array:
    """Squared distances between points given coordinate-first: a[k] and
    b[k] hold coordinate k and broadcast against each other.

    Bitwise the brute-force ``((p - q) ** 2).sum(axis=-1)`` over points
    stored as (..., d). numpy adds fewer than 8 terms left to right, so
    there the squares are accumulated one axis at a time; from 8 axes on it
    sums pairwise, so the squares are laid out as (..., d) and numpy adds
    them itself.
    """
    d = a.shape[0]
    if not 0 < d < 8:
        return np.ascontiguousarray(np.moveaxis((a - b) ** 2, 0, -1)).sum(axis=-1)
    out = (a[0] - b[0]) ** 2
    for k in range(1, d):
        out += (a[k] - b[k]) ** 2
    return out


def _max_squared_distances(xt: Array) -> Array:
    """Largest squared pairwise distance of each point set of xt, given
    coordinate-first as (d, P, sets). Point i meets only the points after
    it, so each distinct pair is compared once: (a - b)^2 = (b - a)^2."""
    best = np.zeros(xt.shape[2])
    for i in range(xt.shape[1] - 1):
        np.maximum(best, _squared_distances(xt[:, i + 1:], xt[:, i, None]).max(axis=0), out=best)
    return best


def _pruned_max_squared_distance(x: Array) -> float:
    """Largest squared pairwise distance of P points given as a (d, P)
    array, exact.

    A far pair gives a lower bound L: the point farthest from the centroid
    and its farthest partner. A pair at least L apart has r_a + r_b >= L,
    where r is the distance to the centroid, so both points of the largest
    pair have r_i + max(r) >= L. The bound is relaxed by 1e-9 of L, far above
    the relative rounding of r and of L, and only the points meeting it are
    compared pairwise. A NaN keeps every point, so it reaches the result.
    """
    r = np.sqrt(_squared_distances(x, x.mean(axis=1)[:, None]))
    best = _squared_distances(x, x[:, np.argmax(r), None]).max()
    keep = x[:, ~(r + r.max() < math.sqrt(best) * (1.0 - 1e-9))]
    rows = max(1, _PAIR_CHUNK // keep.shape[1])
    for start in range(0, keep.shape[1], rows):
        d2 = _squared_distances(keep[:, start:start + rows, None], keep[:, None, :])
        best = np.maximum(best, d2.max())
    return best


def diameters(points) -> Array:
    """Largest pairwise Euclidean distance within each point set.

    points has shape (..., P, d); the result has shape (...), 0 for sets of
    fewer than two points. It is bitwise the brute force
    ``sqrt(max over a, b of ((x[a] - x[b]) ** 2).sum(axis=-1))``. Sets of
    fewer than _PRUNE_MIN_POINTS points compare their P(P-1)/2 distinct
    pairs, many sets at once; larger sets are searched one at a time with
    exact pruning (:func:`_pruned_max_squared_distance`).
    """
    x = np.asarray(points, dtype=float)
    if x.ndim < 2:
        raise ValueError(f"expected point sets of shape (..., P, d), got shape {x.shape}")
    *lead, p, d = x.shape
    # coordinate-first, (d, P, sets): one point of every set is a contiguous row
    xt = np.ascontiguousarray(x.reshape(math.prod(lead), p, d).transpose(2, 1, 0))
    out = np.zeros(xt.shape[2])
    if p < _PRUNE_MIN_POINTS:
        step = max(1, _PAIR_CHUNK // max(p, 1))
        for start in range(0, out.shape[0], step):
            out[start:start + step] = _max_squared_distances(xt[:, :, start:start + step])
    else:
        for s in range(out.shape[0]):
            out[s] = _pruned_max_squared_distance(np.ascontiguousarray(xt[:, :, s]))
    return np.sqrt(out).reshape(lead)


class _BallGrid:
    """Uniform-grid bucket index over the balls of a cover.

    Buckets are cubes of side ``width``, two median radii to begin with.
    Each ball is registered in every bucket its slightly padded bounding box
    overlaps, so a point only needs the balls of its own bucket, and a large
    ball costs extra registrations rather than coarse buckets; the buckets
    are widened only when the registrations would exceed both
    _BUCKETS_PER_BALL per ball and _MIN_REGISTRATIONS in all. The map is
    CSR: occupied bucket ``keys[j]`` (ascending) holds the balls
    ``ball_ids[offsets[j]:offsets[j + 1]]`` in ascending order. Membership
    is the squared-distance test of :func:`_squared_distances`, on the
    (point, ball) pairs of each point's bucket only, so every answer is
    bitwise the brute-force one.
    """

    def __init__(self, centers: Array, radii: Array):
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))):
            raise ValueError("ball centers and radii must be finite")
        n, d = centers.shape
        self.centers_t = np.ascontiguousarray(centers.T)
        self.r2 = radii ** 2
        # far above the rounding of the bucket arithmetic, so every point the
        # squared-distance test puts in a ball lands in one of its buckets
        pad = 1e-9 * (float(np.abs(centers).max()) + float(radii.max()))
        lo = centers - radii[:, None] - pad
        hi = centers + radii[:, None] + pad
        self.origin = lo.min(axis=0)
        width = 2.0 * float(np.median(radii))
        budget = max(_BUCKETS_PER_BALL * n, _MIN_REGISTRATIONS)
        while True:
            first = np.floor((lo - self.origin) / width)
            last = np.floor((hi - self.origin) / width)
            extent = last.max(axis=0) + 1.0
            if (last - first + 1.0).prod(axis=1).sum() <= budget and extent.prod() < 2.0 ** 62:
                break
            width *= 2.0
        self.width = width
        self.extent = extent
        dims = [int(e) for e in extent]
        self.strides = np.array([math.prod(dims[axis + 1:]) for axis in range(d)],
                                dtype=np.int64)
        first = first.astype(np.int64)
        span = last.astype(np.int64) - first + 1
        count = span.prod(axis=1)
        owner = np.repeat(np.arange(n), count)
        # mixed-radix digits of each registration's place in its ball's box
        rank = _expand(np.zeros(n, dtype=np.int64), count)
        keys = np.zeros(rank.shape[0], dtype=np.int64)
        for axis in range(d - 1, -1, -1):
            side = span[owner, axis]
            keys += (first[owner, axis] + rank % side) * self.strides[axis]
            rank //= side
        order = np.argsort(keys, kind="stable")
        self.ball_ids = owner[order]
        self.keys, starts = np.unique(keys[order], return_index=True)
        self.offsets = np.append(starts, order.shape[0])

    def _candidates(self, points: Array) -> tuple[Array, Array]:
        """Start and length of each point's candidate run in ``ball_ids``."""
        start = np.zeros(points.shape[0], dtype=np.int64)
        count = np.zeros(points.shape[0], dtype=np.int64)
        f = (points - self.origin) / self.width
        rows = np.flatnonzero(np.all((f >= 0.0) & (f < self.extent), axis=1))
        keys = np.floor(f[rows]).astype(np.int64) @ self.strides
        j = np.minimum(np.searchsorted(self.keys, keys), self.keys.shape[0] - 1)
        found = self.keys[j] == keys
        rows, j = rows[found], j[found]
        start[rows] = self.offsets[j]
        count[rows] = self.offsets[j + 1] - self.offsets[j]
        return start, count

    def pairs(self, points: Array):
        """Blocks of (row, ball) with points[row] in closed ball ``ball``
        (0-based); rows ascend, and balls ascend within a row. The points
        are taken _QUERY_ROWS at a time."""
        for lo in range(0, points.shape[0], _QUERY_ROWS):
            block = points[lo:lo + _QUERY_ROWS]
            start, count = self._candidates(block)
            pt = np.ascontiguousarray(block.T)
            for rows in _blocks(count, _PAIR_CHUNK):
                c = count[rows]
                row = np.repeat(np.arange(rows.start, rows.stop), c)
                ball = self.ball_ids[_expand(start[rows], c)]
                inside = _squared_distances(pt[:, row], self.centers_t[:, ball]) <= self.r2[ball]
                yield row[inside] + lo, ball[inside]

    def largest_ball(self, points: Array) -> Array:
        """1-based index of the largest-index ball containing each point, 0
        for none."""
        out = np.zeros(points.shape[0], dtype=np.int64)
        for row, ball in self.pairs(points):
            last = np.flatnonzero(np.diff(row, append=-1))
            out[row[last]] = ball[last] + 1
        return out


@dataclass(eq=False)
class Partition:
    """Disjoint cells induced by the cover: a point belongs to the cell of
    the largest-index ball containing it."""

    cover: Cover

    @property
    def n_cells(self) -> int:
        return self.cover.n_balls

    def assign_many(self, points: Array) -> Array:
        """Cell ids (1..N) for each point; 0 marks points outside every ball."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"expected an (M, d) array, got shape {pts.shape}")
        if pts.shape[1] != self.cover.dimension:
            raise ValueError(f"points have dimension {pts.shape[1]}, "
                             f"the cover has dimension {self.cover.dimension}")
        return self._grid.largest_ball(pts)

    @cached_property
    def _grid(self) -> _BallGrid:
        """The cover's grid index, built on first use."""
        return _BallGrid(self.cover.centers, self.cover.radii)

    def assign(self, x) -> int | None:
        """Cell id for a single point, or None when no ball contains it."""
        cell = int(self.assign_many(np.asarray(x, dtype=float)[None, :])[0])
        return cell if cell > 0 else None


@dataclass(frozen=True, eq=False)
class CellMeasure:
    """Empirical cell weights, normalized over the ``covered`` samples."""

    weights: Array
    covered: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or np.any(w < 0):
            raise ValueError("weights must be a 1-d nonnegative array")
        object.__setattr__(self, "weights", w)


def collocate(domain: BoxDomain, resolution: Sequence[int] | int,
              max_points: int = DEFAULT_COLLOCATION_CAP) -> Array:
    """Regular grid of cell centers, resolution[i] subdivisions along axis i.

    Refuses grids larger than ``max_points``: the point count grows as the
    product of the per-axis resolutions, so a 10-per-axis grid in n
    dimensions already costs 10^n points.
    """
    d = domain.dimension
    if isinstance(resolution, (int, np.integer)):
        res = np.full(d, int(resolution), dtype=np.int64)
    else:
        res = np.asarray(resolution, dtype=np.int64)
    if res.shape != (d,):
        raise ValueError(f"resolution must have length {d}, got shape {res.shape}")
    if np.any(res < 1):
        raise ValueError("resolution entries must be at least 1")
    count = int(np.prod(res))
    if count > max_points:
        raise DimensionExplosionError(
            f"collocation grid would hold {count} points (> cap {max_points}); "
            f"per-axis resolutions {res.tolist()} multiply out across {d} dimensions")
    axes = [domain.lower[i] + (np.arange(res[i]) + 0.5) * domain.widths[i] / res[i]
            for i in range(d)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def _probe_directions(n: int, dimension: int, boundary_samples: int, seed: int) -> Array:
    """The probe directions of n centers, (n, p, d): the zero vector (the
    center), the 2d axis points, and ``boundary_samples`` random unit
    vectors, center i's drawn as normals from derive_rng(seed,
    STREAM_CALIBRATION, i) and normalised row by row."""
    dirs = np.zeros((n, 1 + 2 * dimension + boundary_samples, dimension))
    eye = np.eye(dimension)
    dirs[:, 1:1 + dimension] = eye
    dirs[:, 1 + dimension:1 + 2 * dimension] = -eye
    if boundary_samples > 0:
        g = dirs[:, 1 + 2 * dimension:]
        for i in range(n):
            g[i] = derive_rng(seed, STREAM_CALIBRATION, i).normal(
                size=(boundary_samples, dimension))
        g /= np.linalg.norm(g, axis=2, keepdims=True)
    return dirs


def _clouds_within(centers_t: Array, probes_t: Array, epsilon: float) -> Array:
    """Whether each cloud's diameter is within epsilon, bitwise
    ``diameters(clouds) <= epsilon`` for the clouds made of center
    centers_t[:, i] and then the probes probes_t[:, i], given
    coordinate-first as (d, n) and (d, n, q).

    The center's distances are pairs of the pairwise search, computed from
    the same operands. A cloud with one of them above epsilon fails, as
    does one with a NaN among them. A cloud whose two largest add up to at
    most epsilon (1 - 1e-9) passes: by the triangle inequality no pair is
    farther apart, and the slack is far above the rounding of the
    distances. Between 1e-140 and 1e140 it also covers the absolute error
    of squares that underflow, and no squared pair distance can overflow;
    outside that range of epsilon no cloud passes this way. Only the
    clouds left undecided are searched pairwise (:func:`diameters`).
    """
    c2 = _squared_distances(probes_t, centers_t[:, :, None])
    c2.sort(axis=1)      # a NaN sorts last
    far = np.sqrt(c2[:, -1])
    near = np.sqrt(c2[:, -2]) if c2.shape[1] > 1 else 0.0
    limit = epsilon * (1.0 - 1e-9) if 1e-140 < epsilon < 1e140 else -math.inf
    out = far + near <= limit
    rest = np.flatnonzero(~out & (far <= epsilon))
    if rest.size:
        clouds = np.concatenate([centers_t[:, rest, None], probes_t[:, rest]], axis=2)
        out[rest] = diameters(clouds.transpose(1, 2, 0)) <= epsilon
    return out


def _mid_tree(lo: Array, hi: Array, depth: int) -> Array:
    """Every mid that the next ``depth`` bisection rounds can ask for, per
    row, computed as the rounds compute them: column 0 is sqrt(lo * hi), and
    column c's mid has the children 2c + 1, taken when it fails (hi becomes
    the mid), and 2c + 2, taken when it holds (lo becomes the mid)."""
    mids = np.empty((lo.shape[0], 2 ** depth - 1))
    los, his = [lo], [hi]
    for c in range(mids.shape[1]):
        mids[:, c] = np.sqrt(los[c] * his[c])
        los += [los[c], mids[:, c]]
        his += [mids[:, c], his[c]]
    return mids


def calibrate_deltas(model: FlowModel, centers: Array, horizon: float, epsilon: float,
                     cfg: IntegratorConfig, boundary_samples: int = 32, *,
                     delta_max: float, delta_min: float = 1e-9,
                     time_samples: int = 17, rel_tol: float = 0.01,
                     seed: int = 0, counters: dict | None = None) -> Array:
    """Largest radius per center keeping the evolved-ball diameter within epsilon.

    Bisection to ``rel_tol`` relative accuracy, run on all centers at once.
    Probe clouds use the center, the 2d axis points and ``boundary_samples``
    random unit directions drawn from a per-center stream of ``seed``. A
    radius is feasible when the cloud's diameter (:func:`diameters`) stays
    within epsilon at every one of ``time_samples`` uniform times over the
    horizon; the estimate is a lower bound on the true diameter (finitely
    many probe points and sample times). Radii are capped at ``delta_max``;
    if the target diameter is unreachable even at ``delta_min`` a
    CalibrationError is raised. A BlowupError names the center whose probe
    orbit overflowed.

    The center's orbit is the same for every radius, so it is integrated
    once. A pass walks the other probes of a set of clouds with
    :func:`~segdyn.flow.walk_open_rows`, whole clouds of at most
    ``_BLOCK_ROWS`` probe rows at a time, a cloud leaving the batch at the
    first sample time its diameter exceeds epsilon; most of those verdicts
    are read off the distances to the center (:func:`_clouds_within`).
    Pass 1 walks every center's cap radius. Pass 2 walks the floor radius
    of the centers that failed it, and every pass from pass 2 on carries
    each still-active center's mids of the next s rounds, as many rounds as
    fit in ``_SPECULATE_ROWS`` probe rows and at least one; the rounds then
    replay from those verdicts, so the radii are those of one pass per
    round. When ``counters`` is given, "bisection_rounds", "probe_passes"
    and "rows_dropped" (probe rows that stopped before the horizon) are
    added to it.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not (0 < delta_min < delta_max):
        raise ValueError(f"need 0 < delta_min < delta_max, got {delta_min}, {delta_max}")
    centers = np.asarray(centers, dtype=float)
    n, d = centers.shape
    dirs = _probe_directions(n, d, boundary_samples, seed)
    p = dirs.shape[1]

    def blowup(err: BlowupError, center: int) -> BlowupError:
        return BlowupError(time=err.time, message=(
            f"center {center + 1} at {centers[center].tolist()}: probe orbit became "
            f"non-finite at t~{err.time:.6g}"))

    # direction 0 is the zero vector, so this is every cloud's center probe
    try:
        times, center_paths = sample_path(model, centers + delta_max * dirs[:, 0], horizon,
                                          time_samples, cfg)
    except BlowupError as err:
        raise blowup(err, err.batch_index) from None
    interval = horizon / (time_samples - 1)
    per_block = max(1, _BLOCK_ROWS // (p - 1))
    tally = {"bisection_rounds": 0, "probe_passes": 0, "rows_dropped": 0}

    def feasible(idx: Array, deltas: Array) -> Array:
        """Whether the cloud of radius deltas[i, c] about center idx[i] stays
        within epsilon, for every column c; one pass, in blocks of clouds."""
        tally["probe_passes"] += 1
        owner = np.repeat(idx, deltas.shape[1])
        radius = deltas.ravel()
        out = np.empty(owner.size, dtype=bool)
        for start in range(0, owner.size, per_block):
            part = owner[start:start + per_block]
            ok = np.ones(part.size, dtype=bool)

            def visit(k, rows, y):
                # rows hold whole clouds, p - 1 probes each, in order
                live = rows[::p - 1] // (p - 1)
                failed = ~_clouds_within(center_paths[part[live], k].T,
                                         y.T.reshape(d, live.size, p - 1), epsilon)
                ok[live[failed]] = False
                return np.repeat(failed, p - 1)

            probes = (centers[part, None, :]
                      + radius[start:start + per_block, None, None] * dirs[part, 1:])
            try:
                tally["rows_dropped"] += walk_open_rows(
                    model, probes.reshape(-1, d), interval, time_samples - 1, cfg, visit,
                    times=times)
            except BlowupError as err:
                raise blowup(err, int(part[err.batch_index // (p - 1)])) from None
            out[start:start + per_block] = ok
        return out.reshape(deltas.shape)

    def depth(idx: Array, fixed: int) -> int:
        """Rounds one pass answers for the centers idx, which also carry
        ``fixed`` radii each: the most that fit in _SPECULATE_ROWS probe
        rows, at least 1, but no more than the rounds the widest bracket
        still needs to reach rel_tol. That count is a floating-point
        estimate: one round too few costs one more pass, never a different
        radius."""
        spread = (math.log(float(np.max(hi[idx] / lo[idx]))) / math.log1p(rel_tol)
                  if rel_tol > 0 else math.inf)
        s = 1
        while (tally["bisection_rounds"] + s < _MAX_ROUNDS and 2 ** s < spread
               and idx.size * (p - 1) * (fixed + 2 ** (s + 1) - 1) <= _SPECULATE_ROWS):
            s += 1
        return s

    lo, hi = np.full(n, delta_min), np.full(n, delta_max)
    todo = ~feasible(np.arange(n), hi[:, None])[:, 0]
    active = todo.copy()
    # the first pass over the centers that failed at the cap also walks their floor
    floor = 1
    while np.any(active) and tally["bisection_rounds"] < _MAX_ROUNDS:
        idx = np.flatnonzero(active)
        s = depth(idx, floor)
        verdicts = feasible(idx, np.concatenate(
            [lo[idx, None]] * floor + [_mid_tree(lo[idx], hi[idx], s)], axis=1))
        if floor and not np.all(verdicts[:, 0]):
            first = int(idx[np.argmin(verdicts[:, 0])])
            raise CalibrationError(
                f"center {first + 1} at {centers[first].tolist()}: evolved-ball diameter "
                f"exceeds epsilon={epsilon} even at the minimum radius {delta_min}")
        # tree holds each center's verdicts on the mids of _mid_tree
        tree = np.zeros((n, 2 ** s - 1), dtype=bool)
        tree[idx] = verdicts[:, floor:]
        floor = 0
        # replay the rounds the tree answers; pos is each center's next mid
        pos = np.zeros(n, dtype=np.int64)
        for _ in range(s):
            if not np.any(active):
                break
            tally["bisection_rounds"] += 1
            mid = np.sqrt(lo * hi)
            ok = tree[np.arange(n), pos]
            lo = np.where(active & ok, mid, lo)
            hi = np.where(active & ~ok, mid, hi)
            active &= (hi / lo) > 1.0 + rel_tol
            pos = 2 * pos + 1 + ok
    if counters is not None:
        for key, value in tally.items():
            counters[key] = counters.get(key, 0) + value
    return np.where(todo, lo, delta_max)


def minimal_cover(centers: Array, radii: Array, domain_samples: Array) -> Cover:
    """Greedily prune balls whose removal keeps every domain sample covered.

    The scan runs in descending index order, so later balls are dropped
    first; the result is inclusion-minimal with respect to the sample set.
    Every domain sample must be covered by the input balls to begin with.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    samples = np.asarray(domain_samples, dtype=float)
    n = centers.shape[0]
    blocks = list(_BallGrid(centers, radii).pairs(samples))
    sample = np.concatenate([np.empty(0, dtype=np.int64)] + [s for s, _ in blocks])
    ball = np.concatenate([np.empty(0, dtype=np.int64)] + [b for _, b in blocks])
    counts = np.bincount(sample, minlength=samples.shape[0])
    uncovered = counts == 0
    if np.any(uncovered):
        first = int(np.flatnonzero(uncovered)[0])
        raise CoverageError(
            f"domain sample {first} at {samples[first].tolist()} is outside every input ball")
    order = np.argsort(ball, kind="stable")
    by_ball = sample[order]
    bounds = np.searchsorted(ball[order], np.arange(n + 1))
    keep = np.ones(n, dtype=bool)
    for b in range(n - 1, -1, -1):
        col = by_ball[bounds[b]:bounds[b + 1]]
        if np.all(counts[col] >= 2):
            keep[b] = False
            counts[col] -= 1
    return Cover(centers=centers[keep], radii=radii[keep])


def cell_measure(partition: Partition, samples: Array) -> CellMeasure:
    """Counting-measure weights mu(A_n) over the covered samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    assigned = partition.assign_many(samples)
    covered = assigned > 0
    total = int(covered.sum())
    if total == 0:
        raise CoverageError("no sample is covered by any cell; measure undefined")
    counts = np.bincount(assigned[covered], minlength=partition.n_cells + 1)[1:]
    return CellMeasure(weights=counts / total, covered=total)


def metric_entropy(mu) -> float:
    """Entropy -sum w log w of a normalized weight vector, with 0 log 0 = 0."""
    w = mu.weights if isinstance(mu, CellMeasure) else np.asarray(mu, dtype=float)
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 (got {total})")
    pos = w[w > 0]
    return float(-(pos * np.log(pos)).sum())


def cover_to_json(cover: Cover) -> dict:
    return {"balls": [
        {"index": b.index, "center": b.center.tolist(), "radius": b.radius}
        for b in cover.balls
    ]}


def cover_from_json(doc: dict) -> Cover:
    """The cover of a ``cover.json`` document; each ball's ``index`` must be a
    JSON integer, and its ``center`` coordinates and ``radius`` JSON numbers,
    not strings or booleans."""
    balls = doc["balls"]
    for i, b in enumerate(balls):
        if type(b["index"]) is not int:
            raise ValueError(f"balls entry {i}: index {json.dumps(b['index'])} "
                             f"is not a JSON integer")
        if type(b["center"]) is not list or not set(map(type, b["center"])) <= {int, float}:
            raise ValueError(f"balls entry {i}: center {json.dumps(b['center'])} "
                             f"is not a list of JSON numbers")
        if type(b["radius"]) not in (int, float):
            raise ValueError(f"balls entry {i}: radius {json.dumps(b['radius'])} "
                             f"is not a JSON number")
    order = sorted(range(len(balls)), key=lambda i: balls[i]["index"])
    indices = [balls[i]["index"] for i in order]
    if indices != list(range(1, len(balls) + 1)):
        raise ValueError(f"ball indices must be consecutive from 1, got {indices}")
    centers = np.asarray([balls[i]["center"] for i in order], dtype=float)
    radii = np.asarray([balls[i]["radius"] for i in order], dtype=float)
    return Cover(centers=centers, radii=radii)
