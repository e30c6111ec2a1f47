import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_cells, literal_memberships
from segdyn import (
    BoxDomain,
    CalibrationError,
    Cover,
    CoverageError,
    DimensionExplosionError,
    IntegratorConfig,
    Partition,
    calibrate_deltas,
    cell_measure,
    collocate,
    diameters,
    metric_entropy,
    minimal_cover,
)
from segdyn import cover as cover_module
from segdyn.cover import (
    _PRUNE_MIN_POINTS,
    _BallGrid,
    cover_from_json,
    cover_to_json,
)


def test_collocate_1d_midpoints():
    dom = BoxDomain(lower=[0.0], upper=[1.0])
    assert np.allclose(collocate(dom, [2]).ravel(), [0.25, 0.75])


def test_collocate_2d():
    dom = BoxDomain(lower=[0.0, 0.0], upper=[1.0, 1.0])
    pts = collocate(dom, [2, 2])
    expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
    assert {tuple(p) for p in pts} == expected


def test_collocate_count():
    dom = BoxDomain(lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0])
    assert collocate(dom, [10, 10, 10]).shape == (1000, 3)


def test_collocate_cap():
    dom = BoxDomain(lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionExplosionError, match="cap"):
        collocate(dom, [100, 100, 100], max_points=10_000)
    # 2^22 * 2^21 * 2^21 points, a product that wraps to 0 in int64
    with pytest.raises(DimensionExplosionError, match="cap"):
        collocate(dom, [2 ** 22, 2 ** 21, 2 ** 21])


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain(lower=[0.0, 1.0], upper=[1.0, 1.0])


def test_calibrate_contracting_delta_is_half_epsilon(linear1, cfg):
    # diameter 2*delta*e^{-t} peaks at t=0, so the best radius is epsilon/2
    delta = calibrate_deltas(linear1, [[0.3]], 1.0, 0.1, cfg, delta_max=1.0, seed=3)[0]
    assert abs(delta - 0.05) <= 0.02 * 0.05


def test_calibrate_expanding_delta(expanding1d, cfg):
    # diameter 2*delta*e^t peaks at t=T=1, so the best radius is epsilon/(2e)
    delta = calibrate_deltas(expanding1d, [[0.0]], 1.0, 0.1, cfg, delta_max=1.0, seed=3)[0]
    assert abs(delta - 0.1 / (2 * np.e)) <= 0.02 * (0.1 / (2 * np.e))


def test_calibrate_returns_cap_when_epsilon_generous(linear1, cfg):
    delta = calibrate_deltas(linear1, [[0.0]], 1.0, 10.0, cfg, delta_max=0.3, seed=3)[0]
    assert delta == 0.3


def test_calibrate_error_when_unreachable(expanding1d, cfg):
    # over T=25 the 1-d expansion stretches ~e^25, far beyond epsilon even
    # at the minimum radius
    big_cfg = IntegratorConfig(step=0.05)
    with pytest.raises(CalibrationError, match="minimum radius"):
        calibrate_deltas(expanding1d, [[0.0]], 25.0, 0.1, big_cfg,
                         delta_max=1.0, delta_min=1e-6, seed=3)


def test_calibrate_monotone_in_horizon(expanding1d, cfg):
    deltas = [calibrate_deltas(expanding1d, [[0.0]], T, 0.1, cfg, delta_max=1.0, seed=5)[0]
              for T in (0.5, 1.0, 2.0)]
    assert deltas[0] >= deltas[1] >= deltas[2]


def test_calibrate_monotone_in_epsilon(expanding1d, cfg):
    deltas = [calibrate_deltas(expanding1d, [[0.0]], 1.0, eps, cfg, delta_max=1.0, seed=5)[0]
              for eps in (0.05, 0.1, 0.2)]
    assert deltas[0] <= deltas[1] <= deltas[2]


def test_calibrate_batch_matches_scalar(linear1, cfg):
    centers = np.array([[0.0], [0.4]])
    batch = calibrate_deltas(linear1, centers, 1.0, 0.1, cfg, delta_max=1.0, seed=9)
    assert np.allclose(batch, 0.05, rtol=0.02)


def test_minimal_cover_removes_duplicate():
    centers = np.array([[0.5], [0.5]])
    radii = np.array([0.4, 0.4])
    samples = np.array([[0.3], [0.7]])
    cover = minimal_cover(centers, radii, samples)
    assert cover.n_balls == 1


def test_minimal_cover_keeps_disjoint_balls():
    centers = np.array([[0.0], [10.0]])
    radii = np.array([1.0, 1.0])
    samples = np.array([[0.5], [9.5]])
    cover = minimal_cover(centers, radii, samples)
    assert cover.n_balls == 2


def test_minimal_cover_hand_instance():
    # two small balls and one big ball: the descending scan drops the big
    # ball first, leaving the two small balls
    centers = np.array([[0.25], [0.75], [0.5]])
    radii = np.array([0.3, 0.3, 0.6])
    samples = np.array([[0.25], [0.75]])
    cover = minimal_cover(centers, radii, samples)
    assert cover.n_balls == 2
    assert np.allclose(cover.centers.ravel(), [0.25, 0.75])


def test_minimal_cover_is_inclusion_minimal():
    rng = np.random.default_rng(4)
    centers = rng.uniform(0, 1, size=(12, 2))
    radii = rng.uniform(0.25, 0.6, size=12)
    samples = rng.uniform(0.1, 0.9, size=(60, 2))
    # ensure the precondition: every sample covered
    dist = np.linalg.norm(samples[:, None, :] - centers[None, :, :], axis=-1)
    assert np.all((dist <= radii[None, :]).any(axis=1))
    cover = minimal_cover(centers, radii, samples)
    member = np.linalg.norm(samples[:, None, :] - cover.centers[None, :, :], axis=-1) \
        <= cover.radii[None, :]
    assert np.all(member.any(axis=1))
    for drop in range(cover.n_balls):
        keep = np.ones(cover.n_balls, dtype=bool)
        keep[drop] = False
        assert not np.all(member[:, keep].any(axis=1)), "a retained ball is redundant"


def test_minimal_cover_uncovered_sample_error():
    with pytest.raises(CoverageError, match="outside every input ball"):
        minimal_cover(np.array([[0.0]]), np.array([0.1]), np.array([[5.0]]))


def _three_ball_partition():
    cover = Cover(centers=np.array([[0.0], [2.0], [0.1]]),
                  radii=np.array([0.5, 0.5, 0.5]))
    return Partition(cover=cover)


def test_assign_single_membership():
    part = _three_ball_partition()
    assert part.assign_many([[2.1]]).tolist() == [2]


def test_assign_largest_index_wins():
    part = _three_ball_partition()
    # 0.05 is inside balls 1 and 3
    assert part.assign_many([[0.05]]).tolist() == [3]


def test_assign_outside_returns_none():
    part = _three_ball_partition()
    assert part.assign_many([[9.0]]).tolist() == [0]


def test_assign_matches_direct_definition():
    rng = np.random.default_rng(11)
    centers = rng.uniform(-1, 1, size=(40, 2))
    radii = rng.uniform(0.05, 0.5, size=40)
    part = Partition(cover=Cover(centers=centers, radii=radii))
    pts = rng.uniform(-1.5, 1.5, size=(10_000, 2))
    got = part.assign_many(pts)
    # direct reading: member of B_n and of no B_m with m > n
    member = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=-1) <= radii[None, :]
    expected = np.zeros(len(pts), dtype=int)
    cells_per_point = np.zeros(len(pts), dtype=int)
    for n in range(40):
        later = member[:, n + 1:].any(axis=1)
        in_cell_n = member[:, n] & ~later
        cells_per_point += in_cell_n
        expected[in_cell_n] = n + 1
    assert np.all(cells_per_point <= 1)  # cells are disjoint
    assert np.array_equal(got, expected)


def test_cell_measure_single_cell():
    part = Partition(cover=Cover(centers=np.array([[0.0]]), radii=np.array([1.0])))
    mu = cell_measure(part, np.array([[0.1], [-0.2], [0.5]]))
    assert np.array_equal(mu.weights, [1.0])


def test_cell_measure_even_split():
    part = Partition(cover=Cover(centers=np.array([[0.0], [2.0]]),
                                 radii=np.array([0.5, 0.5])))
    mu = cell_measure(part, np.array([[0.0], [0.1], [2.0], [1.9]]))
    assert np.array_equal(mu.weights, [0.5, 0.5])


def test_cell_measure_uniform_grid_four_balls():
    # four equal disjoint balls tiling a box symmetrically: weights ~ 1/4
    centers = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    part = Partition(cover=Cover(centers=centers, radii=np.full(4, 0.2)))
    rng = np.random.default_rng(17)
    n = 40_000
    samples = rng.uniform(0, 1, size=(n, 2))
    mu = cell_measure(part, samples)
    assert np.abs(mu.weights - 0.25).max() <= 1.0 / np.sqrt(n)


def test_cell_measure_errors():
    part = Partition(cover=Cover(centers=np.array([[0.0]]), radii=np.array([0.1])))
    with pytest.raises(ValueError, match="nonempty"):
        cell_measure(part, np.empty((0, 1)))
    with pytest.raises(CoverageError, match="no sample"):
        cell_measure(part, np.array([[5.0]]))


def test_metric_entropy_uniform():
    assert abs(metric_entropy(np.full(4, 0.25)) - np.log(4)) <= 1e-12


def test_metric_entropy_point_mass():
    assert metric_entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_metric_entropy_zero_weight_convention():
    assert abs(metric_entropy(np.array([0.5, 0.5, 0.0, 0.0])) - np.log(2)) <= 1e-12


def test_metric_entropy_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        metric_entropy(np.array([0.5, 0.4]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_metric_entropy_bounded_by_log_n(raw):
    total = sum(raw)
    if total <= 0:
        return
    w = np.asarray(raw) / total
    h = metric_entropy(w)
    n = len(w)
    assert h <= np.log(n) + 1e-12
    if np.allclose(w, 1.0 / n, atol=1e-15):
        assert abs(h - np.log(n)) <= 1e-12


def test_cover_json_roundtrip(tmp_path):
    cover = Cover(centers=np.array([[0.0, 1.0], [2.0, 3.0]]), radii=np.array([0.5, 0.25]))
    doc = cover_to_json(cover)
    assert doc == {"centers": [[0.0, 1.0], [2.0, 3.0]], "radii": [0.5, 0.25]}
    back = cover_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back.centers, cover.centers)
    assert np.array_equal(back.radii, cover.radii)
    # integers are JSON numbers too, unless no float holds them
    back = cover_from_json({"centers": [[0, 1], [2, 3]], "radii": [1, 2]})
    assert back.centers.tolist() == [[0.0, 1.0], [2.0, 3.0]] and back.radii.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError, match=r"^centers entry 1: \[0, Infinity\] is not"):
        cover_from_json(json.loads('{"centers": [[0, 1], [0, 1e+400]], "radii": [1, 2]}'))
    with pytest.raises(ValueError, match=r"^centers entry 0: \[0, 1000.*0\] is not"):
        cover_from_json({"centers": [[0, 10 ** 400]], "radii": [1]})
    with pytest.raises(ValueError, match=r"^radii entry 1: -1 is not a positive"):
        cover_from_json({"centers": [[0], [1]], "radii": [1, -1]})


def test_cover_rejects_non_finite_balls():
    with pytest.raises(ValueError, match="finite"):
        Cover(centers=np.array([[0.0], [np.nan]]), radii=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        Cover(centers=np.array([[0.0], [1.0]]), radii=np.array([1.0, np.inf]))


def test_assign_many_rejects_wrong_dimension():
    part = Partition(cover=Cover(centers=np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]),
                                 radii=np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match="dimension 1, the cover has dimension 3"):
        part.assign_many(np.array([[0.1], [5.0]]))


@st.composite
def _overlapping_covers(draw):
    """Random overlapping covers in d = 1, 2, 3, 8 or 9, optionally with one
    ball 50 times larger than the rest, plus query points: uniform ones
    reaching beyond every bucket, points exactly on a sphere along an axis,
    and points on a sphere in a random direction, whose membership turns on
    the rounding of the squared distance."""
    d = draw(st.sampled_from([1, 2, 3, 3, 8, 9]))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(n, d))
    radii = rng.uniform(0.05, 0.6, size=n)
    if n > 1 and draw(st.booleans()):
        radii[rng.integers(n)] *= 50.0
    pts = rng.uniform(-3.0, 3.0, size=(200, d))
    ball = rng.integers(n, size=40)
    axis = rng.integers(d, size=40)
    on_sphere = centers[ball].copy()
    on_sphere[np.arange(40), axis] += rng.choice([-1.0, 1.0], size=40) * radii[ball]
    u = rng.normal(size=(40, d))
    rim = centers[ball] + radii[ball, None] * u / np.linalg.norm(u, axis=1, keepdims=True)
    far = np.full((3, d), 1e6)
    far[1] *= -1.0
    far[2, 0] = np.nan
    return centers, radii, np.concatenate([pts, on_sphere, rim, centers, far])


@settings(max_examples=150, deadline=None)
@given(_overlapping_covers())
def test_grid_matches_largest_ball(case):
    centers, radii, pts = case
    expected = brute_force_cells(pts, centers, radii)
    assert np.array_equal(_BallGrid(centers, radii).largest_ball(pts), expected)
    assert np.array_equal(Partition(Cover(centers, radii)).assign_many(pts), expected)


@settings(max_examples=60, deadline=None)
@given(_overlapping_covers())
def test_grid_pairs_are_exactly_the_memberships(case):
    centers, radii, pts = case
    member = literal_memberships(pts, centers, radii)
    rows, balls = map(np.concatenate, zip(*_BallGrid(centers, radii).pairs(pts)))
    expected_rows, expected_balls = np.nonzero(member)
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(balls, expected_balls)


@settings(max_examples=60, deadline=None)
@given(_overlapping_covers())
def test_grid_answers_in_row_blocks_are_the_whole_answers(case):
    # 7-row query blocks: most blocks hold points outside the grid, and the
    # far points at the end make a block with no candidate at all
    centers, radii, pts = case
    pts = np.concatenate([pts, np.full((9, pts.shape[1]), 1e6)])
    grid = _BallGrid(centers, radii)
    with mock.patch.object(cover_module, "_QUERY_ROWS", 7):
        cells = grid.largest_ball(pts)
        blocks = list(grid.pairs(pts))
    assert np.array_equal(cells, brute_force_cells(pts, centers, radii))
    assert len(blocks) >= -(-pts.shape[0] // 7)
    rows, balls = map(np.concatenate, zip(*blocks))
    expected_rows, expected_balls = np.nonzero(literal_memberships(pts, centers, radii))
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(balls, expected_balls)


def test_single_ball_grid():
    centers, radii = np.array([[0.5, -0.5]]), np.array([0.25])
    pts = np.array([[0.5, -0.5], [0.75, -0.5], [0.76, -0.5], [9.0, 9.0]])
    assert _BallGrid(centers, radii).largest_ball(pts).tolist() == [1, 1, 0, 0]


def test_grid_large_ball_adds_registrations_not_width():
    # one ball 50x larger keeps the buckets at two median radii: it is
    # registered in every bucket of its box instead
    rng = np.random.default_rng(3)
    centers = rng.uniform(0.0, 20.0, size=(400, 3))
    radii = rng.uniform(0.2, 0.4, size=400)
    radii[7] *= 50.0
    grid = _BallGrid(centers, radii)
    assert grid.width == 2.0 * np.median(radii)
    assert np.count_nonzero(grid.ball_ids == 7) > 1000
    pts = rng.uniform(-5.0, 25.0, size=(20_000, 3))
    assert np.array_equal(grid.largest_ball(pts), brute_force_cells(pts, centers, radii))


def ref_minimal_cover(centers, radii, samples):
    """minimal_cover on a dense samples x balls membership table."""
    member = literal_memberships(samples, centers, radii)
    uncovered = ~member.any(axis=1)
    if np.any(uncovered):
        first = int(np.flatnonzero(uncovered)[0])
        raise CoverageError(
            f"domain sample {first} at {samples[first].tolist()} is outside every input ball")
    counts = member.sum(axis=1)
    keep = np.ones(centers.shape[0], dtype=bool)
    for ball in range(centers.shape[0] - 1, -1, -1):
        col = member[:, ball]
        if np.all(counts[col] >= 2):
            keep[ball] = False
            counts[col] -= 1
    return Cover(centers=centers[keep], radii=radii[keep])


def _cover_or_error(build):
    try:
        cover = build()
    except CoverageError as err:
        return str(err)
    return cover.centers.tobytes(), cover.radii.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_sparse_minimal_cover_matches_dense(seed):
    # covers of 1 to 100 balls and samples drawn inside them; an uncovered
    # sample must give the same error on the same first sample
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    for n in (1, 3, 8, 100):
        centers = rng.uniform(0.0, 1.0, size=(n, d))
        radii = rng.uniform(0.1, 0.5, size=n)
        radii[seed % n] *= 50.0 if seed % 2 else 1.0
        ball = rng.integers(n, size=300)
        samples = centers[ball] + radii[ball, None] * rng.uniform(-0.99, 0.99, (300, d)) / d
        outside = np.concatenate([samples[:5], np.full((2, d), 1e3), samples[5:]])
        outcomes = []
        for points in (samples, outside):
            expected = _cover_or_error(lambda: ref_minimal_cover(centers, radii, points))
            assert _cover_or_error(lambda: minimal_cover(centers, radii, points)) == expected
            outcomes.append(expected)
        assert isinstance(outcomes[0], tuple) and "domain sample 5 at" in outcomes[1]


def _brute_force_diameter(x):
    if x.shape[0] < 2:
        return 0.0
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1).max())


@st.composite
def _point_sets(draw):
    """Batches of point sets for the diameter oracle. P runs from 0 across
    the pruning switch; d = 8 and 9 are summed pairwise by numpy. Clouds are
    uniform at a random scale and offset, clustered on three points (tied
    pairs), all equal, on a sphere (no point can be pruned) or on an integer
    lattice (many tied distances)."""
    d = draw(st.sampled_from([1, 2, 3, 3, 8, 9]))
    p = draw(st.one_of(st.integers(0, 4), st.integers(1, 2 * _PRUNE_MIN_POINTS),
                       st.integers(_PRUNE_MIN_POINTS - 2, _PRUNE_MIN_POINTS + 2)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    kind = draw(st.sampled_from(["uniform", "clustered", "equal", "sphere", "lattice"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = lead + (p, d)
    if kind == "uniform":
        x = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-6, 7)
    elif kind == "clustered":
        base = rng.uniform(-1.0, 1.0, size=lead + (3, d))
        x = base[..., rng.integers(3, size=p), :] + rng.normal(size=shape) * 1e-12 * rng.integers(2)
    elif kind == "equal":
        x = np.broadcast_to(rng.uniform(-5.0, 5.0, size=lead + (1, d)), shape)
    elif kind == "sphere":
        x = rng.normal(size=shape)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    else:
        x = rng.integers(-3, 4, size=shape).astype(float)
    return x + rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(0, 7)


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_diameters_match_brute_force(x):
    got = diameters(x)
    assert got.shape == x.shape[:-2]
    flat = x.reshape(got.size, *x.shape[-2:])
    expected = np.array([_brute_force_diameter(points) for points in flat])
    assert np.array_equal(got.reshape(-1), expected)


def test_diameters_rejects_a_flat_array():
    with pytest.raises(ValueError, match=r"\(\.\.\., P, d\)"):
        diameters(np.zeros(4))


def test_diameters_keep_a_pair_just_longer_than_the_first_far_pair():
    # the centroid is (0, 0) exactly; f = (c, s) is the point farthest from
    # it, by 1.25e-11, and its farthest partner a lies 2 - 1.25e-11 away, so
    # a and b, the true diameter 2, meet r_i + max(r) >= L only by a hair
    s = 1e-5
    c = 1.0 - 0.375 * s * s
    x = np.zeros((_PRUNE_MIN_POINTS, 2))
    x[:5] = [[c, s], [-1.0, 0.0], [1.0, 0.0], [-c, 0.0], [0.0, -s]]
    assert _brute_force_diameter(x) == 2.0
    assert diameters(x) == 2.0
