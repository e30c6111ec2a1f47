import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dense, from_counts, make_markov_tensors
from segdyn import (
    Cover,
    IntegratorConfig,
    LinearDiagonal,
    Partition,
    SamplingError,
    ball_admissibility,
    ball_successors,
    build_segments,
    expanding_to_depth,
    jacobian_norms,
    row_sensitivity,
    sample_itineraries,
    transitions_from_itineraries,
)
from segdyn import cover as cover_module
from segdyn import transitions
from segdyn._rng import STREAM_TRANSITIONS, derive_rng
from segdyn.artifacts import read_json, write_json
from segdyn.segments import SegmentLibrary
from segdyn.transitions import (
    TransitionMatrix,
    TransitionTensor,
    tensor_from_json,
    tensor_to_json,
    transitions_from_json,
    transitions_to_json,
)


def _partition(centers, radii):
    return Partition(cover=Cover(centers=np.asarray(centers, dtype=float),
                                 radii=np.asarray(radii, dtype=float)))


def _one_hop(model, partition, horizon, samples_per_cell, cfg, rng_seed, **kwargs):
    """Transition table from one hop of T."""
    _, itins = sample_itineraries(model, partition, horizon, 1, samples_per_cell, cfg,
                                  rng_seed, **kwargs)
    return transitions_from_itineraries(itins, partition.n_cells)[0]


def _tensor(model, partition, horizon, order, samples_per_cell, cfg, rng_seed):
    """Order-k tensor from samples_per_cell itineraries of k - 1 hops per cell."""
    _, itins = sample_itineraries(model, partition, horizon, order - 1, samples_per_cell,
                                  cfg, rng_seed)
    return transitions_from_itineraries(itins, partition.n_cells, (order,))[1][0]


@pytest.fixture(scope="module")
def sink_partition():
    # contracting 1-d flow: both balls' images end up near 0, which the
    # largest-index rule assigns to cell 2
    return _partition([[-0.5], [0.5]], [0.6, 0.6])


def test_single_cell_self_map(linear1, cfg):
    part = _partition([[0.0]], [0.5])
    tm = _one_hop(linear1, part, 1.0, 40, cfg, rng_seed=1)
    assert (dense(tm) > 0).tolist() == [[True]]
    assert dense(tm, tm.p).tolist() == [[1.0]]
    assert tm.escapes.tolist() == [0]


def test_zero_horizon_gives_identity(linear1, sink_partition, cfg):
    tm = _one_hop(linear1, sink_partition, 0.0, 25, cfg, rng_seed=2)
    assert np.array_equal(dense(tm) > 0, np.eye(2, dtype=bool))
    assert np.array_equal(dense(tm, tm.p), np.eye(2))


def test_contraction_funnels_into_sink_cell(linear1, sink_partition, cfg):
    # oracle: e^{-3} * x keeps every point of both balls within [-0.041, 0.041],
    # inside both balls, so the largest-index rule lands everything in cell 2
    tm = _one_hop(linear1, sink_partition, 3.0, 60, cfg, rng_seed=3)
    assert np.array_equal(dense(tm) > 0, [[False, True], [False, True]])
    assert np.array_equal(dense(tm, tm.p), [[0.0, 1.0], [0.0, 1.0]])


def test_tensor_order2_equals_gamma_same_seed(linear1, sink_partition, cfg):
    tm = _one_hop(linear1, sink_partition, 3.0, 60, cfg, rng_seed=3)
    t2 = _tensor(linear1, sink_partition, 3.0, 2, 60, cfg, rng_seed=3)
    assert t2.tuples.tolist() == (np.argwhere(dense(tm)) + 1).tolist()


def test_contraction_tensor_order3(linear1, sink_partition, cfg):
    t3 = _tensor(linear1, sink_partition, 3.0, 3, 60, cfg, rng_seed=3)
    assert t3.tuples.tolist() == [[1, 2, 2], [2, 2, 2]]


def test_zero_field_only_constant_tuples(zero_field_1d, cfg):
    part = _partition([[-0.5], [0.5]], [0.3, 0.3])
    t3 = _tensor(zero_field_1d, part, 1.0, 3, 30, cfg, rng_seed=4)
    assert t3.tuples.tolist() == [[1, 1, 1], [2, 2, 2]]


def test_prefix_closure_across_orders(linear1, cfg):
    part = _partition([[-0.7], [0.0], [0.7]], [0.45, 0.45, 0.45])
    tensors = {k: _tensor(linear1, part, 0.6, k, 50, cfg, rng_seed=7)
               for k in (2, 3, 4)}
    for k in (3, 4):
        shorter = set(map(tuple, tensors[k - 1].tuples.tolist()))
        assert tensors[k].tuples.shape[0] > 0
        assert all(tuple(t[:-1]) in shorter for t in tensors[k].tuples.tolist())


def test_markov_rows_sum_to_one(linear1, cfg):
    part = _partition([[-0.7], [0.0], [0.7]], [0.45, 0.45, 0.45])
    tm = _one_hop(linear1, part, 0.6, 50, cfg, rng_seed=8)
    landed = dense(tm).sum(axis=1)
    for m in range(3):
        row = dense(tm, tm.p)[m].sum()
        if landed[m] > 0:
            assert abs(row - 1.0) <= 1e-9
        else:
            assert row == 0.0
    assert np.array_equal(dense(tm, tm.p) > 0, dense(tm) > 0)


def test_escaping_cell_is_unsupported(expanding1d, cfg):
    part = _partition([[1.0]], [0.1])
    tm = _one_hop(expanding1d, part, 3.0, 20, cfg, rng_seed=9)
    assert tm.landed.tolist() == [0]
    assert tm.escape_fractions().tolist() == [1.0]
    assert np.array_equal(dense(tm, tm.p), [[0.0]])


def test_seed_determinism_bytes(linear1, sink_partition, cfg):
    docs = []
    for _ in range(2):
        tm = _one_hop(linear1, sink_partition, 1.0, 40, cfg, rng_seed=12)
        docs.append(json.dumps(transitions_to_json(tm, 12, 40), sort_keys=True))
    assert docs[0] == docs[1]


def test_sampled_starts_follow_largest_index_rule(cfg):
    # every start is drawn in its source ball and kept only when the
    # largest-index rule puts it in that ball's cell
    grid = np.stack(np.meshgrid(np.arange(4) * 0.3, np.arange(4) * 0.3,
                                indexing="ij"), axis=-1).reshape(-1, 2)
    part = _partition(grid, np.full(16, 0.25))
    model = LinearDiagonal(rates=[1.0, 2.0])
    starts, itins = sample_itineraries(model, part, 0.1, 1, 50, cfg, rng_seed=16)
    assert np.array_equal(part.assign_many(starts), itins[:, 0])


def test_sampled_start_pairs_are_admissible(linear1, sink_partition, cfg):
    # a point that was among the transition samples must encode a first pair
    # that Gamma marks admissible
    from segdyn import encode_orbit
    starts, itins = sample_itineraries(linear1, sink_partition, 1.0, 1, 30, cfg, rng_seed=14)
    tm = _one_hop(linear1, sink_partition, 1.0, 30, cfg, rng_seed=14)
    for x0, itin in zip(starts[:20], itins[:20]):
        if itin[1] == 0:
            continue
        word = encode_orbit(linear1, sink_partition, x0, 2, 1.0, cfg)
        assert word.word == tuple(itin)
        assert dense(tm)[word.word[0] - 1, word.word[1] - 1] > 0


def test_sampling_error_for_empty_cell(linear1, cfg):
    # ball 1 is completely shadowed by the identical later ball 2
    part = _partition([[0.0], [0.0]], [0.5, 0.5])
    with pytest.raises(SamplingError, match="cell 1"):
        _one_hop(linear1, part, 1.0, 10, cfg, rng_seed=15, max_draw_factor=20)


def _reference_starts(partition, count, seed, max_draw_factor, counters=None):
    """Rejection sampling one cell at a time, each point assigned by the
    broadcast squared distance to every ball of the cover; counters gets the
    points drawn and those in their own cell."""
    centers, radii = partition.cover.centers, partition.cover.radii
    ids = np.arange(1, centers.shape[0] + 1)
    d = centers.shape[1]
    budget = max_draw_factor * count
    starts = []
    for cell in ids.tolist():
        rng = derive_rng(seed, STREAM_TRANSITIONS, cell)
        got = drawn = 0
        while got < count and drawn < budget:
            m = min(max(4 * (count - got), 64), budget - drawn)
            drawn += m
            u = rng.normal(size=(m, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            pts = centers[cell - 1] + (radii[cell - 1] * rng.random(m) ** (1.0 / d))[:, None] * u
            inside = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1) <= radii ** 2
            hit = pts[np.where(inside, ids, 0).max(axis=1) == cell]
            if counters is not None:
                counters["start_draws"] = counters.get("start_draws", 0) + m
                counters["start_hits"] = counters.get("start_hits", 0) + hit.shape[0]
            hit = hit[:count - got]
            starts.append(hit)
            got += hit.shape[0]
        if got < count:
            raise SamplingError(
                f"cell {cell}: rejection sampling produced {got}/{count} points "
                f"after {drawn} draws; the cell is a vanishing fraction of its ball")
    return np.concatenate(starts).reshape(-1, d)


def _sampled_or_error(draw):
    try:
        return draw()
    except SamplingError as err:
        return str(err)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([3, 40, 158]),
       st.integers(1, 12), st.sampled_from([200, 30]), st.booleans(),
       st.sampled_from([1 << 18, 1 << 13, 500, 1]), st.integers(0, 2 ** 32 - 1))
def test_batched_sampler_matches_per_cell_loop(d, n, count, factor, huge, block_rows, seed):
    # overlapping balls on a jittered lattice, so that every cell keeps a
    # core of its own; the last ball leaves only a thin shell (2% of its
    # volume) of the one before it, whose cell then needs many rounds or
    # runs out of draws; ball 1 may be 50x larger. Covers of 3 to 158 balls
    # are assigned through the grid index, and small row budgets split the
    # cells into several groups.
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n ** (1.0 / d)))
    sites = np.indices((side,) * d).reshape(d, -1).T
    centers = rng.permutation(sites)[:n] + rng.uniform(-0.1, 0.1, size=(n, d))
    radii = rng.uniform(0.5, 0.7, size=n)
    centers[-1] = centers[-2]
    radii[-1] = radii[-2] * 0.98 ** (1.0 / d)
    if huge:
        radii[0] *= 50.0
    part = _partition(centers, radii)
    ref_counters, counters = {}, {}
    expected = _sampled_or_error(
        lambda: _reference_starts(part, count, seed, factor, ref_counters))
    with mock.patch.object(transitions, "_BLOCK_ROWS", block_rows):
        got = _sampled_or_error(
            lambda: transitions._draw_cell_starts(part, count, seed, factor, counters))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == expected.tobytes()
        assert counters == ref_counters


@pytest.mark.parametrize("block_rows", [1 << 18, 1 << 13, 1])
def test_sampling_error_names_the_lowest_failing_cell(block_rows):
    # cells 2 and 4 are shadowed by identical later balls and never get a
    # point: 10 points at a budget of 20 per point are 64 + 64 + 64 + 8 draws
    part = _partition([[0.0], [3.0], [3.0], [6.0], [6.0]], np.full(5, 0.5))
    with mock.patch.object(transitions, "_BLOCK_ROWS", block_rows):
        with pytest.raises(SamplingError) as err:
            transitions._draw_cell_starts(part, 10, 3, 20)
    assert str(err.value) == ("cell 2: rejection sampling produced 0/10 points after 200 "
                              "draws; the cell is a vanishing fraction of its ball")
    # a cell that gets some points but not all: ball 3 keeps a thin shell of
    # ball 2, and ball 5 swallows ball 4
    part = _partition([[0.0], [3.0], [3.0], [6.0], [6.0]], [0.5, 0.5, 0.499, 0.5, 0.6])
    with pytest.raises(SamplingError) as err:
        transitions._draw_cell_starts(part, 10, 3, 20)
    with pytest.raises(SamplingError) as expected:
        _reference_starts(part, 10, 3, 20)
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith("cell 2: rejection sampling produced ")
    assert "produced 0/10" not in str(err.value)


def test_row_sensitivity_examples():
    assert row_sensitivity(from_counts(np.ones((2, 2)))) is True
    assert row_sensitivity(from_counts(np.eye(2))) is False
    assert row_sensitivity(from_counts([[1, 1], [0, 1]])) is False


def test_row_sensitivity_skips_unsupported_rows():
    gamma = from_counts([[1, 1, 0], [1, 0, 1], [0, 0, 0]])
    assert row_sensitivity(gamma) is True


def test_expanding_full_shift_true():
    verdict = expanding_to_depth(make_markov_tensors(np.ones((2, 2)), 3), m_max=2)
    assert verdict.expanding_up_to_depth is True
    assert verdict.witness_failures == []


def test_expanding_single_itinerary_false_with_witness():
    tensors = [
        TransitionTensor(order=2, tuples=[(1, 1)], n_cells=1),
        TransitionTensor(order=3, tuples=[(1, 1, 1)], n_cells=1),
    ]
    verdict = expanding_to_depth(tensors, m_max=2)
    assert verdict.expanding_up_to_depth is False
    assert verdict.witness_failures == [(1,)]


def test_expanding_all_ones_with_length3_tuples():
    verdict = expanding_to_depth(make_markov_tensors(np.ones((2, 2)), 3), m_max=1)
    assert verdict.expanding_up_to_depth is True


def test_expanding_golden_mean_depth3():
    golden = np.array([[0, 1], [1, 1]])
    verdict = expanding_to_depth(make_markov_tensors(golden, 3), m_max=2)
    assert verdict.expanding_up_to_depth is True
    # (2,1) only extends to (2,1,2) within depth 3; its m_max window does not
    # fit, so it is inconclusive rather than failing
    assert (2, 1) in verdict.inconclusive


def test_expanding_identity_false():
    verdict = expanding_to_depth(make_markov_tensors(np.eye(2), 3), m_max=2)
    assert verdict.expanding_up_to_depth is False
    assert set(verdict.witness_failures) == {(1,), (2,)}


def test_expanding_missing_order_errors():
    t2 = TransitionTensor(order=2, tuples=[(1, 1)], n_cells=1)
    t4 = TransitionTensor(order=4, tuples=[(1, 1, 1, 1)], n_cells=1)
    with pytest.raises(ValueError, match="consecutive"):
        expanding_to_depth([t2, t4], m_max=1)


def _expanding_by_tuple_dicts(tensors, m_max: int):
    """Reference expanding_to_depth over Python tuples: one prefix -> final
    symbols dict per (j, m), looked up tuple by tuple. Returns (verdict,
    witness_failures, inconclusive)."""
    by_order = {t.order: set(map(tuple, t.tuples.tolist())) for t in tensors}
    depth = max(by_order)
    symbols = set()
    for t in by_order[2]:
        symbols.update(t)
    to_check = [(s,) for s in sorted(symbols)]
    for order in range(2, depth):
        to_check.extend(sorted(by_order[order]))
    failures, inconclusive, cache = [], [], {}

    def finals(j, m):
        if (j, m) not in cache:
            table = {}
            for tup in by_order[j + m]:
                table.setdefault(tup[:j], set()).add(tup[-1])
            cache[j, m] = table
        return cache[j, m]

    for tup in to_check:
        j = len(tup)
        ok = any(len(finals(j, m).get(tup, ())) >= 2
                 for m in range(1, min(m_max, depth - j) + 1))
        if not ok:
            (failures if j + m_max <= depth else inconclusive).append(tup)
    return not failures, failures, inconclusive


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(2, 5), st.integers(1, 6), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_expanding_matches_the_tuple_dict_reference(n, depth, m_max, closed, seed):
    # random tensor sets, prefix closed or not, some tables empty; m_max runs
    # past the depth so that every window length is seen
    rng = np.random.default_rng(seed)
    m_max = min(m_max, depth + 1)
    tensors, previous = [], None
    for order in range(2, depth + 1):
        density = 0.0 if rng.random() < 0.15 else rng.random()
        rows = [t for t in itertools.product(range(1, n + 1), repeat=order)
                if (not closed or previous is None or t[:-1] in previous)
                and rng.random() < density]
        previous = set(rows)
        rng.shuffle(rows)
        tensors.append(TransitionTensor(order=order, tuples=rows, n_cells=n))
    verdict = expanding_to_depth(tensors, m_max=m_max)
    assert (verdict.depth, verdict.m_max) == (depth, m_max)
    assert (verdict.expanding_up_to_depth, verdict.witness_failures,
            verdict.inconclusive) == _expanding_by_tuple_dicts(tensors, m_max)
    assert all(type(s) is int for t in verdict.witness_failures + verdict.inconclusive
               for s in t)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(*[st.integers(1, 4)] * k), max_size=30))))
def test_tensor_rows_are_distinct_and_sorted(spec):
    order, rows = spec
    tensor = TransitionTensor(order=order, tuples=rows, n_cells=4)
    assert tensor.tuples.dtype == np.int64
    assert tensor.tuples.shape == (len(set(rows)), order)
    assert list(map(tuple, tensor.tuples.tolist())) == sorted(set(rows))


@pytest.mark.parametrize("rows", [[], np.empty((0, 3), dtype=np.int64)], ids=["list", "array"])
def test_empty_tensor_is_an_empty_table(rows):
    tensor = TransitionTensor(order=3, tuples=rows, n_cells=2)
    assert tensor.tuples.shape == (0, 3) and tensor.tuples.dtype == np.int64


@pytest.mark.parametrize("rows, shape", [
    ([1, 2, 1, 2, 1, 2], "(6,)"),
    ([(1, 2), (2, 1), (1, 1)], "(3, 2)"),
    (np.ones((2, 1, 3), dtype=np.int64), "(2, 1, 3)"),
])
def test_tensor_rejects_tables_of_the_wrong_shape(rows, shape):
    # six symbols are never read as two rows of three
    with pytest.raises(ValueError) as err:
        TransitionTensor(order=3, tuples=rows, n_cells=2)
    assert str(err.value) == f"tuples must be a table of order-3 rows, got shape {shape}"


@pytest.fixture(scope="module")
def linear_three_center_library():
    cfg = IntegratorConfig(step=1e-3)
    model = LinearDiagonal(rates=[1.0])
    cover = Cover(centers=np.array([[-1.0], [0.0], [1.0]]), radii=np.full(3, 0.3))
    lib = build_segments(model, cover, 1.0, 5, cfg)
    return model, cfg, Partition(cover=cover), lib


def test_ball_admissibility_hand_instance(linear_three_center_library):
    model, cfg, part, lib = linear_three_center_library
    rho = jacobian_norms(model, part.cover.centers, 1.0, cfg)
    assert np.allclose(rho, np.exp(-1.0), atol=1e-5)
    # the segment from center 1.0 ends at e^-1 ~ 0.368; its image ball, of
    # radius 0.3 e^-1 ~ 0.110, meets ball 2 (0.368 <= 0.410) and not ball 3
    assert ball_admissibility(lib, part, rho, 3) == {2}
    indptr, successors = ball_successors(lib, part, rho)
    assert indptr.tolist() == [0, 1, 2, 3] and successors.tolist() == [2, 2, 2]


def test_ball_admissibility_radius_extremes(linear_three_center_library):
    model, cfg, part, lib = linear_three_center_library
    # a point image: e^-1 is farther than 0.3 from center 0.0
    assert ball_admissibility(lib, part, np.zeros(3), 3) == set()
    assert ball_admissibility(lib, part, np.full(3, 100.0), 3) == {1, 2, 3}


def test_single_cell_cover_gives_a_one_row_enclosure(linear1, cfg):
    cover = Cover(centers=np.array([[0.0]]), radii=np.array([0.5]))
    lib = build_segments(linear1, cover, 1.0, 3, cfg)
    indptr, successors = ball_successors(lib, Partition(cover=cover), [1.0])
    assert indptr.tolist() == [0, 1] and successors.tolist() == [1]


def _enclosure_loop(lib, partition, rho):
    """The enclosure by its definition, one image ball against every ball."""
    centers, deltas = partition.cover.centers, partition.cover.radii
    indptr, successors = [0], []
    for m, end in enumerate(lib.ends()):
        reach = transitions.ENCLOSURE_SLACK * rho[m] * deltas[m]
        meets = ((end - centers) ** 2).sum(axis=1) <= (reach + deltas) ** 2
        successors.extend(np.flatnonzero(meets) + 1)
        indptr.append(len(successors))
    return np.array(indptr), np.array(successors, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_ball_successors_match_per_cell_loop(d, n, seed):
    # centers and half the ends on a small integer lattice, with lattice
    # radii, so that many distances tie the radius sum exactly; rho holds
    # zeros; 64-point query blocks make n > 64 span blocks
    rng = np.random.default_rng(seed)
    centers = rng.integers(-3, 4, size=(n, d)).astype(float)
    ends = np.where(rng.random((n, 1)) < 0.5, rng.integers(-3, 4, size=(n, d)),
                    rng.uniform(-4.0, 4.0, size=(n, d)))
    radii = rng.choice([0.5, 1.0, 1.5, rng.uniform(0.1, 2.0)], size=n)
    rho = rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0)], size=n)
    lib = SegmentLibrary(times=np.array([0.0, 1.0]),
                         states=np.stack([centers, ends], axis=1), horizon=1.0,
                         epsilon=np.nan, model_id="test", step=0.1)
    part = Partition(cover=Cover(centers=centers, radii=radii))
    with mock.patch.object(cover_module, "_QUERY_ROWS", 64):
        indptr, successors = ball_successors(lib, part, rho)
    want_indptr, want_successors = _enclosure_loop(lib, part, rho)
    assert indptr.tolist() == want_indptr.tolist()
    assert successors.tolist() == want_successors.tolist()
    cell = int(rng.integers(1, n + 1))
    assert (ball_admissibility(lib, part, rho, cell)
            == set(successors[indptr[cell - 1]:indptr[cell]].tolist()))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 2), st.integers(2, 6), st.lists(st.floats(-1.0, 2.0), min_size=2,
                                                      max_size=2), st.integers(0, 2 ** 16))
def test_linear_enclosure_holds_every_sampled_transition(d, n, rates, seed):
    # LinearDiagonal maps B(c, delta) into B(phi_T(c), rho delta), rho the
    # largest e^(-a T): at slack 1 the enclosure holds every sampled landing.
    # A strong contraction can carry every sample out of the cover (rate 2
    # and two balls away from 0); such an example has no landing to check
    rng = np.random.default_rng(seed)
    model, cfg, horizon = LinearDiagonal(rates=rates[:d]), IntegratorConfig(step=0.01), 0.5
    sites = np.indices((6,) if d == 1 else (3, 3)).reshape(d, -1).T
    cover = Cover(centers=rng.permutation(sites)[:n] * 1.0, radii=rng.uniform(0.3, 0.8, size=n))
    part = Partition(cover=cover)
    lib = build_segments(model, cover, horizon, 3, cfg)
    rho = jacobian_norms(model, cover.centers, horizon, cfg)
    _, itins = sample_itineraries(model, part, horizon, 1, 50, cfg, rng_seed=seed)
    landed = itins[itins[:, 1] > 0]
    assume(landed.shape[0] > 0)
    for src, dst in {tuple(pair) for pair in landed.tolist()}:
        assert dst in ball_admissibility(lib, part, rho, src), (src, dst)


def test_ball_admissibility_rejects_cells_outside_the_cover(linear_three_center_library):
    model, cfg, part, lib = linear_three_center_library
    with pytest.raises(ValueError, match=r"cell id 4 out of range 1\.\.3"):
        ball_admissibility(lib, part, np.ones(3), 4)
    with pytest.raises(ValueError, match=r"cell id 0 out of range"):
        ball_admissibility(lib, part, np.ones(3), 0)


@pytest.mark.parametrize("rho", [[1.0, np.nan, 1.0], [1.0, -0.5, 1.0]], ids=["nan", "negative"])
def test_ball_successors_rejects_rho_below_zero_or_nan(linear_three_center_library, rho):
    model, cfg, part, lib = linear_three_center_library
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        ball_successors(lib, part, rho)


def test_transitions_json_roundtrip_sparse():
    n = 600
    rng = np.random.default_rng(0)
    counts = np.zeros((n, n), dtype=np.int64)
    rows = rng.integers(0, n, size=400)
    cols = rng.integers(0, n, size=400)
    counts[rows, cols] += 7
    landed = counts.sum(axis=1)
    p = np.where(landed[:, None] > 0, counts / np.maximum(landed, 1)[:, None], 0.0)
    doc = transitions_to_json(from_counts(counts), rng_seed=1, samples_per_cell=7)
    assert doc["format"] == "sparse"
    tm2 = transitions_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(dense(tm2), counts)
    assert np.array_equal(dense(tm2, tm2.p), p)


def _sparse_doc(n=600):
    return {"n_cells": n, "escapes": [0] * n, "format": "sparse",
            "counts": [[1, 2, 3], [n, n, 1]], "p": [[1, 2, 1.0], [n, n, 1.0]]}


def test_sparse_transitions_read_their_triplets():
    tm = transitions_from_json(_sparse_doc())
    assert np.array_equal(np.argwhere(dense(tm)), [[0, 1], [599, 599]])
    assert dense(tm)[0, 1] == 3 and dense(tm, tm.p)[599, 599] == 1.0
    with pytest.raises(ValueError, match=r"counts must be a list of \(row, col, value\)"):
        transitions_from_json(dict(_sparse_doc(), counts=[[1, 2], [3, 4]]))


@pytest.mark.parametrize("key, entry, message", [
    ("counts", [0, 2, 3], "counts entry 1: row 0 is not a cell id in 1..600"),
    ("counts", [601, 2, 3], "counts entry 1: row 601 is not a cell id in 1..600"),
    ("counts", [1, 0, 3], "counts entry 1: col 0 is not a cell id in 1..600"),
    ("counts", [1, 2.5, 3], "counts entry 1: col 2.5 is not a cell id in 1..600"),
    ("counts", [1, 2, -1], "counts entry 1: value -1 is not a nonnegative number"),
    ("p", [1, 601, 0.5], "p entry 1: cell pair (1, 601) is not (600, 600), the next pair "
                         "with a count"),
    ("p", [1, 2, float("nan")], "p entry 1: cell pair (1, 2) is not (600, 600), the next pair "
                                "with a count"),
    ("counts", [1, 2.0, 3], "counts entry 1: col 2.0 is not a cell id in 1..600"),
    ("counts", [True, "2", 3], "counts entry 1: row true is not a cell id in 1..600"),
    ("counts", [1, "2", 3], 'counts entry 1: col "2" is not a cell id in 1..600'),
    ("p", [1, False, 0.5], "p entry 1: col false is not a JSON integer"),
    ("counts", [1, 2, 2.5], "counts entry 1: value 2.5 is not an int64 count"),
    ("counts", [1, 2, 1e30], "counts entry 1: value 1e+30 is not an int64 count"),
    ("counts", [1, 2, 2 ** 63], "counts entry 1: value 9223372036854775808 is not an int64 count"),
    ("counts", [1, 2, True], "counts entry 1: value true is not an int64 count"),
    ("counts", [1, 2, 4], "counts entry 1: cell pair (1, 2) repeats an earlier entry"),
    ("p", [1, 2, 0.5], "p entry 1: cell pair (1, 2) is not (600, 600), the next pair with a "
                       "count"),
    ("p", [3, 4, 0.5], "p entry 1: cell pair (3, 4) is not (600, 600), the next pair with a "
                       "count"),
    ("p", [600, 600, float("nan")], "p entry 1: value NaN is not 1.0, the p that its counts "
                                    "give"),
    ("p", [600, 600, True], "p entry 1: value true is not a JSON number"),
])
def test_sparse_transitions_reject_bad_triplets(key, entry, message):
    doc = _sparse_doc()
    doc[key] = [doc[key][0], entry]
    with pytest.raises(ValueError) as err:
        transitions_from_json(doc)
    assert str(err.value) == message


# the two tests below keep the names they had when tables of up to 512
# cells were written dense; their small tables' documents are triplets now


def test_dense_transitions_reject_mismatched_p_and_negative_counts():
    doc = transitions_to_json(from_counts(np.eye(2)), rng_seed=1, samples_per_cell=1)
    assert doc["format"] == "sparse" and doc["counts"] == [[1, 1, 1], [2, 2, 1]]
    with pytest.raises(ValueError, match=r"^p entry 0: cell pair \(1, 2\) is not \(1, 1\), "
                                         r"the next pair with a count$"):
        transitions_from_json(dict(doc, p=[[1, 2, 1.0]]))
    with pytest.raises(ValueError, match="^counts entry 1: value -1 is not a nonnegative number$"):
        transitions_from_json(dict(doc, counts=[[1, 1, 1], [2, 2, -1]]))


def _small_doc():
    return transitions_to_json(from_counts(2 * np.eye(2), escapes=[1, 0]), rng_seed=1,
                               samples_per_cell=3)


@pytest.mark.parametrize("key, value, message", [
    ("counts", [[1, 1, 2], [2, 2, 2.5]], "counts entry 1: value 2.5 is not an int64 count"),
    ("counts", [[1, 1, 2], [2, 2, 2.0]], "counts entry 1: value 2.0 is not an int64 count"),
    ("counts", [[1, 1, 2], [1, 2, False]], "counts entry 1: value false is not an int64 count"),
    ("counts", [[1, 1, 2], [2, 2, 2 ** 63]],
     "counts entry 1: value 9223372036854775808 is not an int64 count"),
    ("counts", [[1, 1, 2], [2, 2]], "counts must be a list of (row, col, value) triplets"),
    ("escapes", [1, 0.5], "escapes must be nonnegative JSON integers; cell 2 holds 0.5"),
    ("escapes", [1, "0"], 'escapes must be nonnegative JSON integers; cell 2 holds "0"'),
    ("escapes", [-1, 0], "escapes must be nonnegative JSON integers; cell 1 holds -1"),
    ("escapes", 1, "escapes must be a list of counts"),
    ("p", [[1, 1, 1.0], [1, 2, 0.0]],
     "p entry 1: cell pair (1, 2) is not (2, 2), the next pair with a count"),
    ("p", [[1, 1, 1.0]],
     "the number of p entries, 1, is not the number of cell pairs with a count, 2"),
    ("p", [[1, 1, 1.0], [2, 2, 1.0], [2, 2, 1.0]],
     "the number of p entries, 3, is not the number of cell pairs with a count, 2"),
    ("p", {"1": 1.0}, "p must be a list of (row, col, value) triplets"),
])
def test_dense_transitions_reject_bad_cells(key, value, message):
    with pytest.raises(ValueError) as err:
        transitions_from_json(dict(_small_doc(), **{key: value}))
    assert str(err.value) == message


@pytest.mark.parametrize("fmt", ["dense", "csr", None, 1])
def test_transitions_json_refuses_other_formats(fmt):
    doc = dict(_small_doc(), format=fmt)
    if fmt == "dense":  # the tables a dense document held
        doc.update(admissible=[[1, 0], [0, 1]], counts=[[2, 0], [0, 2]],
                   p=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError) as err:
        transitions_from_json(doc)
    assert str(err.value) == f'format {json.dumps(fmt)} is not "sparse"'


def test_sparse_transitions_reject_fractional_escapes():
    with pytest.raises(ValueError) as err:
        transitions_from_json(dict(_sparse_doc(), escapes=[0] * 599 + [2.5]))
    assert str(err.value) == "escapes must be nonnegative JSON integers; cell 600 holds 2.5"


@pytest.mark.parametrize("field, value", [("order", 3.0), ("order", "3"), ("order", True),
                                          ("n_cells", 5.0), ("n_cells", "5"),
                                          ("n_cells", False)])
def test_tensor_json_rejects_non_integer_order_and_cell_count(field, value):
    doc = dict({"order": 3, "n_cells": 5, "tuples": [[1, 2, 3]]}, **{field: value})
    with pytest.raises(ValueError) as err:
        tensor_from_json(doc)
    assert str(err.value) == f"{field} {json.dumps(value)} is not a JSON integer"


def test_tensor_json_roundtrip(tmp_path):
    t = TransitionTensor(order=3, tuples=[(2, 1, 2), (1, 2, 1), (2, 1, 2)], n_cells=2)
    write_json(tmp_path / "tensors.json", {"tensors": [tensor_to_json(t)]})
    (doc,) = read_json(tmp_path / "tensors.json")["tensors"]
    assert doc == {"order": 3, "n_cells": 2, "tuples": [[1, 2, 1], [2, 1, 2]]}
    back = tensor_from_json(doc)
    assert (back.order, back.n_cells) == (3, 2)
    assert back.tuples.dtype == np.int64
    assert np.array_equal(back.tuples, t.tuples)


@pytest.mark.parametrize("tuples, message", [
    ([[1, 2, 3], [1.5, 2, 3]], "tuples entry 1: [1.5, 2, 3] is not a list of integer cell ids"),
    ([[True, 2, 4]], "tuples entry 0: [true, 2, 4] is not a list of integer cell ids"),
    ([[1, 2, 3], ["2", 2, 3]], 'tuples entry 1: ["2", 2, 3] is not a list of integer cell ids'),
    ([[1, 2, 3], 4], "tuples entry 1: 4 is not a list of integer cell ids"),
    ([[1, 99, 1]], r"tuple (1, 99, 1) has a symbol outside 1..5"),
    ([[1, 2, 3], [1, 2]], "tuples entry 1: [1, 2] does not have order 3"),
    ([[1, 2, 3], [1, 2 ** 70, 1]], "tuple (1, 1180591620717411303424, 1) has a symbol outside 1..5"),
])
def test_tensor_json_rejects_non_integer_cell_ids(tuples, message):
    with pytest.raises(ValueError) as err:
        tensor_from_json({"order": 3, "n_cells": 5, "tuples": tuples})
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [(1, 99, 1), (0, 1, 1)])
def test_tensor_rejects_symbols_outside_cells(bad):
    with pytest.raises(ValueError, match=r"outside 1\.\.8"):
        TransitionTensor(order=3, tuples=[(1, 2, 1), bad], n_cells=8)


def test_counts_imply_admissible_invariant():
    # Gamma is the pattern of the counts, so a stored pair must have a count
    with pytest.raises(ValueError, match="stored counts must be positive"):
        TransitionMatrix(indptr=[0, 1], indices=[0], counts=[0], escapes=[0])


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 1], [0, 1], "indptr must run from 0 to len(indices)"),
    ([0, 2, 1], [0], "indptr must run from 0 to len(indices)"),
    ([0, 1, 2], [0, 2], "column indices must lie in 0..1"),
    ([0, 2, 2], [1, 1], "the column indices of each row must ascend strictly"),
    ([0, 2, 2], [1, 0], "the column indices of each row must ascend strictly"),
    ([[0, 1]], [0], "indptr and indices must be 1-d"),
])
def test_csr_tables_reject_bad_patterns(indptr, indices, message):
    counts = np.ones(len(indices), dtype=np.int64)
    with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
        TransitionMatrix(indptr, indices, counts, np.zeros(2, dtype=np.int64))


def test_csr_rows_may_start_below_the_row_before():
    # row 1 ends at column 1 and row 2 starts at column 0; an empty row between
    tm = TransitionMatrix([0, 2, 2, 3], [0, 2, 1], [1, 2, 3], [0, 4, 0])
    assert tm.landed.tolist() == [3, 0, 3]
    assert tm.escape_fractions().tolist() == [0.0, 1.0, 0.0]
    assert tm.p.tolist() == [1 / 3, 2 / 3, 1.0]
