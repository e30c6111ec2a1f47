import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_markov_tensors
from segdyn import (
    Cover,
    IntegratorConfig,
    LinearDiagonal,
    Partition,
    SamplingError,
    ball_admissibility,
    ball_successors,
    build_segments,
    estimate_tensor,
    estimate_transitions,
    expanding_to_depth,
    jacobian_norms,
    row_sensitivity,
    sample_itineraries,
)
from segdyn.segments import SegmentLibrary
from segdyn.transitions import (
    MarkovMatrix,
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


@pytest.fixture(scope="module")
def sink_partition():
    # contracting 1-d flow: both balls' images end up near 0, which the
    # largest-index rule assigns to cell 2
    return _partition([[-0.5], [0.5]], [0.6, 0.6])


def test_single_cell_self_map(linear1, cfg):
    part = _partition([[0.0]], [0.5])
    tm, mm = estimate_transitions(linear1, part, 1.0, 40, cfg, rng_seed=1)
    assert tm.admissible.tolist() == [[True]]
    assert mm.p.tolist() == [[1.0]]
    assert tm.escapes.tolist() == [0]


def test_zero_horizon_gives_identity(linear1, sink_partition, cfg):
    tm, mm = estimate_transitions(linear1, sink_partition, 0.0, 25, cfg, rng_seed=2)
    assert np.array_equal(tm.admissible, np.eye(2, dtype=bool))
    assert np.array_equal(mm.p, np.eye(2))


def test_contraction_funnels_into_sink_cell(linear1, sink_partition, cfg):
    # oracle: e^{-3} * x keeps every point of both balls within [-0.041, 0.041],
    # inside both balls, so the largest-index rule lands everything in cell 2
    tm, mm = estimate_transitions(linear1, sink_partition, 3.0, 60, cfg, rng_seed=3)
    assert np.array_equal(tm.admissible, [[False, True], [False, True]])
    assert np.array_equal(mm.p, [[0.0, 1.0], [0.0, 1.0]])


def test_tensor_order2_equals_gamma_same_seed(linear1, sink_partition, cfg):
    tm, _ = estimate_transitions(linear1, sink_partition, 3.0, 60, cfg, rng_seed=3)
    t2 = estimate_tensor(linear1, sink_partition, 3.0, 2, 60, cfg, rng_seed=3)
    pairs = {(i + 1, j + 1) for i, j in zip(*np.nonzero(tm.admissible))}
    assert t2.admissible_tuples == frozenset(pairs)


def test_contraction_tensor_order3(linear1, sink_partition, cfg):
    t3 = estimate_tensor(linear1, sink_partition, 3.0, 3, 60, cfg, rng_seed=3)
    assert t3.admissible_tuples == frozenset({(1, 2, 2), (2, 2, 2)})


def test_zero_field_only_constant_tuples(zero_field_1d, cfg):
    part = _partition([[-0.5], [0.5]], [0.3, 0.3])
    t3 = estimate_tensor(zero_field_1d, part, 1.0, 3, 30, cfg, rng_seed=4)
    assert t3.admissible_tuples == frozenset({(1, 1, 1), (2, 2, 2)})


def test_prefix_closure_across_orders(linear1, cfg):
    part = _partition([[-0.7], [0.0], [0.7]], [0.45, 0.45, 0.45])
    tensors = {k: estimate_tensor(linear1, part, 0.6, k, 50, cfg, rng_seed=7)
               for k in (2, 3, 4)}
    for k in (3, 4):
        for t in tensors[k].admissible_tuples:
            assert t[:-1] in tensors[k - 1].admissible_tuples


def test_markov_rows_sum_to_one(linear1, cfg):
    part = _partition([[-0.7], [0.0], [0.7]], [0.45, 0.45, 0.45])
    tm, mm = estimate_transitions(linear1, part, 0.6, 50, cfg, rng_seed=8)
    landed = tm.counts.sum(axis=1)
    for m in range(3):
        row = mm.p[m].sum()
        if landed[m] > 0:
            assert abs(row - 1.0) <= 1e-9
        else:
            assert row == 0.0
    assert np.array_equal(mm.p > 0, tm.counts > 0)


def test_escaping_cell_is_unsupported(expanding1d, cfg):
    part = _partition([[1.0]], [0.1])
    tm, mm = estimate_transitions(expanding1d, part, 3.0, 20, cfg, rng_seed=9)
    assert tm.unsupported_rows == {1}
    assert tm.escape_fractions().tolist() == [1.0]
    assert np.array_equal(mm.p, [[0.0]])


def test_seed_determinism_bytes(linear1, sink_partition, cfg):
    docs = []
    for _ in range(2):
        tm, mm = estimate_transitions(linear1, sink_partition, 1.0, 40, cfg, rng_seed=12)
        docs.append(json.dumps(transitions_to_json(tm, mm, 12, 40), sort_keys=True))
    assert docs[0] == docs[1]


def test_sampled_starts_follow_largest_index_rule(cfg):
    # the rejection sampler tests only the balls that meet the sampled one;
    # the full partition must still assign every start to its source cell
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
    tm, _ = estimate_transitions(linear1, sink_partition, 1.0, 30, cfg, rng_seed=14)
    for x0, itin in zip(starts[:20], itins[:20]):
        if itin[1] == 0:
            continue
        word = encode_orbit(linear1, sink_partition, x0, 2, 1.0, cfg)
        assert word.word == tuple(itin)
        assert tm.admissible[word.word[0] - 1, word.word[1] - 1]


def test_sampling_error_for_empty_cell(linear1, cfg):
    # ball 1 is completely shadowed by the identical later ball 2
    part = _partition([[0.0], [0.0]], [0.5, 0.5])
    with pytest.raises(SamplingError, match="cell 1"):
        estimate_transitions(linear1, part, 1.0, 10, cfg, rng_seed=15, max_draw_factor=20)


def test_row_sensitivity_examples():
    assert row_sensitivity(np.ones((2, 2), dtype=bool)) is True
    assert row_sensitivity(np.eye(2, dtype=bool)) is False
    assert row_sensitivity(np.array([[1, 1], [0, 1]], dtype=bool)) is False


def test_row_sensitivity_skips_unsupported_rows():
    gamma = np.array([[1, 1, 0], [1, 0, 1], [0, 0, 0]], dtype=bool)
    assert row_sensitivity(gamma) is True


def test_expanding_full_shift_true():
    verdict = expanding_to_depth(make_markov_tensors(np.ones((2, 2)), 3), m_max=2)
    assert verdict.expanding_up_to_depth is True
    assert verdict.witness_failures == []


def test_expanding_single_itinerary_false_with_witness():
    tensors = [
        TransitionTensor(order=2, admissible_tuples=frozenset({(1, 1)}), n_cells=1),
        TransitionTensor(order=3, admissible_tuples=frozenset({(1, 1, 1)}), n_cells=1),
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
    t2 = TransitionTensor(order=2, admissible_tuples=frozenset({(1, 1)}), n_cells=1)
    t4 = TransitionTensor(order=4, admissible_tuples=frozenset({(1, 1, 1, 1)}), n_cells=1)
    with pytest.raises(ValueError, match="consecutive"):
        expanding_to_depth([t2, t4], m_max=1)


@pytest.fixture(scope="module")
def linear_three_center_library():
    cfg = IntegratorConfig(step=1e-3)
    model = LinearDiagonal(rates=[1.0])
    cover = Cover(centers=np.array([[-1.0], [0.0], [1.0]]), radii=np.full(3, 0.3))
    lib = build_segments(model, cover, 1.0, 5, cfg)
    return model, cfg, Partition(cover=cover), lib


def test_ball_admissibility_hand_instance(linear_three_center_library):
    model, cfg, part, lib = linear_three_center_library
    rho = jacobian_norms(model, lib.ends(), 1.0, cfg)
    assert np.allclose(rho, np.exp(-1.0), atol=1e-5)
    # segment from center 1.0 ends at e^-1 ~ 0.368: nearest start is 0.0, and
    # the admissibility radius e^-1 * 1 is below the 1.0 gap between centers
    assert ball_admissibility(lib, part, rho, 3) == {2}


def test_ball_admissibility_radius_extremes(linear_three_center_library):
    model, cfg, part, lib = linear_three_center_library
    assert ball_admissibility(lib, part, np.zeros(3), 3) == {2}
    assert ball_admissibility(lib, part, np.full(3, 100.0), 3) == {1, 2, 3}


def test_ball_admissibility_single_cell_errors(linear1, cfg):
    cover = Cover(centers=np.array([[0.0]]), radii=np.array([0.5]))
    lib = build_segments(linear1, cover, 1.0, 3, cfg)
    with pytest.raises(ValueError, match="at least two"):
        ball_admissibility(lib, Partition(cover=cover), [1.0], 1)


def _ball_rule_loop(lib, rho, cell):
    """The gradient-ball rule for one cell, written out with np.linalg.norm."""
    starts = lib.starts()
    gaps = np.linalg.norm(starts - starts[cell - 1], axis=1)
    gaps[cell - 1] = np.inf
    n_star = int(np.linalg.norm(starts - lib.ends()[cell - 1], axis=1).argmin())
    near = np.linalg.norm(starts - starts[n_star], axis=1) <= float(rho[cell - 1]) * gaps.min()
    near[n_star] = True
    return np.flatnonzero(near) + 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(2, 300), st.integers(0, 2 ** 32 - 1))
def test_ball_successors_match_per_cell_loop(d, n, seed):
    # starts on a small integer lattice repeat and tie; half the ends are
    # midpoints of two starts (a tie for the nearest start) or a start itself;
    # rho holds zeros, exact lattice distances and NaN (only n_* qualifies);
    # n > 256 spans blocks
    rng = np.random.default_rng(seed)
    starts = rng.integers(-3, 4, size=(n, d)).astype(float)
    a, b = rng.integers(n, size=(2, n))
    ends = np.where(rng.random((n, 1)) < 0.5, (starts[a] + starts[b]) / 2,
                    rng.uniform(-4.0, 4.0, size=(n, d)))
    rho = rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0), np.nan], size=n)
    lib = SegmentLibrary(cells=np.arange(1, n + 1), times=np.array([0.0, 1.0]),
                         states=np.stack([starts, ends], axis=1), horizon=1.0,
                         epsilon=np.nan, model_id="test", step=0.1)
    part = Partition(cover=Cover(centers=starts, radii=np.ones(n)))
    got = ball_successors(lib, part, rho)
    assert len(got) == n
    for cell in range(1, n + 1):
        assert np.array_equal(got[cell - 1], _ball_rule_loop(lib, rho, cell))
    cell = int(rng.integers(1, n + 1))
    assert ball_admissibility(lib, part, rho, cell) == set(got[cell - 1].tolist())


def test_ball_successors_rejects_cells_outside_the_cover(linear_three_center_library):
    model, cfg, part, lib = linear_three_center_library
    with pytest.raises(ValueError, match=r"cell id 4 out of range 1\.\.3"):
        ball_successors(lib, part, np.ones(3), [1, 4])
    with pytest.raises(ValueError, match=r"cell id 0 out of range"):
        ball_admissibility(lib, part, np.ones(3), 0)


def test_transitions_json_roundtrip_dense():
    counts = np.array([[3, 1], [0, 5]], dtype=np.int64)
    tm = TransitionMatrix(admissible=counts > 0, counts=counts,
                          escapes=np.array([1, 0], dtype=np.int64))
    mm = MarkovMatrix(p=counts / counts.sum(axis=1, keepdims=True))
    doc = transitions_to_json(tm, mm, rng_seed=5, samples_per_cell=5)
    assert doc["format"] == "dense"
    assert doc["escape_fractions"] == [0.2, 0.0]
    tm2, mm2 = transitions_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(tm2.counts, tm.counts)
    assert np.allclose(mm2.p, mm.p)
    assert tm2.unsupported_rows == set()


def test_transitions_json_roundtrip_sparse():
    n = 600
    rng = np.random.default_rng(0)
    counts = np.zeros((n, n), dtype=np.int64)
    rows = rng.integers(0, n, size=400)
    cols = rng.integers(0, n, size=400)
    counts[rows, cols] += 7
    landed = counts.sum(axis=1)
    p = np.where(landed[:, None] > 0, counts / np.maximum(landed, 1)[:, None], 0.0)
    tm = TransitionMatrix(admissible=counts > 0, counts=counts,
                          escapes=np.zeros(n, dtype=np.int64))
    doc = transitions_to_json(tm, MarkovMatrix(p=p), rng_seed=1, samples_per_cell=7)
    assert doc["format"] == "sparse"
    tm2, mm2 = transitions_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(tm2.counts, tm.counts)
    assert np.allclose(mm2.p, p)


def test_tensor_json_roundtrip():
    t = TransitionTensor(order=3, admissible_tuples=frozenset({(1, 2, 1), (2, 1, 2)}),
                         n_cells=2)
    back = tensor_from_json(json.loads(json.dumps(tensor_to_json(t))))
    assert back.order == 3
    assert back.admissible_tuples == t.admissible_tuples


@pytest.mark.parametrize("bad", [(1, 99, 1), (0, 1, 1)])
def test_tensor_rejects_symbols_outside_cells(bad):
    with pytest.raises(ValueError, match=r"outside 1\.\.8"):
        TransitionTensor(order=3, admissible_tuples=frozenset({(1, 2, 1), bad}), n_cells=8)


def test_counts_imply_admissible_invariant():
    with pytest.raises(ValueError, match="requires admissible"):
        TransitionMatrix(admissible=np.zeros((1, 1), dtype=bool),
                         counts=np.array([[2]], dtype=np.int64),
                         escapes=np.array([0], dtype=np.int64))
