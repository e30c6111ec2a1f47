import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_tensor_words, brute_force_words, from_counts
from segdyn import (
    Cover,
    EncodingError,
    IntegratorConfig,
    LinearDiagonal,
    Partition,
    SymbolSequence,
    advance_many,
    build_segments,
    calibrate_deltas,
    collocate,
    cylinder_measure,
    encode_many,
    encode_orbit,
    enumerate_admissible,
    ks_entropy,
    minimal_cover,
    reachable_symbols,
    reconstruct_pseudo_orbit,
    shadowing_report,
)
from segdyn.cover import BoxDomain
from segdyn.transitions import TransitionTensor
from test_csr import ref_row_entropies
from test_words import _all_ones_graph


@pytest.fixture(scope="module")
def linear_pipeline():
    """Contracting 1-d flow with a cover whose balls tile the box: every
    orbit stays covered, so encodings are complete and shadowing is exact."""
    cfg = IntegratorConfig(step=1e-3)
    model = LinearDiagonal(rates=[1.0])
    domain = BoxDomain(lower=[-1.0], upper=[1.0])
    centers = collocate(domain, [8])
    epsilon = 0.5
    deltas = calibrate_deltas(model, centers, 1.0, epsilon, cfg, delta_max=1.0, seed=2)
    cover = minimal_cover(centers, deltas, centers)
    partition = Partition(cover=cover)
    lib = build_segments(model, cover, 1.0, 9, cfg, epsilon=epsilon)
    return model, cfg, partition, lib


def _frozen_partition():
    return Partition(cover=Cover(centers=np.array([[0.0], [1.0], [2.0], [3.0]]),
                                 radii=np.full(4, 0.4)))


def test_encode_from_center(linear_pipeline):
    model, cfg, partition, lib = linear_pipeline
    center = partition.cover.centers[4]
    word = encode_orbit(model, partition, center, 1, 1.0, cfg)
    assert word.complete
    assert word.word == (partition.assign(center),)


def test_encode_frozen_flow_constant_word(zero_field_1d, cfg):
    partition = _frozen_partition()
    word = encode_orbit(zero_field_1d, partition, [2.1], 5, 1.0, cfg)
    assert word.word == (3, 3, 3, 3, 3)
    assert word.complete


def test_encode_start_outside_cells_errors(zero_field_1d, cfg):
    with pytest.raises(EncodingError, match="outside every cell"):
        encode_orbit(zero_field_1d, _frozen_partition(), [9.0], 3, 1.0, cfg)


def test_encode_truncates_on_escape(expanding1d, cfg):
    partition = Partition(cover=Cover(centers=np.array([[1.0]]), radii=np.array([0.2])))
    word = encode_orbit(expanding1d, partition, [1.0], 6, 1.0, cfg)
    assert not word.complete
    assert len(word.word) == 1  # e^1 * 1.0 is far outside the only ball


def test_encode_matches_fine_step_recomputation(lorenz):
    # symbols must agree when the trajectory is recomputed at half step
    rng = np.random.default_rng(3)
    burn = advance_many(lorenz, rng.uniform([-12, -15, 8], [12, 15, 35], (200, 3)),
                        4.0, IntegratorConfig(step=0.005))
    partition = Partition(cover=Cover(centers=burn, radii=np.full(200, 1.2)))
    candidates = advance_many(lorenz, burn, 7.3, IntegratorConfig(step=0.005))
    starts = candidates[partition.assign_many(candidates) > 0][:6]
    assert len(starts) == 6
    words_h = encode_many(lorenz, partition, starts, 10, 0.25, IntegratorConfig(step=0.005))
    words_h2 = encode_many(lorenz, partition, starts, 10, 0.25, IntegratorConfig(step=0.0025))
    for a, b in zip(words_h, words_h2):
        assert a is not None and b is not None
        assert a.word == b.word
        assert a.complete == b.complete


def test_reconstruct_single_word_is_the_segment(linear_pipeline):
    model, cfg, partition, lib = linear_pipeline
    pseudo = reconstruct_pseudo_orbit(lib, SymbolSequence(word=(3,), horizon=1.0))
    assert np.array_equal(pseudo.states, lib.states[2])
    assert np.array_equal(pseudo.times, lib.times)


def test_reconstruct_frozen_flow_constant(zero_field_1d, cfg):
    cover = Cover(centers=np.array([[0.5]]), radii=np.array([0.4]))
    lib = build_segments(zero_field_1d, cover, 1.0, 5, cfg)
    pseudo = reconstruct_pseudo_orbit(lib, SymbolSequence(word=(1, 1), horizon=1.0))
    assert pseudo.states.shape == (10, 1)
    assert np.allclose(pseudo.states, 0.5)
    # junction time 1.0 appears twice, once per abutting window
    assert (pseudo.times == 1.0).sum() == 2


def test_reconstruct_rejects_bad_symbols(linear_pipeline):
    _, _, _, lib = linear_pipeline
    with pytest.raises(ValueError, match="out of range"):
        reconstruct_pseudo_orbit(lib, SymbolSequence(word=(99,), horizon=1.0))


def test_junction_discontinuity_bounded(linear_pipeline):
    model, cfg, partition, lib = linear_pipeline
    word = encode_orbit(model, partition, [0.93], 6, 1.0, cfg)
    assert word.complete
    bound = 2 * partition.cover.radii.max()
    for a, b in zip(word.word, word.word[1:]):
        jump = np.linalg.norm(lib.states[a - 1, -1] - lib.states[b - 1, 0])
        assert jump <= bound


def test_shadowing_report_zero_for_equilibrium(lorenz, cfg):
    cover = Cover(centers=np.array([[0.0, 0.0, 0.0]]), radii=np.array([0.5]))
    lib = build_segments(lorenz, cover, 0.5, 5, cfg)
    report = shadowing_report(lorenz, lib, Partition(cover=cover), [[0.0, 0.0, 0.0]], 3, cfg)
    assert report["complete_orbits"] == 1
    assert report["per_orbit"][0]["word_length"] == 3
    assert report["max_error"] == 0.0


def test_linear_pipeline_shadowing_within_epsilon(linear_pipeline):
    model, cfg, partition, lib = linear_pipeline
    rng = np.random.default_rng(8)
    x0s = rng.uniform(-1, 1, size=(50, 1))
    report = shadowing_report(model, lib, partition, x0s, 8, cfg)
    assert report["complete_orbits"] == 50
    assert report["max_error"] <= lib.epsilon + 1e-6


def test_shadowing_report_counts_unencodable_points(linear_pipeline):
    model, cfg, partition, lib = linear_pipeline
    x0s = np.array([[0.5], [7.0]])
    report = shadowing_report(model, lib, partition, x0s, 3, cfg)
    assert report["orbits"] == 2
    assert report["per_orbit"][1]["error"] is None
    assert report["per_orbit"][1]["word_length"] == 0


GOLDEN = np.array([[0, 1], [1, 1]], dtype=bool)


def test_enumerate_identity_single_word():
    res = enumerate_admissible(from_counts(np.eye(3)), 2, 4)
    assert res.words.tolist() == [[2, 2, 2, 2]]
    assert res.reachable == {2}
    assert not res.overflowed


def test_enumerate_full_shift_counts():
    res = enumerate_admissible(from_counts(np.ones((2, 2))), 1, 3)
    assert len(res.words) == 4
    assert res.reachable == {1, 2}


@pytest.mark.parametrize("length,count", [(2, 2), (3, 3), (4, 5), (5, 8), (6, 13)])
def test_enumerate_golden_mean_fibonacci(length, count):
    res = enumerate_admissible(from_counts(GOLDEN), 2, length)
    assert len(res.words) == count
    assert set(map(tuple, res.words.tolist())) == brute_force_words(GOLDEN, 2, length)


def test_enumerate_dead_end_pruning():
    # symbol 2 has no successors: no length-3 words exist from 1, and the
    # reachable set must come out empty rather than {1, 2}
    gamma = np.array([[0, 1], [0, 0]], dtype=bool)
    res = enumerate_admissible(from_counts(gamma), 1, 3)
    assert res.words.shape == (0, 3)
    assert res.reachable == set()
    assert brute_force_words(gamma, 1, 3) == set()
    res2 = enumerate_admissible(from_counts(gamma), 1, 2)
    assert res2.words.tolist() == [[1, 2]]
    assert res2.reachable == {1, 2}


def test_enumerate_overflow_flag_keeps_reachable_exact():
    res = enumerate_admissible(from_counts(np.ones((4, 4))), 1, 8, cap=10)
    assert res.overflowed
    assert len(res.words) == 10
    assert res.reachable == {1, 2, 3, 4}


def test_enumerate_bad_start_errors():
    with pytest.raises(ValueError, match="out of range"):
        enumerate_admissible(from_counts(GOLDEN), 5, 3)
    with pytest.raises(ValueError, match="cap must be at least 0"):
        enumerate_admissible(from_counts(GOLDEN), 1, 3, cap=-1)


def test_enumerate_tensor_mode_sliding_window():
    # order-3 tensor richer than its Markov shadow: (1,2,1) admissible but
    # (2,1,2) not, so words must respect three-symbol windows
    tuples = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    tensor = TransitionTensor(order=3, tuples=tuples, n_cells=2)
    res = enumerate_admissible(tensor, 1, 4)
    words = set(map(tuple, res.words.tolist()))
    assert (1, 2, 1, 1) in words
    assert all(w[i:i + 3] in tuples for w in words for i in range(len(w) - 2))
    assert res.reachable == reachable_symbols(tensor, 1, 4)


def test_reachable_fixpoint_is_transitive_closure():
    gamma = from_counts([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    assert reachable_symbols(gamma, 1, None) == {1, 2, 3}
    assert reachable_symbols(gamma, 3, None) == {3}


@pytest.mark.parametrize("system", [
    from_counts(np.ones((2, 2))),
    TransitionTensor(order=3, tuples=sorted(
        (a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)), n_cells=2),
], ids=["gamma", "order-3 tensor"])
def test_enumerate_words_deeper_than_the_recursion_limit(system):
    res = enumerate_admissible(system, 1, 1200, cap=10)
    assert len(res.words) == 10
    assert res.overflowed
    assert res.reachable == {1, 2}
    # the first ten words in lexicographic order vary only their last four symbols
    words = res.words.tolist()
    assert all(w[:-4] == [1] * 1196 for w in words)
    assert [w[-4:] for w in words] == [[int(c) + 1 for c in f"{i:04b}"] for i in range(10)]


def _closure_by_bfs(tuples, order: int, n0: int) -> set:
    """Symbols forward-reachable from n0, by BFS over the last k-1 symbols."""
    def successors(state):
        if len(state) < order - 1:
            return {t[len(state)] for t in tuples if t[:len(state)] == state}
        return {t[-1] for t in tuples if t[:-1] == state}
    seen, todo, symbols = {(n0,)}, [(n0,)], {n0}
    while todo:
        state = todo.pop()
        for s in successors(state):
            symbols.add(s)
            nxt = (state + (s,))[-(order - 1):]
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return symbols


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.sampled_from([None, 2, 3, 4]), st.integers(1, 7),
       st.integers(0, 40), st.integers(0, 2**32 - 1))
@example(3, None, 1, 0, 7)
@example(3, 3, 1, 5, 7)
@example(4, None, 2, 1, 8)
@example(4, 3, 2, 2, 8)
def test_state_graph_matches_brute_force(n, order, length, cap, seed):
    # order None is a transition matrix; the others are tensors of that order.
    # Besides the drawn cap, every system is enumerated at caps 0 and 1 and
    # on both sides of its exact word count
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(1, n + 1))
    density = rng.random()
    if order is None:
        gamma = rng.random((n, n)) < density
        tuples = {(int(a) + 1, int(b) + 1) for a, b in np.argwhere(gamma)}
        system = from_counts(gamma)
        brute = brute_force_words(gamma, n0, length)
    else:
        tuples = {t for t in itertools.product(range(1, n + 1), repeat=order)
                  if rng.random() < density}
        system = TransitionTensor(order=order, tuples=sorted(tuples), n_cells=n)
        brute = brute_force_tensor_words(tuples, order, n, n0, length)
    count = len(brute)
    for c in sorted({cap, 0, 1, count, count + 1, max(count - 1, 0)}):
        res = enumerate_admissible(system, n0, length, cap=c)
        words = res.words.tolist()
        assert res.words.dtype == np.int64 and res.words.shape == (len(words), length)
        assert list(map(tuple, words)) == sorted(brute)[:c]
        assert all(type(s) is int for w in words for s in w)
        assert res.overflowed == (count > c)
        assert res.reachable == {s for w in brute for s in w}
    assert reachable_symbols(system, n0, length) == res.reachable
    assert reachable_symbols(system, n0, None) == _closure_by_bfs(tuples, order or 2, n0)


@pytest.mark.parametrize("n", [256, 300])
def test_completion_sums_are_wider_than_the_counts(n):
    # at cap 255 the counts are stored as uint16, since they saturate at
    # 256; each of n states has n successors of count 256, so a length-3
    # word count sums n * 256 = 65,536 or 76,800 completions, past uint16
    graph = _all_ones_graph(n)
    counts = graph.completions(3, 255)
    assert counts.dtype == np.uint16
    assert counts.tolist() == [[1] * n, [256] * n, [256] * n]
    res = enumerate_admissible(from_counts(np.ones((n, n))), 1, 3, cap=255)
    assert res.overflowed and res.reachable == set(range(1, n + 1))
    assert res.words.tolist() == [[1, 1, k] for k in range(1, 256)]


def test_symbol_sequence_normalises_numpy_ints():
    seq = SymbolSequence(word=np.array([3, 1, 2]))
    assert seq.word == (3, 1, 2)
    assert all(type(s) is int for s in seq.word)
    found = [SymbolSequence(word=w) for w in
             enumerate_admissible(from_counts(np.ones((3, 3))), 3, 3).words]
    assert seq in found
    assert hash(seq) == hash(found[found.index(seq)])
    assert all(type(s) is int for w in found for s in w.word)


def test_cylinder_measure_examples():
    tm = from_counts([[1, 3], [1, 1]])
    assert cylinder_measure(tm, SymbolSequence(word=(2,))) == 1.0
    assert cylinder_measure(tm, SymbolSequence(word=(1, 2))) == 0.75
    uniform = from_counts(np.ones((4, 4)))
    for j in (2, 3, 5):
        prefix = SymbolSequence(word=tuple([1] * j))
        assert abs(cylinder_measure(uniform, prefix) - 4.0 ** (-(j - 1))) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_cylinder_measure_additive_over_extensions(n, seed):
    rng = np.random.default_rng(seed)
    tm = from_counts(rng.integers(1, 2 ** 20, size=(n, n)))
    prefix_word = tuple(rng.integers(1, n + 1, size=3).tolist())
    prefix = SymbolSequence(word=prefix_word)
    total = sum(cylinder_measure(tm, SymbolSequence(word=prefix_word + (s,)))
                for s in range(1, n + 1))
    assert abs(total - cylinder_measure(tm, prefix)) <= 1e-12


def test_ks_entropy_single_cell():
    res = ks_entropy(from_counts([[1]]))
    assert res.unweighted == 0.0
    assert res.stationary_weighted == 0.0


def test_ks_entropy_permutation_is_zero():
    res = ks_entropy(from_counts([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert res.unweighted == 0.0
    assert res.stationary_weighted == 0.0


def test_ks_entropy_uniform_both_conventions():
    n = 5
    res = ks_entropy(from_counts(np.ones((n, n))))
    assert abs(res.unweighted - n * np.log(n)) <= 1e-12
    assert abs(res.stationary_weighted - np.log(n)) <= 1e-12
    assert np.allclose(res.stationary, 1.0 / n)


def test_ks_entropy_row_blocks_match_one_table():
    # 300 cells with up to 14 entries a row; empty rows and exact zeros
    # included. Each row entropy adds its row's entries in column order
    rng = np.random.default_rng(5)
    n = 300
    counts = rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.03)
    counts[::7] = 0
    rows = ref_row_entropies(counts / np.maximum(counts.sum(axis=1), 1)[:, None])
    res = ks_entropy(from_counts(counts))
    assert res.unweighted == float(rows.sum())
    assert res.stationary_weighted == float((res.stationary * rows).sum())


def _commutes(model, partition, x0s, length, horizon, cfg) -> bool:
    """Whether the encoding of each F^T(x0) is the left shift of the
    encoding of x0, both complete: the property criterion 9 checks."""
    x0s = np.asarray(x0s, dtype=float)
    base = encode_many(model, partition, x0s, length, horizon, cfg)
    shifted = encode_many(model, partition, advance_many(model, x0s, horizon, cfg),
                          length - 1, horizon, cfg)
    return all(a is not None and b is not None and a.complete and b.complete
               and b.word == a.word[1:] for a, b in zip(base, shifted))


def test_commutation_frozen_flow(zero_field_1d, cfg):
    assert _commutes(zero_field_1d, _frozen_partition(), [[2.1]], 5, 1.0, cfg)


def test_commutation_linear_pipeline(linear_pipeline):
    model, cfg, partition, lib = linear_pipeline
    rng = np.random.default_rng(21)
    assert _commutes(model, partition, rng.uniform(-1, 1, size=(10, 1)), 6, 1.0, cfg)


def test_commutation_needs_encodable_start(zero_field_1d, cfg):
    assert not _commutes(zero_field_1d, _frozen_partition(), [[9.0]], 3, 1.0, cfg)
    with pytest.raises(EncodingError):
        encode_orbit(zero_field_1d, _frozen_partition(), [9.0], 3, 1.0, cfg)
