"""Layered word enumeration against the depth-first search it replaces.

``ref_words`` is the state graph's word walk as it was before words were
expanded a layer at a time: an iterative DFS with an explicit stack of edge
iterators that enters only states with enough depth left and stops at the
cap. The layered table must hold its words, in its order, with its overflow
flag. ``ref_depths`` and ``ref_completions`` are the depths and saturated
path counts that the walk is cut by, computed one state at a time.
"""
import itertools
from unittest import mock

import numpy as np
import pytest

from conftest import from_counts, traced_peak
from segdyn import enumerate_admissible, symbolic
from segdyn.symbolic import _StateGraph
from segdyn.transitions import TransitionMatrix, TransitionTensor


def ref_completions(graph, length, cap):
    """Per r and state, the number of r-step paths, as exact Python ints,
    and that number capped at cap + 1."""
    indptr, dst = graph.indptr.tolist(), graph.dst.tolist()
    exact = [[1] * graph.n_states]
    for _ in range(1, length):
        exact.append([sum(exact[-1][d] for d in dst[indptr[v]:indptr[v + 1]])
                      for v in range(graph.n_states)])
    return exact, [[min(c, cap + 1) for c in row] for row in exact]


def ref_depths(graph, length):
    """Per state, the most steps (up to length - 1) that some path takes."""
    indptr, dst = graph.indptr.tolist(), graph.dst.tolist()
    depth, alive = [0] * graph.n_states, [True] * graph.n_states
    for _ in range(1, length):
        alive = [any(alive[d] for d in dst[indptr[v]:indptr[v + 1]])
                 for v in range(graph.n_states)]
        depth = [d + a for d, a in zip(depth, alive)]
    return depth


def ref_words(graph, length, cap):
    # an edge's label is the last symbol of the state it enters
    indptr, dst = graph.indptr.tolist(), graph.dst.tolist()
    label = graph.last[graph.dst].tolist()
    depth, found, word = ref_depths(graph, length), [], []
    stack = [iter([(graph.start, int(graph.last[graph.start]))])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if word:
                word.pop()
            continue
        v, s = step
        if depth[v] < length - 1 - len(word):
            continue
        if len(word) == length - 1:
            if len(found) >= cap:
                return found, True
            found.append((*word, s))
            continue
        word.append(s)
        stack.append(zip(dst[indptr[v]:indptr[v + 1]], label[indptr[v]:indptr[v + 1]]))
    return found, False


def _sparse_gamma():
    # 300 cells, about 1.4 successors each: 6,433 words of length 20 from cell 1
    rng = np.random.default_rng(3)
    return from_counts(rng.random((300, 300)) < 1.4 / 300)


def _order3_tensor():
    rng = np.random.default_rng(4)
    tuples = [t for t in itertools.product(range(1, 31), repeat=3) if rng.random() < 1.5 / 30]
    return TransitionTensor(order=3, tuples=tuples, n_cells=30)


def _check_against_ref(system, n0, length, cap):
    graph = _StateGraph(system, n0)
    counts = graph.completions(length, cap)
    assert counts.tolist() == ref_completions(graph, length, cap)[1]
    table, overflowed = graph.words(counts, cap)
    expected, ref_overflowed = ref_words(graph, length, cap)
    assert table.dtype == np.int64 and table.shape == (len(expected), length)
    rows = table.tolist()
    assert all(type(s) is int for row in rows for s in row)
    assert rows == [list(w) for w in expected]
    assert overflowed == ref_overflowed
    res = enumerate_admissible(system, n0, length, cap=cap)
    assert np.array_equal(res.words, table) and res.overflowed == overflowed


@pytest.mark.parametrize("edge_block", [None, 7], ids=["one block", "blocks of 7 edges"])
@pytest.mark.parametrize("system,n0", [(_sparse_gamma(), 1), (_order3_tensor(), 2)],
                         ids=["gamma 300 cells", "order-3 tensor"])
def test_layered_words_match_the_dfs_around_the_true_count(system, n0, edge_block):
    graph = _StateGraph(system, n0)
    count = len(ref_words(graph, 20, 10 ** 9)[0])
    assert count > 1000
    with mock.patch.object(symbolic, "_PAIR_CHUNK", edge_block or symbolic._PAIR_CHUNK):
        for cap in (count - 1, count, count + 1, 1):
            _check_against_ref(system, n0, 20, cap)


def test_layered_words_from_a_dead_start():
    # every path from cell 1 of this Gamma dies out before 20 symbols
    gamma = from_counts(np.random.default_rng(1).random((300, 300)) < 1.4 / 300)
    _check_against_ref(gamma, 1, 20, 100)
    res = enumerate_admissible(gamma, 1, 20)
    assert res.words.shape == (0, 20) and not res.overflowed and res.reachable == set()


def _all_ones_graph(n):
    """The state graph of the all-ones n x n Gamma, built directly: states
    are the symbols, and every state has an edge to every symbol."""
    graph = object.__new__(_StateGraph)
    graph.n_states, graph.start = n, 0
    graph.last = np.arange(1, n + 1)
    graph.indptr = np.arange(0, n * n + 1, n)
    graph.dst = np.tile(np.arange(n), n)
    return graph


def test_all_ones_graph_is_the_state_graph_of_the_all_ones_gamma():
    built, direct = _StateGraph(from_counts(np.ones((5, 5))), 1), _all_ones_graph(5)
    for name in ("n_states", "start", "last", "indptr", "dst"):
        assert np.array_equal(getattr(built, name), getattr(direct, name)), name


def test_dense_gamma_builds_its_state_graph_within_a_small_memory_bound():
    # the graph of an all-ones 3000 x 3000 Gamma is Gamma's CSR pattern,
    # shared: its 9 million column indices (72 MB as int64) are not copied,
    # where numbering key rows and sorting every edge once took 1.33 GB
    n = 3000
    direct = _all_ones_graph(n)
    gamma = TransitionMatrix(direct.indptr, direct.dst, np.ones(n * n, dtype=np.int64),
                             np.zeros(n, dtype=np.int64))
    graph, peak = traced_peak(lambda: _StateGraph(gamma, 1))
    assert peak < 2 ** 20
    assert graph.indptr is gamma.indptr and graph.dst is gamma.indices
    for name in ("n_states", "start", "last", "indptr", "dst"):
        assert np.array_equal(getattr(graph, name), getattr(direct, name)), name


def test_dense_graph_words_stay_within_a_small_memory_bound():
    # expanding every edge of a 1,001-prefix frontier would build tables of
    # 1001 x 3000 entries per layer, about 100 MB. The count pass reads the
    # 9 million edges a block of _PAIR_CHUNK at a time, and the walk keeps
    # one prefix per layer until the last: the peak is about 1.1 MiB
    n, length, cap = 3000, 6, 1000
    graph = _all_ones_graph(n)
    (table, overflowed), peak = traced_peak(
        lambda: graph.words(graph.completions(length, cap), cap))
    assert peak < 4 * 2 ** 20
    assert overflowed
    assert table.tolist() == [[1, 1, 1, 1, 1, k] for k in range(1, cap + 1)]


def test_capped_words_keep_narrow_layers():
    # 300 cells, about 3 successors each: from the tenth symbol on, a
    # length-20 enumeration has more prefixes than the cap's 25,000 words
    # pass through. Kept as int64 parents and labels they set a 9.6 MiB
    # peak beside the 3.8 MiB table; each layer holding only the prefixes
    # the words pass through, in narrow types, the peak is 4.7 MiB
    gamma = from_counts(np.random.default_rng(5).random((300, 300)) < 3.0 / 300)
    graph = _StateGraph(gamma, 1)
    (table, overflowed), peak = traced_peak(
        lambda: graph.words(graph.completions(20, 25_000), 25_000))
    assert peak < 5.5 * 2 ** 20
    assert overflowed and table.dtype == np.int64 and table.shape == (25_000, 20)
    expected, _ = ref_words(graph, 20, 25_000)
    assert table.tolist() == [list(w) for w in expected]
