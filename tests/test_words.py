"""Layered word enumeration against the depth-first search it replaces.

``ref_words`` is the state graph's word walk as it was before words were
expanded a layer at a time: an iterative DFS with an explicit stack of edge
iterators that enters only states with enough depth left and stops at the
cap. The layered table must hold its words, in its order, with its overflow
flag.
"""
import itertools
from unittest import mock

import numpy as np
import pytest

from conftest import from_counts, traced_peak
from segdyn import enumerate_admissible, symbolic
from segdyn.symbolic import _StateGraph
from segdyn.transitions import TransitionMatrix, TransitionTensor


def ref_words(graph, length, depth, cap):
    # an edge's label is the last symbol of the state it enters
    indptr, dst = graph.indptr.tolist(), graph.dst.tolist()
    label = graph.last[graph.dst].tolist()
    depth, found, word = depth.tolist(), [], []
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
    depth = graph.depths(length)
    table, overflowed = graph.words(length, depth, cap)
    expected, ref_overflowed = ref_words(graph, length, depth, cap)
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
    count = len(ref_words(graph, 20, graph.depths(20), 10 ** 9)[0])
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
    # 1001 x 3000 entries per layer, about 100 MB; the cut comes first, and
    # what remains is one mask over the 9 million edges and its cast to the
    # uint16 the per-state counts are summed in, about 26 MB
    n, length, cap = 3000, 6, 1000
    graph = _all_ones_graph(n)
    depth = np.full(n, length - 1)
    (table, overflowed), peak = traced_peak(lambda: graph.words(length, depth, cap))
    assert peak < 32 * 2 ** 20
    assert overflowed
    assert table.tolist() == [[1, 1, 1, 1, 1, k] for k in range(1, cap + 1)]


def test_capped_words_keep_narrow_layers():
    # 300 cells, about 3 successors each: from the ninth layer on, each
    # layer of a length-20 enumeration holds the cap's 25,001 prefixes.
    # Kept as int64 parents and labels they set a 9.6 MiB peak beside the
    # 3.8 MiB table; as uint16 the peak is 6.2 MiB
    gamma = from_counts(np.random.default_rng(5).random((300, 300)) < 3.0 / 300)
    graph = _StateGraph(gamma, 1)
    depth = graph.depths(20)
    (table, overflowed), peak = traced_peak(lambda: graph.words(20, depth, 25_000))
    assert peak < 7.5 * 2 ** 20
    assert overflowed and table.dtype == np.int64 and table.shape == (25_000, 20)
    expected, _ = ref_words(graph, 20, depth, 25_000)
    assert table.tolist() == [list(w) for w in expected]
