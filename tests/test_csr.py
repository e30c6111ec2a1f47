"""The CSR transition tables against the dense tables they replace.

``ref_tables``, ``ref_row_entropies``, ``ref_stationary`` and
``ref_transitions_to_json`` are the dense code that held Gamma, the counts
and p as n x n tables before they became CSR arrays: an (N+1)^2 tally of
(source, landing) pairs, the row entropies summed over each dense row, the
power iteration through ``x @ p`` and the JSON writer over dense tables,
here writing the one (row, col, value) triplet form.
Counts, p, the row entropies, the JSON bytes and cylinder measures must
match them bit for bit; the stationary vector, whose products now add only
the stored entries, must match to rounding, and match bit for bit the same
iteration over the stored entries that makes all of its steps.
"""
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, from_counts, traced_peak
from segdyn import symbolic
from segdyn.artifacts import read_json, write_json
from segdyn.symbolic import SymbolSequence, cylinder_measure, ks_entropy, reachable_symbols
from segdyn.transitions import (
    row_sensitivity,
    transitions_from_itineraries,
    transitions_from_json,
    transitions_to_json,
)


def ref_tables(itins, n_cells):
    """Dense counts, Gamma, p and escapes of the first hops."""
    full = np.zeros((n_cells + 1, n_cells + 1), dtype=np.int64)
    np.add.at(full, (itins[:, 0], itins[:, 1]), 1)
    counts = full[1:, 1:]
    p = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
    return counts, counts > 0, p, full[1:, 0]


def ref_row_entropies(p):
    n = p.shape[0]
    row_entropy = np.empty(n)
    step = max(1, (1 << 16) // max(n, 1))
    for lo in range(0, n, step):
        block = p[lo:lo + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(block > 0, block * np.log(np.where(block > 0, block, 1.0)), 0.0)
        row_entropy[lo:lo + step] = -plogp.sum(axis=1)
    return row_entropy


def ref_stationary(p, iterations=2000):
    n = p.shape[0]
    x = np.full(n, 1.0 / n)
    acc = np.zeros(n)
    for _ in range(iterations):
        x = x @ p
        total = x.sum()
        if total <= 0:
            break
        x = x / total
        acc += x
    if acc.sum() == 0:
        return np.full(n, 1.0 / n)
    return acc / acc.sum()


def ref_sparse_stationary(tm, iterations=2000):
    """ref_stationary with each column sum of x @ p taken over the stored
    entries in row order, every one of the 2000 steps made."""
    n, p = tm.n_cells, tm.p
    rows = np.repeat(np.arange(n), np.diff(tm.indptr))
    x = np.full(n, 1.0 / n)
    acc = np.zeros(n)
    for _ in range(iterations):
        x = np.bincount(tm.indices, x[rows] * p, n)
        total = x.sum()
        if total <= 0:
            break
        x = x / total
        acc += x
    if acc.sum() == 0:
        return np.full(n, 1.0 / n)
    return acc / acc.sum()


def ref_transitions_to_json(counts, p, escapes, rng_seed, samples_per_cell):
    n = counts.shape[0]
    landed = counts.sum(axis=1)
    total = landed + escapes
    frac = np.where(total > 0, escapes / np.maximum(total, 1), 0.0)
    doc = {
        "n_cells": n, "rng_seed": rng_seed, "samples_per_cell": samples_per_cell,
        "unsupported_rows": [int(m) + 1 for m in np.flatnonzero(landed == 0)],
        "escapes": escapes.tolist(),
        "escape_fractions": [round(v, 12) for v in frac.tolist()],
        "format": "sparse",
    }
    rows, cols = np.nonzero(counts)
    doc.update(counts=[[int(r) + 1, int(c) + 1, int(counts[r, c])] for r, c in zip(rows, cols)],
               p=[[int(r) + 1, int(c) + 1, float(p[r, c])] for r, c in zip(rows, cols)])
    return doc


def ref_reachable(gamma, n0, length):
    """Symbols on some length-L word from n0: step j of a j-step path from
    n0 that goes on for L-1-j more steps; None gives every symbol reachable
    from n0."""
    step = gamma.astype(float)
    n = gamma.shape[0]
    at = np.arange(n) == n0 - 1
    if length is None:
        seen = at
        while True:
            grown = seen | ((seen @ step) > 0)
            if np.array_equal(grown, seen):
                return set((np.flatnonzero(seen) + 1).tolist())
            seen = grown
    goes_on = [np.ones(n, dtype=bool)]
    for _ in range(1, length):
        goes_on.append((step @ goes_on[-1]) > 0)
    hit = np.zeros(n, dtype=bool)
    for j in range(length):
        hit |= at & goes_on[length - 1 - j]
        at = (at @ step) > 0
    return set((np.flatnonzero(hit) + 1).tolist())


@st.composite
def itineraries(draw):
    """First hops of a random sampling run: cells with no samples, cells
    whose samples all escape, and rows with up to about 40 landing cells
    spread over the whole row, at up to 700 cells (over the 128 columns of
    one pairwise-sum block)."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(100, 140), st.integers(513, 700)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    sampled = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.3, 0.9, 1.0]))) + 1
    per_cell = draw(st.integers(1, 60))
    src = np.repeat(sampled, per_cell)
    escape = rng.random(src.size) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    # each cell lands among a few of its own candidates, so pairs repeat
    width = draw(st.integers(1, 40))
    candidates = rng.integers(1, n + 1, size=(n + 1, width))
    dst = candidates[src, rng.integers(0, width, size=src.size)]
    escaped = rng.choice(sampled, size=min(3, sampled.size), replace=False)
    dst[np.isin(src, escaped) | escape] = 0
    return n, np.stack([src, dst], axis=1), rng


@settings(max_examples=60, deadline=None)
@given(itineraries())
def test_csr_tables_match_the_dense_reference(case):
    n, itins, rng = case
    tm, _ = transitions_from_itineraries(itins, n)
    counts, gamma, p, escapes = ref_tables(itins, n)
    assert np.array_equal(dense(tm), counts) and np.array_equal(tm.escapes, escapes)
    assert dense(tm, tm.p).tobytes() == p.tobytes()
    assert tm.unsupported_rows == set((np.flatnonzero(counts.sum(axis=1) == 0) + 1).tolist())

    # the triplet form, with the bytes of the writer over dense tables, read back
    doc = transitions_to_json(tm, rng_seed=7, samples_per_cell=3)
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        ref_transitions_to_json(counts, p, escapes, 7, 3), sort_keys=True)
    tm2 = transitions_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(tm.indptr, tm2.indptr) and np.array_equal(tm.indices, tm2.indices)
    assert np.array_equal(tm2.counts, tm.counts) and np.array_equal(tm2.escapes, escapes)
    assert tm2.p.tobytes() == tm.p.tobytes()

    res = ks_entropy(tm)
    rows = ref_row_entropies(p)
    assert res.unweighted == float(rows.sum())
    assert res.stationary.tobytes() == ref_sparse_stationary(tm).tobytes()
    pi = ref_stationary(p)
    assert np.allclose(res.stationary, pi, rtol=1e-9, atol=1e-13)
    assert abs(res.stationary_weighted - float((pi * rows).sum())) <= 1e-12

    degrees = gamma.sum(axis=1)
    assert row_sensitivity(tm) == row_sensitivity(gamma) == bool(
        np.all(degrees[degrees > 0] >= 2))
    for _ in range(5):
        word = tuple(rng.integers(1, n + 1, size=int(rng.integers(1, 5))).tolist())
        if rng.random() < 0.7:  # mostly along stored pairs, so most measures are positive
            word = word[:1]
            while len(word) < 4 and degrees[word[-1] - 1]:
                word += (int(rng.choice(np.flatnonzero(gamma[word[-1] - 1]))) + 1,)
        out = 1.0
        for a, b in zip(word, word[1:]):
            out *= float(p[a - 1, b - 1])
        assert cylinder_measure(tm, SymbolSequence(word=word)) == out
    n0 = int(rng.integers(1, n + 1))
    for length in (1, 2, 5, None):
        assert reachable_symbols(tm, n0, length) == ref_reachable(gamma, n0, length)
        assert reachable_symbols(gamma, n0, length) == ref_reachable(gamma, n0, length)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1200), st.integers(1, 30), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_row_sums_follow_the_dense_pairwise_sum(n, n_rows, density, seed):
    # values at any columns of rows as long as 1200: every branch of the
    # pairwise sum (under 8, up to 128, split) and every remainder mod 8
    rng = np.random.default_rng(seed)
    table = -rng.random((n_rows, n)) * (rng.random((n_rows, n)) < density)
    table[table == 0] = 0.0
    rows, cols = np.nonzero(table)
    got = symbolic._dense_row_sums(rows, cols, table[rows, cols], 0, n, n_rows)
    assert got.tobytes() == table.sum(axis=1).tobytes()


def test_stationary_vector_of_an_absorbing_chain_keeps_every_step():
    # the mass in cell 1 halves each step and underflows to 0 after about
    # 1075 steps; x then stays (0, 1), and the steps left only add it
    tm = from_counts([[1, 1], [0, 1]])
    assert tm.p.tolist() == [0.5, 0.5, 1.0]
    pi = ks_entropy(tm).stationary
    assert pi.tobytes() == ref_sparse_stationary(tm).tobytes()
    assert pi.tobytes() == ref_stationary(dense(tm, tm.p)).tobytes()


def test_transition_tables_stay_within_a_small_memory_bound(tmp_path):
    # 3000 cells, 2 samples each: the dense tables held two (N+1)^2 tables
    # of int64 and float, at least 144 MB; the CSR arrays, the sparse JSON
    # document of 6000 samples and its reading peak at 2.3 MiB
    n = 3000
    rng = np.random.default_rng(11)
    src = np.repeat(np.arange(1, n + 1), 2)
    dst = np.where(rng.random(src.size) < 0.2, 0, rng.integers(1, n + 1, size=src.size))
    itins = np.stack([src, dst], axis=1)

    def round_trip():
        tm, _ = transitions_from_itineraries(itins, n)
        write_json(tmp_path / "transitions.json", transitions_to_json(tm, 1, 2))
        return tm, transitions_from_json(read_json(tmp_path / "transitions.json"))

    (tm, tm2), peak = traced_peak(round_trip)
    assert peak < 4 * 2 ** 20
    assert np.array_equal(tm2.counts, tm.counts) and tm2.p.tobytes() == tm.p.tobytes()
    assert tm2.landed.sum() + tm2.escapes.sum() == src.size
