"""Orbit encoding, pseudo-orbits, shadowing checks, and word enumeration.

An orbit is encoded by the cells its time-jT states fall in; concatenating
the corresponding segments gives a pseudo-orbit that should stay within the
calibrated tolerance of the true orbit. Admissible words, cylinder
measures, and the entropy of the landing probabilities live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cover import _PAIR_CHUNK, Partition, _blocks, _expand
from .errors import EncodingError
from .flow import FlowModel, IntegratorConfig, walk_open_rows
from .segments import SegmentLibrary
from .transitions import (
    TransitionMatrix, TransitionTensor, _entry_rows, _rank_rows, cell_itineraries,
)

Array = np.ndarray

__all__ = [
    "SymbolSequence",
    "PseudoOrbit",
    "EnumerationResult",
    "KSEntropyResult",
    "encode_orbit",
    "encode_many",
    "reconstruct_pseudo_orbit",
    "shadowing_report",
    "enumerate_admissible",
    "reachable_symbols",
    "cylinder_measure",
    "ks_entropy",
]


@dataclass(frozen=True)
class SymbolSequence:
    """A finite word of cell ids. ``complete`` is False when the orbit left
    the partition before the requested number of symbols."""

    word: tuple
    horizon: float | None = None
    complete: bool = True

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(int(s) for s in self.word))

    def __len__(self) -> int:
        return len(self.word)


@dataclass(eq=False)
class PseudoOrbit:
    """Concatenated segments on the global grid t in [0, mT].

    Windows abut: the junction time appears twice, once with the outgoing
    segment's final state and once with the incoming segment's start.
    """

    word: SymbolSequence
    times: Array
    states: Array


def _truncate(cells: Array, horizon: float) -> SymbolSequence:
    word = cells.tolist()
    if 0 in word:
        cut = word.index(0)
        return SymbolSequence(word=tuple(word[:cut]), horizon=horizon, complete=False)
    return SymbolSequence(word=tuple(word), horizon=horizon, complete=True)


def encode_orbit(model: FlowModel, partition: Partition, x0, length: int,
                 horizon: float, cfg: IntegratorConfig) -> SymbolSequence:
    """Word of cells visited at times jT, j = 0..length-1.

    The word truncates (complete=False) at the first window whose state is
    in no cell. A start point outside every cell cannot be encoded at all.
    """
    x0 = np.asarray(x0, dtype=float)
    word = encode_many(model, partition, x0[None, :], length, horizon, cfg)[0]
    if word is None:
        raise EncodingError(f"initial point {x0.tolist()} lies outside every cell")
    return word


def encode_many(model: FlowModel, partition: Partition, x0s: Array, length: int,
                horizon: float, cfg: IntegratorConfig) -> list[SymbolSequence | None]:
    """Batched encoding; entries are None for points outside every cell.
    The cells are those of :func:`~segdyn.transitions.cell_itineraries`,
    which walks the points _BLOCK_ROWS rows at a time."""
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    cells, _ = cell_itineraries(model, partition, x0s, length - 1, horizon, cfg)
    return [None if row[0] == 0 else _truncate(row, horizon) for row in cells]


def reconstruct_pseudo_orbit(lib: SegmentLibrary, word: SymbolSequence) -> PseudoOrbit:
    """Concatenate the stored segments named by the word on the global grid."""
    if len(word) < 1:
        raise ValueError("word must be nonempty")
    for s in word.word:
        if not 1 <= s <= lib.n_segments:
            raise ValueError(f"word symbol {s} out of range 1..{lib.n_segments}")
    idx = np.asarray(word.word, dtype=np.int64) - 1
    states = lib.states[idx].reshape(-1, lib.dimension)
    offsets = np.arange(len(word))[:, None] * lib.horizon
    times = (offsets + lib.times[None, :]).ravel()
    return PseudoOrbit(word=word, times=times, states=states)


def shadowing_report(model: FlowModel, lib: SegmentLibrary, partition: Partition,
                     x0s: Array, length: int, cfg: IntegratorConfig) -> dict:
    """Encode a batch of points and verify their pseudo-orbits in one walk.

    Each start is integrated once on the segment grid, horizon / (K - 1) at
    a time (:func:`~segdyn.flow.walk_open_rows`). At the start of each
    window the partition names the state's cell, the segment it follows,
    or 0, which ends its word there. At every grid point the state is
    compared with its segment's sample; at a junction, with the last sample
    of the outgoing segment and the first of the incoming one. An orbit
    leaves the walk when its word ends, so incomplete encodings are
    verified over their truncated prefix. Points outside every cell are
    reported but carry no error value. The words are those of
    :func:`encode_many` whenever the walk's substep, horizon / (K - 1) /
    n_sub, has the same bits as encode's horizon / n.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    x0s = np.asarray(x0s, dtype=float).reshape(-1, lib.dimension)
    segments, last = lib.states, lib.n_times - 1
    cells = np.zeros((x0s.shape[0], length), dtype=np.int64)
    errors = np.zeros(x0s.shape[0])

    def compare(rows, y, seg, k):
        dist = np.linalg.norm(segments[seg - 1, k] - y, axis=1)
        errors[rows] = np.maximum(errors[rows], dist)

    def visit(g, rows, y):
        j, k = divmod(g, last)
        if k:
            compare(rows, y, cells[rows, j], k)
            return None
        if j:
            compare(rows, y, cells[rows, j - 1], last)
        if j == length:
            return None
        found = partition.assign_many(y)
        cells[rows, j] = found
        inside = found > 0
        compare(rows[inside], y[inside], found[inside], 0)
        return ~inside

    walk_open_rows(model, x0s, lib.horizon / last, length * last, cfg, visit)
    per_orbit = []
    for x0, row, err in zip(x0s.tolist(), cells, errors.tolist()):
        if row[0] == 0:
            per_orbit.append({"x0": x0, "word_length": 0, "complete": False, "error": None})
            continue
        word = _truncate(row, lib.horizon)
        per_orbit.append({"x0": x0, "word_length": len(word), "complete": word.complete,
                          "error": err})
    measured = [r["error"] for r in per_orbit if r["error"] is not None]
    n_complete = sum(1 for r in per_orbit if r["complete"])
    return {
        "epsilon": None if math.isnan(lib.epsilon) else lib.epsilon,
        "max_error": max(measured) if measured else None,
        "requested_length": length,
        "orbits": len(per_orbit),
        "complete_orbits": n_complete,
        "per_orbit": per_orbit,
    }


@dataclass(eq=False)
class EnumerationResult:
    """Words found by enumeration plus the exactly-computed reachable set.

    words is an (n, length) int64 table, one word per row in lexicographic
    order. overflowed is True when the word list was cut off at the cap; the
    reachable set is computed by layer propagation and is exact either way.
    """

    words: Array
    reachable: set
    overflowed: bool


class _StateGraph:
    """An order-k shift (Gamma is order 2) as a labelled graph, its standard
    presentation, walked from symbol n0. States are the symbols, the proper
    prefixes of admissible k-tuples and the (k-1)-windows; CSR edges
    (indptr, dst), sorted by label, append one symbol: prefix p -> p + (s,),
    window t[:-1] -> t[1:]. An edge's label is the last symbol of the state
    it enters. So words shorter than k-1 are prefixes of admissible tuples.
    Under Gamma the states are the symbols and Gamma's CSR pattern is the
    graph, shared rather than copied.
    """

    def __init__(self, gamma_or_tensor: TransitionMatrix | TransitionTensor, n0: int):
        n_cells = gamma_or_tensor.n_cells
        if not 1 <= n0 <= n_cells:
            raise ValueError(f"start symbol {n0} out of range 1..{n_cells}")
        if isinstance(gamma_or_tensor, TransitionTensor):
            self._from_tuples(gamma_or_tensor, n0)
        else:
            self.indptr, self.dst = gamma_or_tensor.indptr, gamma_or_tensor.indices
            self.n_states, self.start = n_cells, n0 - 1
            self.last = np.arange(1, n_cells + 1)

    def _from_tuples(self, tensor: TransitionTensor, n0: int) -> None:
        order, tuples, n_cells = tensor.order, tensor.tuples, tensor.n_cells
        # keys padded to k-1 with zeros; symbols are >= 1, so lengths stay apart
        parts = ([np.arange(1, n_cells + 1)[:, None]]
                 + [tuples[:, :l] for l in range(1, order)] + [tuples[:, 1:]])
        keys = np.concatenate([np.pad(p, ((0, 0), (0, order - 1 - p.shape[1])))
                               for p in parts])
        # state ids number the distinct keys in lexicographic order
        ids, uniq = _rank_rows(keys)
        self.n_states = uniq.shape[0]
        self.last = uniq[np.arange(self.n_states), np.count_nonzero(uniq, axis=1) - 1]
        self.start = int(ids[n0 - 1])
        # per tuple, the states of t[:1], ..., t[:k-1] and t[1:]: each links to the next
        chain = np.split(ids[n_cells:], order)
        src, dst = np.concatenate(chain[:-1]), np.concatenate(chain[1:])
        label = tuples[:, 1:].T.ravel()
        # one edge per (state, label), sorted by state and then by label
        _, keep = np.unique(src * (label.max(initial=0) + 1) + label, return_index=True)
        self.dst = dst[keep]
        self.indptr = np.searchsorted(src[keep], np.arange(self.n_states + 1))

    def _forward(self, states: Array) -> Array:
        """The states that an edge from ``states`` enters."""
        out = np.zeros(self.n_states, dtype=bool)
        out[self.dst[np.repeat(states, np.diff(self.indptr))]] = True
        return out

    def completions(self, length: int, cap: int) -> Array:
        """C, a (length, n_states) table: C[r][s] is the number of r-step
        paths from state s, saturated at cap + 1, so C[0] is all ones.

        One backward pass: C[r][s] sums C[r-1] over the edges of s, in
        int64 and in blocks of about _PAIR_CHUNK edges, before the cap is
        applied. The table is kept in the narrowest unsigned type that holds
        cap + 1. A state has an r-step path iff C[r][s] > 0."""
        counts = np.ones((length, self.n_states), dtype=np.min_scalar_type(cap + 1))
        indptr = self.indptr
        blocks = list(_blocks(np.diff(indptr), _PAIR_CHUNK))
        for r in range(1, length):
            below = counts[r - 1]
            for rows in blocks:
                ends = indptr[rows.start:rows.stop + 1]
                running = np.zeros(ends[-1] - ends[0] + 1, dtype=np.int64)
                np.cumsum(below[self.dst[ends[0]:ends[-1]]], dtype=np.int64, out=running[1:])
                counts[r, rows] = np.minimum(np.diff(running[ends - ends[0]]), cap + 1)
        return counts

    def reachable(self, counts: Array) -> set:
        """Last symbols of the states at step j of some path of len(counts)
        symbols from the start: forward layer j, cut to the states with
        len(counts) - 1 - j steps left (:meth:`completions`)."""
        length = counts.shape[0]
        hit = np.zeros(self.n_states, dtype=bool)
        layer = np.arange(self.n_states) == self.start
        for j in range(length):
            layer &= counts[length - 1 - j] > 0
            hit |= layer
            layer = self._forward(layer)
        return set(self.last[hit].tolist())

    def closure(self) -> set:
        seen = np.arange(self.n_states) == self.start
        while True:
            grown = seen | self._forward(seen)
            if np.array_equal(grown, seen):
                return set(self.last[seen].tolist())
            seen = grown

    def _kept_edges(self, states: Array, alive: Array) -> Array:
        """The edges from states into alive states, state by state in label
        order, read in blocks of about _PAIR_CHUNK edges."""
        start = self.indptr[states]
        deg = self.indptr[states + 1] - start
        found = []
        for rows in _blocks(deg, _PAIR_CHUNK):
            edges = _expand(start[rows], deg[rows])
            found.append(edges[alive[self.dst[edges]]])
        return np.concatenate(found)

    def words(self, counts: Array, cap: int) -> tuple[Array, bool]:
        """The first ``cap`` words of len(counts) symbols in lexicographic
        order, as an (n, length) int64 table, and whether more exist;
        ``counts`` is :meth:`completions` of the same length and cap.

        There are C[L-1][start] words, so the table holds need = min(cap,
        C[L-1][start]) of them. Layer j extends the prefixes of layer j - 1
        along their edges into states with C[L-1-j] > 0, so every prefix
        completes, and keeps the shortest leading run of them whose C[L-1-j]
        add up to need: the first need words pass through no other prefix.
        Each kept prefix heads a run of consecutive words, as many as its
        completions (the last one what is left of need), so column j of the
        table is layer j's last symbols repeated that often. The columns are
        filled one at a time, so the table is laid out in Fortran order."""
        length = counts.shape[0]
        total = int(counts[-1, self.start])
        need = min(total, cap)
        if need == 0:
            return np.empty((0, length), dtype=np.int64), total > cap
        table = np.empty((length, need), dtype=np.int64)
        table[0] = self.last[self.start]
        frontier = np.array([self.start])
        for j in range(1, length):
            left = counts[length - 1 - j]
            mark = np.zeros(self.n_states, dtype=bool)
            mark[frontier] = True
            used = np.flatnonzero(mark)
            edges = self._kept_edges(used, left > 0)
            # the kept edges of state s are edges[first[s]:first[s + 1]]
            first = np.zeros(self.n_states + 1, dtype=np.int64)
            first[used] = np.searchsorted(edges, self.indptr[used])
            first[used + 1] = np.searchsorted(edges, self.indptr[used + 1])
            count = first[frontier + 1] - first[frontier]
            child = self.dst[edges[_expand(first[frontier], count)]]
            run = np.cumsum(left[child], dtype=np.int64)
            m = int(np.searchsorted(run, need)) + 1
            frontier, run[m - 1] = child[:m], need
            table[j] = np.repeat(self.last[frontier], np.diff(run[:m], prepend=0))
        return table.T, total > cap


def enumerate_admissible(gamma_or_tensor: TransitionMatrix | TransitionTensor, n0: int,
                         length: int, cap: int = 100_000) -> EnumerationResult:
    """All admissible words of the given length starting at n0.

    Under a transition matrix, consecutive pairs must be admissible; under an
    order-k tensor every sliding length-k window must be an admissible tuple
    (shorter words must be prefixes of admissible tuples). The words come
    as one int64 table, a row per word in lexicographic order. Enumeration
    stops collecting past ``cap`` words and sets the overflow flag; the
    reachable symbol set is still exact.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    graph = _StateGraph(gamma_or_tensor, n0)
    counts = graph.completions(length, cap)
    words, overflowed = graph.words(counts, cap)
    return EnumerationResult(words=words, reachable=graph.reachable(counts),
                             overflowed=overflowed)


def reachable_symbols(gamma_or_tensor: TransitionMatrix | TransitionTensor, n0: int,
                      length: int | None) -> set:
    """Symbols appearing in some admissible word of the given length from n0.

    Layer propagation with dead-end pruning: a symbol only counts if the
    word it sits in really extends to the full length. ``length=None`` is
    the fixpoint surrogate and returns every symbol forward-reachable from
    n0 in any number of steps.
    """
    graph = _StateGraph(gamma_or_tensor, n0)
    if length is None:
        return graph.closure()
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    return graph.reachable(graph.completions(length, 0))


def cylinder_measure(tm: TransitionMatrix, prefix: SymbolSequence) -> float:
    """Markov measure of the cylinder fixed by the prefix: the product of
    consecutive landing probabilities. A length-1 prefix has measure 1."""
    if len(prefix) < 1:
        raise ValueError("prefix must be nonempty")
    p = tm.p
    out = 1.0
    for a, b in zip(prefix.word, prefix.word[1:]):
        lo, hi = tm.indptr[a - 1], tm.indptr[a]
        k = lo + int(np.searchsorted(tm.indices[lo:hi], b - 1))
        out *= float(p[k]) if k < hi and tm.indices[k] == b - 1 else 0.0
    return out


@dataclass(frozen=True)
class KSEntropyResult:
    """Entropy of the landing probabilities, in two conventions.

    ``unweighted`` sums -p log p over all entries; ``stationary_weighted``
    weights each row by the stationary distribution, the standard entropy
    rate of the Markov chain.
    """

    unweighted: float
    stationary_weighted: float
    stationary: Array


def _stationary_distribution(tm: TransitionMatrix, iterations: int = 2000) -> Array:
    """Stationary row vector of the landing probabilities p by power
    iteration with running (Cesaro) averaging, which also settles periodic
    chains such as permutations. Each step x @ p adds the stored entries of
    a column in row order."""
    n = tm.n_cells
    rows, cols, values = _entry_rows(tm.indptr), tm.indices, tm.p
    bincount, total_of = np.bincount, np.add.reduce
    x = np.full(n, 1.0 / n)
    acc = np.zeros(n)
    for step in range(iterations):
        last = x
        x = bincount(cols, x[rows] * values, n)
        total = total_of(x)
        if total <= 0:
            break
        x /= total
        acc += x
        # a step that leaves x as it was, bit for bit, leaves it so for
        # good: the steps left would only add it to the running sum
        if step % 32 == 31 and np.array_equal(x, last):
            for _ in range(iterations - 1 - step):
                acc += x
            break
    if acc.sum() == 0:
        return np.full(n, 1.0 / n)
    return acc / acc.sum()


def ks_entropy(tm: TransitionMatrix) -> KSEntropyResult:
    """Both entropy readings of the landing probabilities p, from their
    stored entries; each row entropy sums its row's entries in stored
    order."""
    n, p = tm.n_cells, tm.p
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    row_entropy = -np.bincount(_entry_rows(tm.indptr), plogp, n)
    pi = _stationary_distribution(tm)
    return KSEntropyResult(
        unweighted=float(row_entropy.sum()),
        stationary_weighted=float((pi * row_entropy).sum()),
        stationary=pi,
    )
