"""Orbit encoding, pseudo-orbits, shadowing checks, and word enumeration.

An orbit is encoded by the cells its time-jT states fall in; concatenating
the corresponding segments gives a pseudo-orbit that should stay within the
calibrated tolerance of the true orbit. Admissible words, cylinder
measures, and the entropy of the landing probabilities live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cover import _PAIR_CHUNK, Partition, _blocks, _expand
from .errors import EncodingError
from .flow import FlowModel, IntegratorConfig, advance_many, walk_open_rows
from .segments import SegmentLibrary
from .transitions import (
    TransitionMatrix, TransitionTensor, _entry_rows, _gamma_pattern, _rank_rows, cell_itineraries,
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
    "shadowing_error",
    "shadowing_report",
    "enumerate_admissible",
    "reachable_symbols",
    "cylinder_measure",
    "ks_entropy",
    "commutation_check",
    "sensitivity_witness",
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


def _shadow_walk(model: FlowModel, x0s: Array, segments: Array, horizon: float,
                 length: int, cfg: IntegratorConfig, assign) -> tuple[Array, Array]:
    """Words of up to ``length`` windows and their shadowing errors, from one
    integration per start on the segment grid: segments has shape (S, K, d),
    and the walk steps horizon / (K - 1) at a time
    (:func:`~segdyn.flow.walk_open_rows`).

    At the start of window j, assign(j, y) names each state's segment,
    1..S, or 0 to end its word there. At every grid point the state is
    compared with its segment's sample; at a junction, with the last sample
    of the outgoing segment and the first of the incoming one. An orbit
    leaves the walk when its word ends. Returns the segment ids, 0 from a
    word's end on, and each orbit's largest distance.
    """
    last = segments.shape[1] - 1
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
        found = assign(j, y)
        cells[rows, j] = found
        inside = found > 0
        compare(rows[inside], y[inside], found[inside], 0)
        return ~inside

    interval = horizon / last
    walk_open_rows(model, x0s, interval, length * last, cfg, visit)
    return cells, errors


def shadowing_error(model: FlowModel, x0, pseudo: PseudoOrbit,
                    cfg: IntegratorConfig) -> float:
    """Max distance between the true orbit of x0 and the pseudo-orbit on the
    global sample grid. The true orbit is integrated once, continuously; at
    window junctions both retained pseudo-orbit values are compared."""
    x0 = np.asarray(x0, dtype=float)
    length = len(pseudo.word)
    windows = pseudo.states.reshape(length, -1, pseudo.states.shape[1])
    # window j of the pseudo-orbit is the walk's segment j + 1
    _, errors = _shadow_walk(model, x0[None, :], windows,
                             float(pseudo.times[windows.shape[1] - 1]), length, cfg,
                             lambda j, y: np.array([j + 1]))
    return float(errors[0])


def shadowing_report(model: FlowModel, lib: SegmentLibrary, partition: Partition,
                     x0s: Array, length: int, cfg: IntegratorConfig) -> dict:
    """Encode a batch of points and verify their pseudo-orbits in one walk.

    Incomplete encodings are verified over their truncated prefix. Points
    outside every cell are reported but carry no error value. The words are
    those of :func:`encode_many` whenever the walk's substep, horizon / (K -
    1) / n_sub, has the same bits as encode's horizon / n.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    x0s = np.asarray(x0s, dtype=float).reshape(-1, lib.dimension)
    cells, errs = _shadow_walk(model, x0s, lib.states, lib.horizon, length, cfg,
                               lambda j, y: partition.assign_many(y))
    per_orbit = []
    for x0, row, err in zip(x0s.tolist(), cells, errs.tolist()):
        if row[0] == 0:
            per_orbit.append({"x0": x0, "word_length": 0, "complete": False, "error": None})
            continue
        word = _truncate(row, lib.horizon)
        per_orbit.append({"x0": x0, "word_length": len(word), "complete": word.complete,
                          "error": err})
    errors = [r["error"] for r in per_orbit if r["error"] is not None]
    n_complete = sum(1 for r in per_orbit if r["complete"])
    return {
        "epsilon": None if math.isnan(lib.epsilon) else lib.epsilon,
        "max_error": max(errors) if errors else None,
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

    def __init__(self, gamma_or_tensor, n0: int):
        tensor = isinstance(gamma_or_tensor, TransitionTensor)
        if tensor:
            n_cells = gamma_or_tensor.n_cells
        else:
            self.indptr, self.dst = _gamma_pattern(gamma_or_tensor)
            n_cells = self.indptr.shape[0] - 1
        if not 1 <= n0 <= n_cells:
            raise ValueError(f"start symbol {n0} out of range 1..{n_cells}")
        if tensor:
            self._from_tuples(gamma_or_tensor, n0)
        else:
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

    def depths(self, length: int) -> Array:
        """Per state, the most steps (up to length-1) that some path takes
        from it. Backward frontiers shrink, so depth >= r marks the r-th."""
        depth = np.zeros(self.n_states, dtype=np.int64)
        alive = np.ones(self.n_states, dtype=bool)
        for _ in range(1, length):
            alive = self._kept_counts(alive) > 0
            depth += alive
        return depth

    def reachable(self, length: int, depth: Array) -> set:
        """Last symbols of the union over j of forward layer j and the
        backward frontier L-1-j, the states at step j of a length-L path."""
        hit = np.zeros(self.n_states, dtype=bool)
        layer = np.arange(self.n_states) == self.start
        for j in range(length):
            layer &= depth >= length - 1 - j
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

    def _kept_counts(self, alive: Array) -> Array:
        """Per state, how many of its edges end in an alive state."""
        starts = self.indptr[:-1]
        has = self.indptr[1:] > starts
        counts = np.zeros(self.n_states, dtype=np.int64)
        # summed in the narrowest type that holds every out-degree, as
        # reduceat first casts the whole edge mask to it
        narrow = np.min_scalar_type(int(np.max(self.indptr[1:] - starts, initial=0)))
        counts[has] = np.add.reduceat(alive[self.dst], starts[has], dtype=narrow)
        return counts

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

    def words(self, length: int, depth: Array, cap: int) -> tuple[Array, bool]:
        """The first ``cap`` words of the given length in lexicographic order,
        as an (n, length) int64 table, and whether more exist.

        Layer j extends the prefixes of layer j - 1 along the edges into
        states with depth >= length - 1 - j, so every prefix completes; a
        layer keeps its first cap + 1 prefixes, cut from each state's count
        of such edges before they are expanded. A prefix is its parent's
        index in the previous layer and its last symbol, each layer kept in
        the narrowest unsigned type that holds it. The table is read back
        along the parents one column at a time, so it is laid out in Fortran
        order."""
        if depth[self.start] < length - 1:
            return np.empty((0, length), dtype=np.int64), False
        frontier = np.array([self.start])
        parents, labels = [], []
        label_type = np.min_scalar_type(int(self.last.max()))
        for j in range(1, length):
            alive = depth >= length - 1 - j
            kept = self._kept_counts(alive)
            count = kept[frontier]
            before = np.cumsum(count) - count
            # the first m prefixes hold the first cap + 1 children
            m = int(np.searchsorted(before, cap + 1))
            mark = np.zeros(self.n_states, dtype=bool)
            mark[frontier[:m]] = True
            used = np.flatnonzero(mark)
            edges = self._kept_edges(used, alive)
            offset = np.zeros(self.n_states, dtype=np.int64)
            offset[used] = np.cumsum(kept[used]) - kept[used]
            # the kept edges of each state of the first m prefixes start at
            # its offset in edges; child i is edge i - before of its parent's
            parent = np.repeat(np.arange(m), count[:m])[:cap + 1]
            shift = offset[frontier[:m]] - before[:m]
            edge = edges[np.arange(parent.size) + shift[parent]]
            frontier = self.dst[edge]
            parents.append(parent.astype(np.min_scalar_type(m - 1)))
            labels.append(self.last[frontier].astype(label_type))
        rows = min(frontier.size, cap)
        table = np.empty((length, rows), dtype=np.int64)
        table[0] = self.last[self.start]
        at = np.arange(rows)
        for j in range(length - 1, 0, -1):
            table[j] = labels[j - 1][at]
            at = parents[j - 1][at]
        return table.T, frontier.size > cap


def enumerate_admissible(gamma_or_tensor, n0: int, length: int,
                         cap: int = 100_000) -> EnumerationResult:
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
    depth = graph.depths(length)
    words, overflowed = graph.words(length, depth, cap)
    return EnumerationResult(words=words, reachable=graph.reachable(length, depth),
                             overflowed=overflowed)


def reachable_symbols(gamma_or_tensor, n0: int, length: int | None) -> set:
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
    return graph.reachable(length, graph.depths(length))


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


def _dense_row_sums(rows: Array, cols: Array, values: Array, lo: int, n: int,
                    n_rows: int) -> Array:
    """Per row, the sum over columns lo .. lo+n-1 that numpy's pairwise
    summation gives for an (n_rows, N) table holding ``values`` at (rows,
    cols), in row-major order, and 0.0 elsewhere. No value may be -0.0:
    then adding 0.0 changes no partial sum, so each stored value is added
    where the dense sum adds it and the zeros are skipped.

    Below 8 columns the sum runs left to right from 0.0; up to 128 it keeps
    8 running sums of the columns in each residue mod 8, below the last
    multiple of 8, combines them pairwise and adds the rest left to right;
    above that it splits at half the columns, rounded down to a multiple of
    8. A bincount adds its weights in order, so it runs each left-to-right
    sum."""
    if n < 8:
        return np.bincount(rows, values, n_rows)
    if n <= 128:
        head = cols < lo + n - n % 8
        r = np.bincount(rows[head] * 8 + (cols[head] - lo) % 8, values[head],
                        8 * n_rows).reshape(n_rows, 8).T
        first = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return np.bincount(np.concatenate([np.arange(n_rows), rows[~head]]),
                           np.concatenate([first, values[~head]]), n_rows)
    half = n // 2 - n // 2 % 8
    left = cols < lo + half
    return (_dense_row_sums(rows[left], cols[left], values[left], lo, half, n_rows)
            + _dense_row_sums(rows[~left], cols[~left], values[~left], lo + half, n - half,
                              n_rows))


def ks_entropy(tm: TransitionMatrix) -> KSEntropyResult:
    """Both entropy readings of the landing probabilities p, from their
    stored entries; each row entropy has the bits of the sum over the
    row's dense table."""
    n, p = tm.n_cells, tm.p
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    row_entropy = -_dense_row_sums(_entry_rows(tm.indptr), tm.indices, plogp, 0, n, n)
    pi = _stationary_distribution(tm)
    return KSEntropyResult(
        unweighted=float(row_entropy.sum()),
        stationary_weighted=float((pi * row_entropy).sum()),
        stationary=pi,
    )


def commutation_check(model: FlowModel, partition: Partition, x0, length: int,
                      horizon: float, cfg: IntegratorConfig) -> bool:
    """Whether encoding commutes with the time-T map: the encoding of
    F^T(x0) must equal the left shift of the encoding of x0, both complete."""
    if length < 2:
        raise ValueError(f"length must be at least 2, got {length}")
    x0 = np.asarray(x0, dtype=float)
    base = encode_orbit(model, partition, x0, length, horizon, cfg)
    shifted_start = advance_many(model, x0[None, :], horizon, cfg)[0]
    if partition.assign_many(shifted_start[None, :])[0] == 0:
        raise EncodingError(
            f"time-T image {shifted_start.tolist()} lies outside every cell")
    shifted = encode_orbit(model, partition, shifted_start, length - 1, horizon, cfg)
    return base.complete and shifted.complete and shifted.word == base.word[1:]


def sensitivity_witness(gamma, prefix: Sequence[int]) -> tuple[SymbolSequence, SymbolSequence]:
    """Two admissible continuations of the prefix that differ at the next
    position, the separation mechanism behind sensitive dependence. Needs
    the prefix's last symbol to have at least two admissible successors."""
    indptr, indices = _gamma_pattern(gamma)
    prefix = tuple(int(s) for s in prefix)
    if not prefix:
        raise ValueError("prefix must be nonempty")
    for a, b in zip(prefix, prefix[1:]):
        if b - 1 not in indices[indptr[a - 1]:indptr[a]]:
            raise ValueError(f"prefix pair ({a}, {b}) is not admissible")
    successors = indices[indptr[prefix[-1] - 1]:indptr[prefix[-1]]] + 1
    if successors.size < 2:
        raise ValueError(
            f"symbol {prefix[-1]} has {successors.size} admissible successor(s); "
            "need at least two to separate")
    w1 = SymbolSequence(word=prefix + (int(successors[0]),), horizon=None)
    w2 = SymbolSequence(word=prefix + (int(successors[1]),), horizon=None)
    return w1, w2
