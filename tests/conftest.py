from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from segdyn import IntegratorConfig, LinearDiagonal, Lorenz, QuadraticGeneric
from segdyn.artifacts import file_digest
from segdyn.transitions import TransitionMatrix, TransitionTensor

# one line per acceptance criterion, printed after the run
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig(step=1e-3)


@pytest.fixture(scope="session")
def linear1():
    return LinearDiagonal(rates=[1.0])


@pytest.fixture(scope="session")
def lorenz():
    return Lorenz()


@pytest.fixture(scope="session")
def expanding1d():
    return QuadraticGeneric(linear=[[1.0]], quadratic=np.zeros((1, 1, 1)), forcing=[0.0])


@pytest.fixture(scope="session")
def zero_field_1d():
    return QuadraticGeneric(linear=[[0.0]], quadratic=np.zeros((1, 1, 1)), forcing=[0.0])


@pytest.fixture(scope="session")
def rotation2d():
    return QuadraticGeneric(linear=[[0.0, -1.0], [1.0, 0.0]],
                            quadratic=np.zeros((2, 2, 2)), forcing=[0.0, 0.0])


def output_digests(out) -> dict:
    """SHA-256 of every file under an output directory but manifest.json,
    which holds wall times, by its path relative to the directory."""
    return {p.relative_to(out).as_posix(): file_digest(p)
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran, in
    bytes; everything fn allocates counts, its result included."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def literal_memberships(points, centers, radii) -> np.ndarray:
    """inside[i, n]: points[i] lies in closed ball n, by the broadcast squared
    distance. From d = 8 on numpy sums its last axis pairwise."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1) <= radii ** 2


def brute_force_cells(points, centers, radii, rows=512) -> np.ndarray:
    """Cell of each point by the definition: the largest 1-based index of a
    ball containing it, 0 for none, every ball tested, ``rows`` points at a
    time."""
    ids = np.arange(1, centers.shape[0] + 1)
    out = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], rows):
        inside = literal_memberships(points[start:start + rows], centers, radii)
        out[start:start + rows] = np.where(inside, ids, 0).max(axis=1, initial=0)
    return out


def csr(table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, column indices and values of the nonzero entries of a square
    table, row by row."""
    table = np.asarray(table)
    rows, cols = np.nonzero(table)
    return np.searchsorted(rows, np.arange(table.shape[0] + 1)), cols, table[rows, cols]


def dense(tm: TransitionMatrix, values=None) -> np.ndarray:
    """The n x n table holding ``values`` (by default tm's counts; tm.p for
    the landing probabilities) at tm's stored entries, and 0 elsewhere."""
    values = tm.counts if values is None else values
    out = np.zeros((tm.n_cells, tm.n_cells), dtype=values.dtype)
    out[np.repeat(np.arange(tm.n_cells), np.diff(tm.indptr)), tm.indices] = values
    return out


def from_counts(counts, escapes=None) -> TransitionMatrix:
    """The TransitionMatrix storing the nonzero entries of a dense count
    table; escapes default to zeros."""
    counts = np.asarray(counts, dtype=np.int64)
    escapes = np.zeros(counts.shape[0], dtype=np.int64) if escapes is None else escapes
    return TransitionMatrix(*csr(counts), escapes)


def make_markov_tensors(gamma: np.ndarray, depth: int) -> list[TransitionTensor]:
    """Tensors of orders 2..depth holding exactly the Gamma-admissible paths."""
    gamma = np.asarray(gamma, dtype=bool)
    n = gamma.shape[0]
    pairs = {(i + 1, j + 1) for i, j in zip(*np.nonzero(gamma))}
    tensors = [TransitionTensor(order=2, tuples=sorted(pairs), n_cells=n)]
    current = pairs
    for order in range(3, depth + 1):
        current = {t + (c,) for t in current for (b, c) in pairs if b == t[-1]}
        tensors.append(TransitionTensor(order=order, tuples=sorted(current), n_cells=n))
    return tensors


def brute_force_words(gamma: np.ndarray, n0: int, length: int) -> set:
    """Filter all N^(m-1) continuations by the pairwise admissibility rule."""
    gamma = np.asarray(gamma, dtype=bool)
    n = gamma.shape[0]
    if length == 1:
        return {(n0,)}
    words = set()
    for tail in itertools.product(range(1, n + 1), repeat=length - 1):
        word = (n0,) + tail
        if all(gamma[a - 1, b - 1] for a, b in zip(word, word[1:])):
            words.add(word)
    return words


def brute_force_tensor_words(tuples, order: int, n_cells: int, n0: int, length: int) -> set:
    """Words by the direct order-k definition: a single symbol is a word, as
    under Gamma; a word shorter than k is a prefix of an admissible tuple;
    a longer one, found among all N^(m-1) continuations, has every length-k
    window admissible."""
    tuples = {tuple(t) for t in tuples}
    if length == 1:
        return {(n0,)}
    if length < order:
        return {t[:length] for t in tuples if t[0] == n0}
    words = set()
    for tail in itertools.product(range(1, n_cells + 1), repeat=length - 1):
        word = (n0,) + tail
        if all(word[i:i + order] in tuples for i in range(length - order + 1)):
            words.add(word)
    return words
