"""Scalar observables on segments and reachable-set bounds along orbits.

Per-cell envelopes (min and max of an observable over each segment) combine
with the reachable symbol set to bound the observable along any admissibly
encoded orbit over [0, mT].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissibleWordError
from .segments import SegmentLibrary
from .symbolic import reachable_symbols

Array = np.ndarray

__all__ = [
    "QuantitySpec",
    "QuantityEnvelope",
    "ReachableBounds",
    "segment_envelope",
    "reachable_bounds",
    "quantity_from_json",
    "quantity_to_json",
]

_KINDS = ("energy", "norm", "coordinate", "weighted_quadratic")


@dataclass(frozen=True, eq=False)
class QuantitySpec:
    """An observable to track: energy (half squared norm), norm, a single
    coordinate, or a symmetric quadratic form."""

    kind: str
    index: int | None = None
    weight: Array | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "coordinate":
            if self.index is None or self.index < 0:
                raise ValueError("coordinate quantity needs a nonnegative index")
        if self.kind == "weighted_quadratic":
            if self.weight is None:
                raise ValueError("weighted_quadratic quantity needs a weight matrix")
            w = np.asarray(self.weight, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError(f"weight must be square, got shape {w.shape}")
            if not np.allclose(w, w.T, atol=1e-12):
                raise ValueError("weight matrix must be symmetric")
            object.__setattr__(self, "weight", w)

    def evaluate(self, states: Array) -> Array:
        """Observable values for an array of shape (..., d)."""
        x = np.asarray(states, dtype=float)
        if self.kind == "energy":
            return 0.5 * (x ** 2).sum(axis=-1)
        if self.kind == "norm":
            return np.linalg.norm(x, axis=-1)
        if self.kind == "coordinate":
            return x[..., self.index]
        return np.einsum("...i,ij,...j->...", x, self.weight, x)

    def lipschitz_slack(self, radius_bound: float, eps: float) -> float:
        """Bound on how much the observable can move across an eps-ball,
        given that all states stay within ``radius_bound`` of the origin."""
        r = float(radius_bound)
        if self.kind == "energy":
            return eps * (r + 0.5 * eps)
        if self.kind in ("norm", "coordinate"):
            return eps
        wnorm = float(np.linalg.norm(self.weight, 2))
        return wnorm * eps * (2.0 * r + eps)

    def label(self) -> str:
        if self.kind == "coordinate":
            return f"coordinate_{self.index}"
        return self.kind


@dataclass(eq=False)
class QuantityEnvelope:
    """Per-cell max and min of an observable over the segment sample grid."""

    sup_per_cell: Array
    inf_per_cell: Array

    def __post_init__(self):
        hi = np.asarray(self.sup_per_cell, dtype=float)
        lo = np.asarray(self.inf_per_cell, dtype=float)
        if hi.shape != lo.shape or hi.ndim != 1:
            raise ValueError("envelope arrays must be 1-d and same length")
        if np.any(lo > hi):
            raise ValueError("inf_per_cell must not exceed sup_per_cell")
        self.sup_per_cell = hi
        self.inf_per_cell = lo


@dataclass(frozen=True, eq=False)
class ReachableBounds:
    lo: float
    hi: float
    reachable: frozenset


def segment_envelope(lib: SegmentLibrary, q: QuantitySpec) -> QuantityEnvelope:
    """Evaluate the observable on every segment sample and reduce per cell."""
    values = q.evaluate(lib.states)
    return QuantityEnvelope(sup_per_cell=values.max(axis=1),
                            inf_per_cell=values.min(axis=1))


def reachable_bounds(env: QuantityEnvelope, gamma, n0: int,
                     length: int | None) -> ReachableBounds:
    """Envelope bounds over every cell reachable within ``length`` symbols.

    The lower bound takes the min of the per-cell infima (so the bracket
    contains the orbit values); length=None propagates to the fixpoint.
    """
    reach = reachable_symbols(gamma, n0, length)
    if not reach:
        raise NoAdmissibleWordError(f"no admissible word of length {length} starts at {n0}")
    idx = np.asarray(sorted(reach), dtype=np.int64) - 1
    return ReachableBounds(
        lo=float(env.inf_per_cell[idx].min()),
        hi=float(env.sup_per_cell[idx].max()),
        reachable=frozenset(reach),
    )


def quantity_from_json(doc: dict) -> QuantitySpec:
    kind = doc.get("kind")
    return QuantitySpec(
        kind=kind,
        index=doc.get("index"),
        weight=np.asarray(doc["weight"], dtype=float) if "weight" in doc else None,
    )


def quantity_to_json(q: QuantitySpec) -> dict:
    doc: dict = {"kind": q.kind}
    if q.index is not None:
        doc["index"] = q.index
    if q.weight is not None:
        doc["weight"] = q.weight.tolist()
    return doc
