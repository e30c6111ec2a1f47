"""Deterministic random streams derived from (seed, stream tag, task indices).

Every randomized operation in the package draws from a stream keyed by the
user seed plus a fixed tag and the task's own indices, so results do not
depend on evaluation order.
"""
from __future__ import annotations

import numpy as np

# Stream tags. Each randomized subsystem owns one; task indices follow the tag.
STREAM_CALIBRATION = 1
STREAM_TRANSITIONS = 2
STREAM_ENCODE = 3
STREAM_SHADOW = 4
STREAM_MEASURE = 5


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under the given seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)
