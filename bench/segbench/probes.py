"""Which segdyn functions the traced run wraps, and the per-layer metrics.

Layers are segdyn's modules. Counters are computed from arguments and
return values only, never from program internals.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .tracer import Probe, Tracer


def _substeps(duration: float, max_step: float) -> int:
    # mirrors the integrator's rule: equal substeps no longer than max_step
    return max(1, math.ceil(duration / max_step - 1e-9))


def _flow_batch(tr: Tracer, rows: int, steps: int) -> None:
    tr.count("flow.point_steps", rows * steps)
    tr.count("flow.rows", rows)
    tr.count("flow.batches", 1)


def _count_advance_many(tr, a, result):
    steps = _substeps(a["t"], a["cfg"].step) if a["t"] > 0 else 0
    _flow_batch(tr, np.shape(a["states"])[0], steps)


def _count_sample_path(tr, a, result):
    intervals = a["n_samples"] - 1
    steps = intervals * _substeps(a["horizon"] / intervals, a["cfg"].step)
    _flow_batch(tr, np.shape(a["states"])[0], steps)


def _count_assign_many(tr, a, result):
    tr.count("cover.assignments", result.shape[0])
    tr.count("cover.assign_hits", int(np.count_nonzero(result)))


def _count_sample_itineraries(tr, a, result):
    itins = result[1]
    tr.count("transitions.samples", itins.shape[0])
    if itins.shape[1] > 1:
        tr.count("transitions.escapes", int(np.count_nonzero(itins[:, 1] == 0)))


def _count_encode_many(tr, a, result):
    tr.count("symbolic.encoded", len(result))
    tr.count("symbolic.complete", sum(1 for w in result if w is not None and w.complete))


def _count_enumerate(tr, a, result):
    tr.count("symbolic.words", len(result.words))


def _count_write_json(tr, a, result):
    tr.count("artifacts.bytes_written", os.path.getsize(a["path"]))


def _count_read_json(tr, a, result):
    tr.count("artifacts.bytes_read", os.path.getsize(a["path"]))


PROBES = (
    Probe("flow", "advance_many", _count_advance_many),
    Probe("flow", "sample_path", _count_sample_path),
    Probe("flow", "jacobian_norms"),
    Probe("cover", "Partition.assign_many", _count_assign_many),
    Probe("cover", "calibrate_deltas"),
    Probe("cover", "minimal_cover"),
    Probe("cover", "cell_measure"),
    Probe("segments", "build_segments"),
    Probe("segments", "max_difference"),
    Probe("segments", "save_library"),
    Probe("segments", "load_library"),
    Probe("transitions", "sample_itineraries", _count_sample_itineraries),
    Probe("transitions", "expanding_to_depth"),
    Probe("transitions", "ball_admissibility"),
    Probe("transitions", "transitions_to_json"),
    Probe("transitions", "transitions_from_json"),
    Probe("transitions", "tensor_from_json"),
    Probe("symbolic", "encode_many", _count_encode_many),
    Probe("symbolic", "shadowing_report"),
    Probe("symbolic", "enumerate_admissible", _count_enumerate),
    Probe("symbolic", "reachable_symbols"),
    Probe("symbolic", "ks_entropy"),
    Probe("quantities", "segment_envelope"),
    Probe("quantities", "reachable_bounds"),
    Probe("artifacts", "write_json", _count_write_json),
    Probe("artifacts", "read_json", _count_read_json),
    Probe("artifacts", "record_stage"),
    Probe("artifacts", "check_artifacts"),
    Probe("config", "load_config"),
)

LAYERS = ("flow", "cover", "segments", "transitions", "symbolic", "quantities",
          "artifacts", "config")

# prefix of the span the benchmark opens around each stage invocation
# (segdyn.cli.main); the rest of the name is the stage
CLI_PREFIX = "cli."


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-function timings, layer self times, counters and throughputs."""
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for probe in PROBES:
        row = totals.get(probe.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{probe.name}.calls"] = (row["calls"], "count")
        out[f"{probe.name}.s"] = (row["s"], "s")
        out[f"{probe.name}.self_s"] = (row["self_s"], "s")
        layer_self[probe.module] += row["self_s"]
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["cli.self_s"] = (sum(row["self_s"] for name, row in totals.items()
                             if name.startswith(CLI_PREFIX)), "s")

    c = tracer.counters.get
    out["flow.point_steps"] = (c("flow.point_steps", 0), "count")
    out["flow.point_steps_per_s"] = (_ratio(c("flow.point_steps", 0), layer_self["flow"]), "1/s")
    out["flow.rows_per_call"] = (_ratio(c("flow.rows", 0), c("flow.batches", 0)), "count")
    assign_s = out["cover.Partition.assign_many.self_s"][0]
    out["cover.assignments"] = (c("cover.assignments", 0), "count")
    out["cover.assignments_per_s"] = (_ratio(c("cover.assignments", 0), assign_s), "1/s")
    out["cover.assign_hit_frac"] = (_ratio(c("cover.assign_hits", 0),
                                           c("cover.assignments", 0)), "ratio")
    out["transitions.samples"] = (c("transitions.samples", 0), "count")
    out["transitions.escape_frac"] = (_ratio(c("transitions.escapes", 0),
                                             c("transitions.samples", 0)), "ratio")
    enum_s = out["symbolic.enumerate_admissible.self_s"][0]
    out["symbolic.words"] = (c("symbolic.words", 0), "count")
    out["symbolic.words_per_s"] = (_ratio(c("symbolic.words", 0), enum_s), "1/s")
    out["symbolic.complete_frac"] = (_ratio(c("symbolic.complete", 0),
                                            c("symbolic.encoded", 0)), "ratio")
    write_s = out["artifacts.write_json.self_s"][0]
    out["artifacts.bytes_written"] = (c("artifacts.bytes_written", 0), "B")
    out["artifacts.bytes_read"] = (c("artifacts.bytes_read", 0), "B")
    out["artifacts.write_mb_per_s"] = (_ratio(c("artifacts.bytes_written", 0) / 1e6, write_s),
                                       "MB/s")
    return out
