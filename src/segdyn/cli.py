"""Command-line pipeline: calibrate, segments, transitions, encode, shadow,
enumerate, entropy, bounds, report.

Each stage reads one JSON config, writes artifacts into the output
directory, and appends wall time, output digests and its report summary to
the manifest. Identical config and seed reproduce identical artifact bytes.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._rng import STREAM_ENCODE, STREAM_MEASURE, STREAM_SHADOW, derive_rng
from .artifacts import (
    BOUNDS_JSON, COVER_JSON, ENCLOSURE_JSON, ENTROPY_JSON, ENUMERATION_JSON, LIBRARY_DIR,
    MAX_DIFFERENCE_CSV, READERS, REPORT_JSON, SHADOW_REPORT_JSON, TENSORS_JSON,
    TRANSITIONS_JSON, WORDS_JSON, artifact_files, check_artifacts, load_manifest,
    record_stage, require, write_json,
)
from .config import PipelineConfig, load_config
from .cover import (
    Partition, calibrate_deltas, cell_measure, collocate, cover_to_json,
    metric_entropy, minimal_cover,
)
from .errors import (
    ArtifactError, ConfigError, ManifestError, MissingArtifactError, SegdynError,
)
from .flow import jacobian_norms
from .quantities import quantity_to_json, reachable_bounds, segment_envelope
from .segments import build_segments, max_difference, save_library, write_max_difference_csv
from .symbolic import encode_many, enumerate_admissible, ks_entropy, shadowing_report
from .transitions import (
    ENCLOSURE_SLACK, EXPANSION_M_MAX, _entry_rows, ball_successors, expanding_to_depth,
    row_sensitivity, sample_itineraries, tensor_to_json, transitions_from_itineraries,
    transitions_to_json,
)

try:
    import resource
except ImportError:  # not on every platform; the fault counter is then left out
    resource = None


def _minor_faults() -> int | None:
    """The process's minor page faults so far, or None without ``resource``."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None


def _load(cfg: PipelineConfig, outdir: Path, stage: str, name: str):
    """One input artifact of a stage. A missing file exits 3; a file that does
    not parse, or a cover whose dimension is not the model's, exits 1 with
    one line that names it."""
    reader = READERS[name]
    for rel in artifact_files(name):
        require(outdir, rel, stage)
    path = outdir / name
    try:
        value = reader.parse(path)
    except (ValueError, KeyError, TypeError) as err:
        raise ArtifactError(f"{path} is not a readable {reader.what}: {err!r}") from None
    if name == COVER_JSON and value.dimension != cfg.model.dimension:
        raise ArtifactError(
            f"{path} has dimension {value.dimension}, but the config's "
            f"model has dimension {cfg.model.dimension}")
    return value


def _check_cell_counts(outdir: Path, names, inputs) -> None:
    """Exit 1 with one line naming both files when two inputs of a stage
    disagree on the number of cells."""
    cells = {COVER_JSON: "n_balls", LIBRARY_DIR: "n_segments", TRANSITIONS_JSON: "n_cells"}
    counted = [(name, getattr(value, cells[name]))
               for name, value in zip(names, inputs) if name in cells]
    for (a, m), (b, n) in zip(counted, counted[1:]):
        if m != n:
            raise ArtifactError(f"{outdir / a} has {m} cells, but {outdir / b} has {n}")


def _draw_covered_points(cfg: PipelineConfig, partition: Partition, count: int,
                         stream: int) -> tuple[np.ndarray, dict]:
    """Uniform points of the domain box that lie in some cell, up to budget,
    and the counters "domain_draws" (points drawn) and "covered_starts"
    (points kept)."""
    rng = derive_rng(cfg.rng_seed, stream)
    found: list[np.ndarray] = []
    got = 0
    drawn = 0
    while got < count and drawn < cfg.encode_draw_budget:
        batch = min(8192, cfg.encode_draw_budget - drawn)
        drawn += batch
        pts = cfg.domain.sample(rng, batch)
        hit = pts[partition.assign_many(pts) > 0]
        if hit.shape[0]:
            found.append(hit[:count - got])
            got += min(hit.shape[0], count - got)
    counters = {"domain_draws": drawn, "covered_starts": got}
    if not found:
        return np.empty((0, cfg.domain.dimension)), counters
    return np.concatenate(found, axis=0), counters


def stage_calibrate(cfg: PipelineConfig, outdir: Path):
    centers = collocate(cfg.domain, cfg.resolution)
    counters: dict = {}
    deltas = calibrate_deltas(
        cfg.model, centers, cfg.horizon, cfg.epsilon, cfg.integrator,
        cfg.boundary_samples, delta_max=cfg.delta_max(),
        time_samples=cfg.calibration_time_samples, seed=cfg.rng_seed, counters=counters)
    cover = minimal_cover(centers, deltas, centers)
    write_json(outdir / COVER_JSON, cover_to_json(cover))
    print(f"calibrate: {len(centers)} centers -> {cover.n_balls} balls, "
          f"radius range [{cover.radii.min():.6g}, {cover.radii.max():.6g}] "
          f"({cfg.boundary_samples} boundary samples per center)")
    return {"n_centers": len(centers), "n_balls": cover.n_balls,
            "boundary_samples": cfg.boundary_samples, "counters": counters,
            "summary": {"cover": {"n_balls": cover.n_balls,
                                  "radius_min": float(cover.radii.min()),
                                  "radius_max": float(cover.radii.max())}}}


def stage_segments(cfg: PipelineConfig, outdir: Path, cover):
    lib = build_segments(cfg.model, cover, cfg.horizon, cfg.segment_samples,
                         cfg.integrator, epsilon=cfg.epsilon)
    save_library(lib, outdir / LIBRARY_DIR)
    md = max_difference(lib)
    write_max_difference_csv(outdir / MAX_DIFFERENCE_CSV, lib.times, md)
    print(f"segments: {lib.n_segments} segments x {lib.n_times} samples over "
          f"[0, {lib.horizon}]; M_d range [{md.min():.6g}, {md.max():.6g}]")
    return {"n_segments": lib.n_segments}


def stage_transitions(cfg: PipelineConfig, outdir: Path, cover, lib):
    partition = Partition(cover=cover)
    n = partition.n_cells
    counters: dict = {}
    _, itins = sample_itineraries(
        cfg.model, partition, cfg.horizon, cfg.tensor_order - 1,
        cfg.samples_per_cell, cfg.integrator, cfg.rng_seed, counters=counters)
    # one sampling pass serves every tensor order: each is a prefix of the
    # same itineraries, as if estimated from scratch with the same seed
    tm, tensors = transitions_from_itineraries(itins, n, range(2, cfg.tensor_order + 1))

    sensitive = row_sensitivity(tm)
    verdict = expanding_to_depth(tensors, m_max=EXPANSION_M_MAX)
    doc = transitions_to_json(tm, cfg.rng_seed, cfg.samples_per_cell)
    doc["verdicts"] = {
        "row_sensitivity": bool(sensitive),
        "expanding_up_to_depth": bool(verdict.expanding_up_to_depth),
        "expansion_depth": verdict.depth,
        "expansion_m_max": verdict.m_max,
        "witness_failures": [list(t) for t in verdict.witness_failures[:100]],
        "inconclusive_count": len(verdict.inconclusive),
    }
    enclosure = _enclosure(cfg, lib, partition)
    # Gamma's edges outside the enclosure; any means an image radius was under-estimated
    edges = [_entry_rows(indptr) * n + ids for indptr, ids in
             ((tm.indptr, tm.indices + 1), (enclosure["indptr"], enclosure["successors"]))]
    misses = int(np.count_nonzero(~np.isin(*edges)))
    write_json(outdir / TRANSITIONS_JSON, doc)
    write_json(outdir / ENCLOSURE_JSON, enclosure)
    write_json(outdir / TENSORS_JSON, {"tensors": [tensor_to_json(t) for t in tensors]})
    esc = tm.escape_fractions()
    print(f"transitions: {n} cells, {cfg.samples_per_cell} samples/cell, "
          f"mean escape fraction {esc.mean():.4f}")
    print(f"row sensitivity hypothesis (every supported row has >=2 successors): {sensitive}")
    print(f"expanding tensors to depth {verdict.depth} (m_max={verdict.m_max}): "
          f"{verdict.expanding_up_to_depth} "
          f"({len(verdict.witness_failures)} failures, "
          f"{len(verdict.inconclusive)} inconclusive)")
    return {"n_cells": n, "counters": counters,
            "summary": {"transitions": {"n_cells": n, "verdicts": doc["verdicts"],
                                        "enclosure_misses": misses}}}


def _enclosure(cfg: PipelineConfig, lib, partition: Partition) -> dict:
    """The image-ball enclosure's document: its ``slack``, each cell's image
    ``radius``, and the cells' possible successors as CSR arrays, cell m's
    (1-based, ascending) being ``successors[indptr[m-1]:indptr[m]]``."""
    cover = partition.cover
    rho = jacobian_norms(cfg.model, cover.centers, cfg.horizon, cfg.integrator)
    indptr, successors = ball_successors(lib, partition, rho)
    return {"slack": ENCLOSURE_SLACK,
            "radius": [round(float(r), 12) for r in ENCLOSURE_SLACK * rho * cover.radii],
            "indptr": indptr, "successors": successors}


def _requested_points(cfg: PipelineConfig) -> int:
    """How many starts encode and shadow ask for: the listed initial points,
    or else encode_points drawn from the covered part of the domain."""
    return cfg.encode_points if cfg.initial_points is None else len(cfg.initial_points)


def _initial_points(cfg: PipelineConfig, partition: Partition, stream: int):
    if cfg.initial_points is not None:
        return (np.asarray(cfg.initial_points, dtype=float),
                {"domain_draws": 0, "covered_starts": 0})
    return _draw_covered_points(cfg, partition, cfg.encode_points, stream)


def stage_encode(cfg: PipelineConfig, outdir: Path, cover):
    partition = Partition(cover=cover)
    x0s, counters = _initial_points(cfg, partition, STREAM_ENCODE)
    words = encode_many(cfg.model, partition, x0s, cfg.word_length, cfg.horizon,
                        cfg.integrator) if x0s.shape[0] else []
    entries = []
    for x0, w in zip(x0s, words):
        if w is None:
            entries.append({"x0": x0.tolist(), "word": [], "complete": False})
        else:
            entries.append({"x0": x0.tolist(), "word": list(w.word),
                            "complete": bool(w.complete)})
    n_complete = sum(1 for e in entries if e["complete"])
    write_json(outdir / WORDS_JSON, {
        "horizon": cfg.horizon, "length": cfg.word_length,
        "requested": _requested_points(cfg),
        "found_starts": len(entries), "complete": n_complete, "words": entries,
    })
    print(f"encode: {len(entries)} starts, {n_complete} complete length-{cfg.word_length} words")
    return {"complete_words": n_complete, "counters": counters,
            "summary": {"encode": {"found_starts": len(entries), "complete": n_complete,
                                   "length": cfg.word_length}}}


def stage_shadow(cfg: PipelineConfig, outdir: Path, cover, lib):
    partition = Partition(cover=cover)
    x0s, counters = _initial_points(cfg, partition, STREAM_SHADOW)
    report = shadowing_report(cfg.model, lib, partition, x0s, cfg.word_length,
                              cfg.integrator)
    report["requested_points"] = _requested_points(cfg)
    write_json(outdir / SHADOW_REPORT_JSON, report)
    print(f"shadow: {report['orbits']} orbits ({report['complete_orbits']} complete), "
          f"max error {report['max_error']} vs epsilon {report['epsilon']}")
    return {"max_error": report["max_error"], "complete_orbits": report["complete_orbits"],
            "counters": counters,
            "summary": {"shadow": {k: report[k] for k in
                                   ("epsilon", "max_error", "orbits", "complete_orbits")}}}


def _check_start_cell(field: str, cell: int, n_cells: int) -> None:
    # the config is validated before the cover exists, so the upper bound on
    # a start cell can only be checked once the stage knows n_cells
    if cell > n_cells:
        raise ConfigError([f"{field}: must be <= {n_cells} (the number of cells), got {cell}"])


def stage_enumerate(cfg: PipelineConfig, outdir: Path, table):
    # table is the tensor set in tensor mode, else the transition table
    system = table
    if cfg.enumerate_mode == "tensor":
        if cfg.tensor_order not in table:
            raise MissingArtifactError(
                f"stage 'enumerate' needs the order-{cfg.tensor_order} tensor in {TENSORS_JSON}")
        system = table[cfg.tensor_order]
    _check_start_cell("enumerate_from", cfg.enumerate_from, system.n_cells)
    res = enumerate_admissible(system, cfg.enumerate_from, cfg.word_length,
                               cap=cfg.enumeration_cap)
    reachable = sorted(res.reachable)
    write_json(outdir / ENUMERATION_JSON, {
        "from": cfg.enumerate_from, "length": cfg.word_length,
        "mode": cfg.enumerate_mode, "overflowed": res.overflowed,
        "word_count": len(res.words), "cap": cfg.enumeration_cap,
        "reachable": reachable,
        "words": res.words,
    })
    print(f"enumerate: {len(res.words)} words of length {cfg.word_length} from "
          f"{cfg.enumerate_from} (overflowed: {res.overflowed}); "
          f"{len(res.reachable)} reachable symbols")
    return {"word_count": len(res.words), "overflowed": res.overflowed,
            "summary": {"enumeration": {"word_count": len(res.words),
                                        "overflowed": res.overflowed, "reachable": reachable}}}


def stage_entropy(cfg: PipelineConfig, outdir: Path, cover, tm):
    partition = Partition(cover=cover)
    rng = derive_rng(cfg.rng_seed, STREAM_MEASURE)
    samples = cfg.domain.sample(rng, cfg.measure_samples)
    mu = cell_measure(partition, samples)
    h = metric_entropy(mu)
    ks = ks_entropy(tm)
    write_json(outdir / ENTROPY_JSON, {
        "metric_entropy": h,
        "ks_entropy_unweighted": ks.unweighted,
        "ks_entropy_stationary_weighted": ks.stationary_weighted,
        "measure_samples": cfg.measure_samples,
        "covered_samples": mu.covered,
        "cell_weights": [round(float(w), 12) for w in mu.weights],
    })
    print(f"entropy: partition H = {h:.6g} (over {mu.covered} covered samples)")
    print(f"entropy: landing-matrix H = {ks.unweighted:.6g} unweighted, "
          f"{ks.stationary_weighted:.6g} stationary-weighted")
    return {"metric_entropy": h,
            "summary": {"entropy": {"metric_entropy": h,
                                    "ks_entropy_unweighted": ks.unweighted,
                                    "ks_entropy_stationary_weighted": ks.stationary_weighted}}}


def stage_bounds(cfg: PipelineConfig, outdir: Path, lib, tm):
    _check_start_cell("bounds_from", cfg.bounds_from, tm.n_cells)
    blocks = []
    for q in cfg.quantities:
        env = segment_envelope(lib, q)
        rb = reachable_bounds(env, tm, cfg.bounds_from, cfg.word_length)
        blocks.append({
            "quantity": quantity_to_json(q), "label": q.label(),
            "q_lo": rb.lo, "q_hi": rb.hi,
            "reachable_count": len(rb.reachable),
            "inf_per_cell": [float(v) for v in env.inf_per_cell],
            "sup_per_cell": [float(v) for v in env.sup_per_cell],
        })
        print(f"bounds[{q.label()}]: along any admissible orbit of {cfg.word_length} "
              f"windows from cell {cfg.bounds_from}: [{rb.lo:.6g}, {rb.hi:.6g}] "
              f"({len(rb.reachable)} reachable cells)")
        print("  cell  q_inf        q_sup")
        for cell in range(1, min(lib.n_segments, 10) + 1):
            print(f"  {cell:4d}  {env.inf_per_cell[cell-1]:<11.6g}  {env.sup_per_cell[cell-1]:<11.6g}")
        if lib.n_segments > 10:
            print(f"  ... ({lib.n_segments - 10} more cells in {BOUNDS_JSON})")
    write_json(outdir / BOUNDS_JSON, {
        "from": cfg.bounds_from, "length": cfg.word_length, "quantities": blocks,
    })
    return {"quantities": len(blocks),
            "summary": {"bounds": [{k: b[k] for k in ("label", "q_lo", "q_hi")}
                                   for b in blocks]}}


def stage_report(cfg: PipelineConfig, outdir: Path):
    stages = load_manifest(outdir)["stages"]
    summary: dict = {}
    for name in STAGES:
        summary.update(stages.get(name, {}).get("summary", {}))
    # wall times, work counters and the report's own entry stay out, so
    # identical results, and a rerun of the report, give identical bytes
    report = {"tool_version": __version__, "rng_seed": cfg.rng_seed,
              "stages": {k: {kk: vv for kk, vv in v.items()
                             if kk not in ("outputs", "wall_time_s", "counters", "summary")}
                         for k, v in stages.items() if k != "report"},
              "summary": summary}
    write_json(outdir / REPORT_JSON, report)
    print("report: stages completed:", ", ".join(sorted(report["stages"])) or "none")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    return {}


class Stage(NamedTuple):
    """One pipeline stage: fn(cfg, outdir, *inputs) returns its manifest
    entry fields, its report "summary" among them; reads lists its input
    artifacts in argument order and writes what it records in the manifest."""

    fn: Callable
    reads: tuple
    writes: tuple


STAGES = {
    "calibrate": Stage(stage_calibrate, (), (COVER_JSON,)),
    "segments": Stage(stage_segments, (COVER_JSON,), (LIBRARY_DIR, MAX_DIFFERENCE_CSV)),
    "transitions": Stage(stage_transitions, (COVER_JSON, LIBRARY_DIR),
                         (TRANSITIONS_JSON, ENCLOSURE_JSON, TENSORS_JSON)),
    "encode": Stage(stage_encode, (COVER_JSON,), (WORDS_JSON,)),
    "shadow": Stage(stage_shadow, (COVER_JSON, LIBRARY_DIR), (SHADOW_REPORT_JSON,)),
    "enumerate": Stage(stage_enumerate, (TRANSITIONS_JSON,), (ENUMERATION_JSON,)),
    "entropy": Stage(stage_entropy, (COVER_JSON, TRANSITIONS_JSON), (ENTROPY_JSON,)),
    "bounds": Stage(stage_bounds, (LIBRARY_DIR, TRANSITIONS_JSON), (BOUNDS_JSON,)),
    "report": Stage(stage_report, (), (REPORT_JSON,)),
}


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit code 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# built once per process: building takes about 50 times as long as a parse,
# and the benchmark and the tests call main() many times in one process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segdyn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"segdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override rng_seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--check", action="store_true",
                       help="re-validate existing artifacts instead of computing")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, overrides={
            "rng_seed": args.seed, "output_dir": args.out})
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.check:
            problems = check_artifacts(outdir)
            if problems:
                for p in problems:
                    print(f"check: {p}", file=sys.stderr)
                return 1
            print(f"check: all recorded artifacts in {outdir} validate")
            return 0
        stage = STAGES[args.command]
        # the one place a config changes what a stage reads: in tensor mode,
        # enumerate walks the tensor set instead of the transition table
        tensor_mode = args.command == "enumerate" and cfg.enumerate_mode == "tensor"
        faults = _minor_faults()
        started = time.perf_counter()
        names = (TENSORS_JSON,) if tensor_mode else stage.reads
        inputs = [_load(cfg, outdir, args.command, name) for name in names]
        _check_cell_counts(outdir, names, inputs)
        extra = stage.fn(cfg, outdir, *inputs)
        wall = time.perf_counter() - started
        if faults is not None:
            # manifest only: the report leaves counters out, so no digest moves
            extra.setdefault("counters", {})["minor_faults"] = _minor_faults() - faults
        record_stage(outdir, args.command, wall, stage.writes,
                     tool_version=__version__, rng_seed=cfg.rng_seed,
                     config_echo=cfg.raw, extra=extra)
        return 0
    except ConfigError as err:
        print("error: invalid configuration:", file=sys.stderr)
        for p in err.problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    except (ManifestError, ArtifactError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MissingArtifactError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except SegdynError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
