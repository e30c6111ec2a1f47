"""Command-line pipeline: calibrate, segments, transitions, encode, shadow,
enumerate, entropy, bounds, report.

Each stage reads one JSON config, writes artifacts into the output
directory, and appends wall time plus output digests to the manifest.
Identical config and seed reproduce identical artifact bytes.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._rng import STREAM_ENCODE, STREAM_MEASURE, STREAM_SHADOW, derive_rng
from .artifacts import (
    BOUNDS_JSON, COVER_JSON, ENTROPY_JSON, ENUMERATION_JSON, LIBRARY_DIR,
    MAX_DIFFERENCE_CSV, REPORT_JSON, SHADOW_REPORT_JSON, TENSORS_JSON,
    TRANSITIONS_JSON, WORDS_JSON, check_artifacts, load_manifest, read_json,
    record_stage, require, write_json,
)
from .config import PipelineConfig, load_config
from .cover import (
    Partition, calibrate_deltas, cell_measure, collocate, cover_from_json,
    cover_to_json, metric_entropy, minimal_cover,
)
from .errors import (
    ArtifactError, ConfigError, ManifestError, MissingArtifactError, SegdynError,
)
from .flow import jacobian_norms
from .quantities import quantity_to_json, reachable_bounds, segment_envelope
from .segments import (
    build_segments, load_library, max_difference, save_library,
    write_max_difference_csv,
)
from .symbolic import encode_many, enumerate_admissible, ks_entropy, shadowing_report
from .transitions import (
    ball_successors, expanding_to_depth, row_sensitivity, sample_itineraries,
    tensor_from_json, tensor_to_json, transitions_from_itineraries,
    transitions_from_json, transitions_to_json,
)

STAGES = ("calibrate", "segments", "transitions", "encode", "shadow",
          "enumerate", "entropy", "bounds", "report")


def _read_artifact(path: Path, what: str, parse):
    """parse(path), with any parse failure turned into an ArtifactError that
    names the file, so a corrupt upstream artifact exits 1 with one line."""
    try:
        return parse(path)
    except (ValueError, KeyError, TypeError) as err:
        raise ArtifactError(f"{path} is not a readable {what}: {err!r}") from None


def _load_cover(cfg: PipelineConfig, outdir: Path, stage: str):
    path = require(outdir, COVER_JSON, stage)
    cover = _read_artifact(path, "cover", lambda p: cover_from_json(read_json(p)))
    if cover.dimension != cfg.model.dimension:
        raise ArtifactError(
            f"{path} has dimension {cover.dimension}, but the config's "
            f"model has dimension {cfg.model.dimension}")
    return cover


def _load_library(outdir: Path, stage: str):
    for name in ("library.json", "segments.csv"):
        require(outdir, f"{LIBRARY_DIR}/{name}", stage)
    return _read_artifact(outdir / LIBRARY_DIR, "segment library", load_library)


def _load_transitions(outdir: Path, stage: str):
    return _read_artifact(require(outdir, TRANSITIONS_JSON, stage), "transition table",
                          lambda p: transitions_from_json(read_json(p)))


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
    centers = collocate(cfg.domain, cfg.resolution, max_points=cfg.collocation_cap)
    counters: dict = {}
    deltas = calibrate_deltas(
        cfg.model, centers, cfg.horizon, cfg.epsilon, cfg.integrator,
        cfg.boundary_samples, delta_max=cfg.delta_max(), delta_min=cfg.delta_floor,
        time_samples=cfg.calibration_time_samples, seed=cfg.rng_seed, counters=counters)
    cover = minimal_cover(centers, deltas, centers)
    write_json(outdir / COVER_JSON, cover_to_json(cover))
    print(f"calibrate: {len(centers)} centers -> {cover.n_balls} balls, "
          f"radius range [{cover.radii.min():.6g}, {cover.radii.max():.6g}] "
          f"({cfg.boundary_samples} boundary samples per center)")
    return [COVER_JSON], {"n_centers": len(centers), "n_balls": cover.n_balls,
                          "boundary_samples": cfg.boundary_samples, "counters": counters}


def stage_segments(cfg: PipelineConfig, outdir: Path):
    cover = _load_cover(cfg, outdir, "segments")
    lib = build_segments(cfg.model, cover, cfg.horizon, cfg.segment_samples,
                         cfg.integrator, epsilon=cfg.epsilon)
    save_library(lib, outdir / LIBRARY_DIR)
    md = max_difference(lib)
    write_max_difference_csv(outdir / MAX_DIFFERENCE_CSV, lib.times, md)
    print(f"segments: {lib.n_segments} segments x {lib.n_times} samples over "
          f"[0, {lib.horizon}]; M_d range [{md.min():.6g}, {md.max():.6g}]")
    return [LIBRARY_DIR, MAX_DIFFERENCE_CSV], {"n_segments": lib.n_segments}


def stage_transitions(cfg: PipelineConfig, outdir: Path):
    cover = _load_cover(cfg, outdir, "transitions")
    lib = _load_library(outdir, "transitions")
    partition = Partition(cover=cover)
    n = partition.n_cells
    counters: dict = {}
    _, itins = sample_itineraries(
        cfg.model, partition, cfg.horizon, cfg.tensor_order - 1,
        cfg.samples_per_cell, cfg.integrator, cfg.rng_seed, counters=counters)
    # one sampling pass serves every tensor order: each is a prefix of the
    # same itineraries, as if estimated from scratch with the same seed
    tm, mm, tensors = transitions_from_itineraries(itins, n, range(2, cfg.tensor_order + 1))

    sensitive = row_sensitivity(tm)
    verdict = expanding_to_depth(tensors, m_max=cfg.expansion_m_max)
    doc = transitions_to_json(tm, mm, cfg.rng_seed, cfg.samples_per_cell)
    doc["verdicts"] = {
        "row_sensitivity": bool(sensitive),
        "expanding_up_to_depth": bool(verdict.expanding_up_to_depth),
        "expansion_depth": verdict.depth,
        "expansion_m_max": verdict.m_max,
        "witness_failures": [list(t) for t in verdict.witness_failures[:100]],
        "inconclusive_count": len(verdict.inconclusive),
    }
    if n >= 2:
        rho = jacobian_norms(cfg.model, lib.ends(), cfg.horizon, cfg.integrator)
        doc["ball_rule"] = {
            "rho": [round(float(r), 12) for r in rho],
            "successors": [ids.tolist() for ids in ball_successors(lib, partition, rho)],
        }
    write_json(outdir / TRANSITIONS_JSON, doc)
    write_json(outdir / TENSORS_JSON, {"tensors": [tensor_to_json(t) for t in tensors]})
    esc = tm.escape_fractions()
    print(f"transitions: {n} cells, {cfg.samples_per_cell} samples/cell, "
          f"mean escape fraction {esc.mean():.4f}")
    print(f"row sensitivity hypothesis (every supported row has >=2 successors): {sensitive}")
    print(f"expanding tensors to depth {verdict.depth} (m_max={verdict.m_max}): "
          f"{verdict.expanding_up_to_depth} "
          f"({len(verdict.witness_failures)} failures, "
          f"{len(verdict.inconclusive)} inconclusive)")
    return [TRANSITIONS_JSON, TENSORS_JSON], {"n_cells": n, "counters": counters}


def _initial_points(cfg: PipelineConfig, partition: Partition, stream: int):
    if cfg.initial_points is not None:
        return (np.asarray(cfg.initial_points, dtype=float),
                {"domain_draws": 0, "covered_starts": 0})
    return _draw_covered_points(cfg, partition, cfg.encode_points, stream)


def stage_encode(cfg: PipelineConfig, outdir: Path):
    cover = _load_cover(cfg, outdir, "encode")
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
        "requested": cfg.encode_points if cfg.initial_points is None else len(entries),
        "found_starts": len(entries), "complete": n_complete, "words": entries,
    })
    print(f"encode: {len(entries)} starts, {n_complete} complete length-{cfg.word_length} words")
    return [WORDS_JSON], {"complete_words": n_complete, "counters": counters}


def stage_shadow(cfg: PipelineConfig, outdir: Path):
    cover = _load_cover(cfg, outdir, "shadow")
    lib = _load_library(outdir, "shadow")
    partition = Partition(cover=cover)
    x0s, counters = _initial_points(cfg, partition, STREAM_SHADOW)
    report = shadowing_report(cfg.model, lib, partition, x0s, cfg.word_length,
                              cfg.integrator)
    report["requested_points"] = cfg.encode_points
    write_json(outdir / SHADOW_REPORT_JSON, report)
    print(f"shadow: {report['orbits']} orbits ({report['complete_orbits']} complete), "
          f"max error {report['max_error']} vs epsilon {report['epsilon']}")
    return [SHADOW_REPORT_JSON], {"max_error": report["max_error"],
                                  "complete_orbits": report["complete_orbits"],
                                  "counters": counters}


def _check_start_cell(field: str, cell: int, n_cells: int) -> None:
    # the config is validated before the cover exists, so the upper bound on
    # a start cell can only be checked once the stage knows n_cells
    if cell > n_cells:
        raise ConfigError([f"{field}: must be <= {n_cells} (the number of cells), got {cell}"])


def stage_enumerate(cfg: PipelineConfig, outdir: Path):
    if cfg.enumerate_mode == "tensor":
        tensors = _read_artifact(
            require(outdir, TENSORS_JSON, "enumerate"), "tensor set",
            lambda p: {t["order"]: tensor_from_json(t) for t in read_json(p)["tensors"]})
        if cfg.tensor_order not in tensors:
            raise MissingArtifactError(
                f"stage 'enumerate' needs the order-{cfg.tensor_order} tensor in {TENSORS_JSON}")
        system = tensors[cfg.tensor_order]
    else:
        system, _ = _load_transitions(outdir, "enumerate")
    _check_start_cell("enumerate_from", cfg.enumerate_from, system.n_cells)
    res = enumerate_admissible(system, cfg.enumerate_from, cfg.word_length,
                               cap=cfg.enumeration_cap)
    write_json(outdir / ENUMERATION_JSON, {
        "from": cfg.enumerate_from, "length": cfg.word_length,
        "mode": cfg.enumerate_mode, "overflowed": res.overflowed,
        "word_count": len(res.words), "cap": cfg.enumeration_cap,
        "reachable": sorted(res.reachable),
        "words": res.words,
    })
    print(f"enumerate: {len(res.words)} words of length {cfg.word_length} from "
          f"{cfg.enumerate_from} (overflowed: {res.overflowed}); "
          f"{len(res.reachable)} reachable symbols")
    return [ENUMERATION_JSON], {"word_count": len(res.words), "overflowed": res.overflowed}


def stage_entropy(cfg: PipelineConfig, outdir: Path):
    cover = _load_cover(cfg, outdir, "entropy")
    _, mm = _load_transitions(outdir, "entropy")
    partition = Partition(cover=cover)
    rng = derive_rng(cfg.rng_seed, STREAM_MEASURE)
    samples = cfg.domain.sample(rng, cfg.measure_samples)
    mu = cell_measure(partition, samples)
    h = metric_entropy(mu)
    ks = ks_entropy(mm)
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
    return [ENTROPY_JSON], {"metric_entropy": h}


def stage_bounds(cfg: PipelineConfig, outdir: Path):
    lib = _load_library(outdir, "bounds")
    tm, _ = _load_transitions(outdir, "bounds")
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
    return [BOUNDS_JSON], {"quantities": len(blocks)}


def stage_report(cfg: PipelineConfig, outdir: Path):
    manifest = load_manifest(outdir)
    summary: dict = {}
    for name in (COVER_JSON, TRANSITIONS_JSON, WORDS_JSON, SHADOW_REPORT_JSON,
                 ENUMERATION_JSON, ENTROPY_JSON, BOUNDS_JSON):
        path = outdir / name
        if not path.exists():
            continue
        doc = read_json(path)
        if name == COVER_JSON:
            radii = [b["radius"] for b in doc["balls"]]
            summary["cover"] = {"n_balls": len(radii),
                                "radius_min": min(radii), "radius_max": max(radii)}
        elif name == TRANSITIONS_JSON:
            summary["transitions"] = {"n_cells": doc["n_cells"],
                                      "verdicts": doc.get("verdicts")}
        elif name == WORDS_JSON:
            summary["encode"] = {"found_starts": doc["found_starts"],
                                 "complete": doc["complete"], "length": doc["length"]}
        elif name == SHADOW_REPORT_JSON:
            summary["shadow"] = {k: doc[k] for k in
                                 ("epsilon", "max_error", "orbits", "complete_orbits")}
        elif name == ENUMERATION_JSON:
            summary["enumeration"] = {k: doc[k] for k in
                                      ("word_count", "overflowed", "reachable")}
        elif name == ENTROPY_JSON:
            summary["entropy"] = {k: doc[k] for k in
                                  ("metric_entropy", "ks_entropy_unweighted",
                                   "ks_entropy_stationary_weighted")}
        elif name == BOUNDS_JSON:
            summary["bounds"] = [{k: b[k] for k in ("label", "q_lo", "q_hi")}
                                 for b in doc["quantities"]]
    # wall times and work counters stay out of the report, so identical
    # results produce identical bytes
    report = {"tool_version": __version__, "rng_seed": cfg.rng_seed,
              "stages": {k: {kk: vv for kk, vv in v.items()
                             if kk not in ("outputs", "wall_time_s", "counters")}
                         for k, v in manifest.get("stages", {}).items()},
              "summary": summary}
    write_json(outdir / REPORT_JSON, report)
    print("report: stages completed:", ", ".join(sorted(manifest.get("stages", {}))) or "none")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    return [REPORT_JSON], {}


_STAGE_FUNCS = {
    "calibrate": stage_calibrate,
    "segments": stage_segments,
    "transitions": stage_transitions,
    "encode": stage_encode,
    "shadow": stage_shadow,
    "enumerate": stage_enumerate,
    "entropy": stage_entropy,
    "bounds": stage_bounds,
    "report": stage_report,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit code 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
        started = time.perf_counter()
        outputs, extra = _STAGE_FUNCS[args.command](cfg, outdir)
        record_stage(outdir, args.command, time.perf_counter() - started, outputs,
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
