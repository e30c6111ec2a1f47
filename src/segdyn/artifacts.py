"""Pipeline artifacts on disk: file layout, digests, manifest, validation.

Artifacts are deterministic for a fixed config and seed, so their SHA-256
digests double as a reproducibility check. The manifest records per-stage
wall time and output digests; wall times live only in the manifest, never
in digested artifacts.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .atomic import side_path, write_json
from .cover import cover_from_json
from .errors import ManifestError, MissingArtifactError
from .segments import load_library
from .transitions import tensor_from_json, transitions_from_json

__all__ = [
    "COVER_JSON", "LIBRARY_DIR", "MAX_DIFFERENCE_CSV", "TRANSITIONS_JSON",
    "ENCLOSURE_JSON", "TENSORS_JSON", "WORDS_JSON", "SHADOW_REPORT_JSON", "ENUMERATION_JSON",
    "ENTROPY_JSON", "BOUNDS_JSON", "REPORT_JSON", "MANIFEST_JSON",
    "write_json", "read_json", "file_digest", "require",
    "load_manifest", "record_stage", "Reader", "READERS", "artifact_files", "check_artifacts",
]

COVER_JSON = "cover.json"
LIBRARY_DIR = "library"
MAX_DIFFERENCE_CSV = "max_difference.csv"
TRANSITIONS_JSON = "transitions.json"
ENCLOSURE_JSON = "enclosure.json"
TENSORS_JSON = "tensors.json"
WORDS_JSON = "words.json"
SHADOW_REPORT_JSON = "shadow_report.json"
ENUMERATION_JSON = "enumeration.json"
ENTROPY_JSON = "entropy.json"
BOUNDS_JSON = "bounds.json"
REPORT_JSON = "report.json"
MANIFEST_JSON = "manifest.json"


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def require(outdir: Path, relpath: str, needed_by: str) -> Path:
    """Path of a prerequisite artifact, or a MissingArtifactError naming it."""
    path = outdir / relpath
    if not path.exists():
        raise MissingArtifactError(
            f"stage '{needed_by}' needs artifact '{relpath}' "
            f"(not found in {outdir}{_side_note(path)}); run the producing stage first")
    return path


def _side_note(path: Path) -> str:
    """For a missing file, a note naming the side file an interrupted write
    left with its previous bytes, if there is one."""
    side = side_path(path)
    return f"; an interrupted write left its previous bytes in {side.name}" if side.exists() else ""


def load_manifest(outdir: Path) -> dict:
    """The manifest of an output directory, or an empty one. A write killed
    between its two renames leaves the manifest only under its side name,
    which is then read. A manifest that does not parse, or whose stage
    entries, or their "outputs" or "summary", are not JSON objects, is a
    ManifestError naming the stage and field."""
    path = outdir / MANIFEST_JSON
    if not path.exists():
        path = side_path(path)
    if path.exists():
        try:
            doc = read_json(path)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ManifestError(f"{path} is not a readable manifest: {err}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("stages"), dict):
            raise ManifestError(f"{path} is not a readable manifest: no 'stages' object")
        for stage, entry in doc["stages"].items():
            if not isinstance(entry, dict):
                raise ManifestError(f"{path} is not a readable manifest: "
                                    f"stage {stage!r} is not an object")
            for field in ("outputs", "summary"):
                if not isinstance(entry.get(field, {}), dict):
                    raise ManifestError(f"{path} is not a readable manifest: "
                                        f"stage {stage!r} field {field!r} is not an object")
        return doc
    return {"tool_version": None, "rng_seed": None, "config_echo": None, "stages": {}}


def record_stage(outdir: Path, stage: str, wall_time_s: float, outputs: list,
                 *, tool_version: str, rng_seed: int, config_echo: dict,
                 extra: dict | None = None) -> None:
    """Append one stage record with digests of everything it wrote."""
    manifest = load_manifest(outdir)
    manifest["tool_version"] = tool_version
    manifest["rng_seed"] = rng_seed
    manifest["config_echo"] = config_echo
    digests = {rel: file_digest(outdir / rel)
               for name in outputs for rel in artifact_files(name)}
    entry = {"wall_time_s": round(wall_time_s, 6), "outputs": digests}
    if extra:
        entry.update(extra)
    manifest["stages"][stage] = entry
    write_json(outdir / MANIFEST_JSON, manifest)


def _check_words_doc(doc: dict) -> None:
    for w in doc["words"]:
        if not isinstance(w["word"], list) or not all(type(s) is int for s in w["word"]):
            raise ValueError(f"malformed word entry: {w}")


class Reader(NamedTuple):
    """How one artifact is read: what errors call it, the parser of its path,
    and the files a stage reading it must find (default: the path itself)."""

    what: str
    parse: Callable
    files: tuple = ()


# each parser is called through its module-level name, so a wrapper put on
# that name (a profiler's, a test's mock) sees every read; enclosure.json has
# no reader, as no stage reads it, and --check compares only its digest
READERS = {
    COVER_JSON: Reader("cover", lambda p: cover_from_json(read_json(p))),
    LIBRARY_DIR: Reader("segment library", lambda p: load_library(p),
                        (f"{LIBRARY_DIR}/library.json", f"{LIBRARY_DIR}/segments.npy")),
    MAX_DIFFERENCE_CSV: Reader("max-difference profile",
                               lambda p: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)),
    TRANSITIONS_JSON: Reader("transition table", lambda p: transitions_from_json(read_json(p))),
    TENSORS_JSON: Reader("tensor set", lambda p: {t["order"]: tensor_from_json(t)
                                                  for t in read_json(p)["tensors"]}),
    WORDS_JSON: Reader("word list", lambda p: _check_words_doc(read_json(p))),
    SHADOW_REPORT_JSON: Reader("shadow report", lambda p: read_json(p)["per_orbit"]),
    ENUMERATION_JSON: Reader("enumeration", lambda p: read_json(p)["reachable"]),
    ENTROPY_JSON: Reader("entropy record", lambda p: read_json(p)["metric_entropy"]),
    BOUNDS_JSON: Reader("bounds record", lambda p: read_json(p)["quantities"]),
    REPORT_JSON: Reader("report", lambda p: read_json(p)["stages"]),
}


def artifact_files(name: str) -> tuple:
    """The files, relative to the output directory, that make up an artifact:
    its reader's ``files``, or else the artifact's own path."""
    reader = READERS.get(name)
    return (reader.files if reader else ()) or (name,)


def check_artifacts(outdir: Path) -> list:
    """Re-validate artifacts against the manifest without recomputation.

    Returns a list of problems: missing files, digest mismatches, or files
    that no longer parse under their schema. An unreadable manifest raises
    ManifestError.
    """
    outdir = Path(outdir)
    problems: list[str] = []
    manifest_path = outdir / MANIFEST_JSON
    if not manifest_path.exists() and not side_path(manifest_path).exists():
        return [f"no manifest at {manifest_path}"]
    manifest = load_manifest(outdir)
    seen: set[str] = set()
    for stage, entry in sorted(manifest.get("stages", {}).items()):
        for rel, digest in sorted(entry.get("outputs", {}).items()):
            path = outdir / rel
            if not path.exists():
                problems.append(f"{stage}: {rel} is missing{_side_note(path)}")
                continue
            if file_digest(path) != digest:
                problems.append(f"{stage}: {rel} does not match its recorded digest")
            name = rel.split("/")[0]  # the artifact the file belongs to
            if name in seen or name not in READERS:
                continue
            seen.add(name)
            try:
                READERS[name].parse(outdir / name)
            except Exception as err:
                problems.append(f"{stage}: {name} fails schema validation: {err}")
    return problems
