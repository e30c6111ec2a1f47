"""Output checks on the artifacts a stage wrote.

Each check reads the JSON files directly (not through segdyn's loaders) and
returns a list of problems; an empty list means the check passed.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"
# cell weights are written rounded to 12 digits, so their sum carries up to
# n_cells * 5e-13 of rounding; 1e-8 leaves room for 10^4 cells
WEIGHT_TOL = 1e-8
ROW_TOL = 1e-9
# slack on the epsilon bound for float distances, as in acceptance criterion 1
SHADOW_TOL = 1e-6


def load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every file under outdir except the manifest (wall times)."""
    out = {}
    for path in sorted(Path(outdir).rglob("*")):
        if path.is_file() and path.name != MANIFEST:
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[str(path.relative_to(outdir))] = h.hexdigest()
    return out


def gamma_and_p(transitions: dict) -> tuple[np.ndarray, np.ndarray]:
    """Admissibility Gamma and Markov matrix p from a transitions.json document."""
    n = transitions["n_cells"]
    if transitions["format"] == "dense":
        return (np.asarray(transitions["admissible"], dtype=bool).reshape(n, n),
                np.asarray(transitions["p"], dtype=float).reshape(n, n))
    gamma = np.zeros((n, n), dtype=bool)
    p = np.zeros((n, n))
    for r, c, v in transitions["counts"]:
        gamma[r - 1, c - 1] = v > 0
    for r, c, v in transitions["p"]:
        p[r - 1, c - 1] = v
    return gamma, p


def check_transitions(transitions: dict) -> list[str]:
    gamma, p = gamma_and_p(transitions)
    supported = gamma.any(axis=1)
    sums = p.sum(axis=1)
    bad = np.flatnonzero(supported & (np.abs(sums - 1.0) > ROW_TOL))
    problems = [f"row {i + 1} of p sums to {sums[i]!r}" for i in bad[:5]]
    if np.any(sums[~supported] != 0):
        problems.append("an unsupported row of p has mass")
    return problems


def check_entropy(entropy: dict) -> list[str]:
    total = float(np.sum(entropy["cell_weights"]))
    return [] if abs(total - 1.0) <= WEIGHT_TOL else [f"cell weights sum to {total!r}"]


def check_shadow(shadow: dict, epsilon: float) -> list[str]:
    errors = [o["error"] for o in shadow["per_orbit"] if o["error"] is not None]
    worst = max(errors, default=0.0)
    problems = [] if worst <= epsilon + SHADOW_TOL else [
        f"shadowing error {worst!r} exceeds epsilon {epsilon}"]
    if shadow["max_error"] != (max(errors) if errors else None):
        problems.append(f"max_error {shadow['max_error']!r} is not the largest per-orbit error")
    return problems


def _check_word_list(enum: dict) -> tuple[np.ndarray, list[str]]:
    words = np.asarray(enum["words"], dtype=np.int64).reshape(len(enum["words"]), enum["length"])
    problems = []
    if enum["word_count"] != words.shape[0]:
        problems.append(f"word_count {enum['word_count']} != {words.shape[0]} words listed")
    if words.shape[0] > enum["cap"]:
        problems.append(f"{words.shape[0]} words exceed the cap {enum['cap']}")
    if np.any(words[:, 0] != enum["from"]):
        problems.append(f"a word does not start at {enum['from']}")
    if not enum["overflowed"]:
        symbols = set(np.unique(words).tolist())
        if symbols != set(enum["reachable"]):
            problems.append(f"word symbols ({len(symbols)}) differ from the reachable set "
                            f"({len(enum['reachable'])})")
    return words, problems


def check_markov_words(enum: dict, gamma: np.ndarray) -> list[str]:
    """Words pairwise admissible under Gamma, within the cap, covering reachable."""
    words, problems = _check_word_list(enum)
    if words.shape[0] and words.shape[1] > 1:
        ok = gamma[words[:, :-1] - 1, words[:, 1:] - 1].all(axis=1)
        if not ok.all():
            problems.append(f"{int((~ok).sum())} words step outside Gamma")
    return problems


def check_tensor_words(enum: dict, tensors: dict) -> list[str]:
    """Every sliding window of a tensor-mode word is an admissible tuple."""
    words, problems = _check_word_list(enum)
    order = max(t["order"] for t in tensors["tensors"])
    tuples = np.asarray(next(t["tuples"] for t in tensors["tensors"] if t["order"] == order),
                        dtype=np.int64).reshape(-1, order)
    if words.shape[0] and words.shape[1] >= order:
        base = int(max(words.max(), tuples.max(initial=0))) + 1
        weights = base ** np.arange(order - 1, -1, -1, dtype=np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(words, order, axis=1)
        ok = np.isin(windows @ weights, tuples @ weights).all(axis=1)
        if not ok.all():
            problems.append(f"{int((~ok).sum())} words have a window outside the tensor")
    return problems


def check_bounds(bounds: dict) -> list[str]:
    return [f"{b['label']}: q_lo {b['q_lo']!r} > q_hi {b['q_hi']!r}"
            for b in bounds["quantities"] if not b["q_lo"] <= b["q_hi"]]


def pipeline_checks(outdir: Path, epsilon: float) -> list[tuple[str, object]]:
    """(name, check) pairs for a full pipeline's output dir.

    A check raises when its input file is missing; bounds.json is checked
    only when the bounds stage wrote it (its failure is counted separately).
    """
    outdir = Path(outdir)

    def enumerate_check():
        gamma, _ = gamma_and_p(load(outdir / "transitions.json"))
        return check_markov_words(load(outdir / "enumeration.json"), gamma)

    checks = [
        ("transitions", lambda: check_transitions(load(outdir / "transitions.json"))),
        ("entropy", lambda: check_entropy(load(outdir / "entropy.json"))),
        ("shadow", lambda: check_shadow(load(outdir / "shadow_report.json"), epsilon)),
        ("enumerate", enumerate_check),
    ]
    if (outdir / "bounds.json").exists():
        checks.append(("bounds", lambda: check_bounds(load(outdir / "bounds.json"))))
    return checks
