"""Pipeline configuration: a single JSON document, validated up front.

Every numeric field is checked before any computation starts, and all
offending fields are reported together.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cover import BoxDomain
from .errors import ConfigError
from .flow import FlowModel, IntegratorConfig, model_from_json
from .quantities import quantity_from_json

Array = np.ndarray

__all__ = ["PipelineConfig", "load_config", "parse_config"]

# numeric fields: (name, default, minimum, strict, integer); a default of
# None makes the field required, and strict makes the minimum exclusive
_NUMBERS = (
    ("epsilon", None, 0, True, False),
    ("horizon", None, 0, True, False),
    ("segment_samples", 11, 2, False, True),
    ("samples_per_cell", 100, 1, False, True),
    ("tensor_order", 3, 2, False, True),
    ("word_length", 10, 1, False, True),
    ("rng_seed", 0, 0, False, True),
    ("integrator_step", 1e-3, 0, True, False),
    ("boundary_samples", 32, 0, False, True),
    ("collocation_cap", 2_000_000, 1, False, True),
    ("delta_cap_fraction", 0.25, 0, True, False),
    ("delta_floor", 1e-9, 0, True, False),
    ("calibration_time_samples", 17, 2, False, True),
    ("expansion_m_max", 2, 1, False, True),
    ("encode_points", 100, 1, False, True),
    ("encode_draw_budget", 200_000, 1, False, True),
    ("enumerate_from", 1, 1, False, True),
    ("enumeration_cap", 100_000, 1, False, True),
    ("bounds_from", 1, 1, False, True),
    ("measure_samples", 20_000, 1, False, True),
)
# every top-level field a config may hold; any other is refused, so that a
# misspelt field is not silently replaced by its default
_FIELDS = {"model", "domain", "resolution", "enumerate_mode", "output_dir", "quantities",
           "initial_points"} | {row[0] for row in _NUMBERS}


@dataclass(eq=False)
class PipelineConfig:
    model: FlowModel
    domain: BoxDomain
    epsilon: float
    horizon: float
    resolution: list
    segment_samples: int
    samples_per_cell: int
    tensor_order: int
    word_length: int
    quantities: list
    rng_seed: int
    output_dir: str
    integrator_step: float
    boundary_samples: int
    collocation_cap: int
    delta_cap_fraction: float
    delta_floor: float
    calibration_time_samples: int
    expansion_m_max: int
    encode_points: int
    encode_draw_budget: int
    initial_points: Array | None
    enumerate_from: int
    enumerate_mode: str
    enumeration_cap: int
    bounds_from: int
    measure_samples: int
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(step=self.integrator_step)

    def delta_max(self) -> float:
        return self.delta_cap_fraction * float(self.domain.widths.min())


def _get_number(doc: dict, problems: list, key: str, default, minimum,
                strict: bool, integer: bool):
    value = doc.get(key, default)
    if value is None:
        problems.append(f"{key}: missing")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{key}: expected a number, got {value!r}")
        return None
    if isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{key}: expected a finite number, got {value!r}")
        return None
    if integer and int(value) != value:
        problems.append(f"{key}: expected an integer, got {value!r}")
        return None
    value = int(value) if integer else float(value)
    if strict and value <= minimum:
        problems.append(f"{key}: must be > {minimum}, got {value}")
        return None
    if not strict and value < minimum:
        problems.append(f"{key}: must be >= {minimum}, got {value}")
        return None
    return value


def parse_config(doc: dict) -> PipelineConfig:
    """Validate a configuration document, reporting every problem at once."""
    problems: list[str] = []
    unknown = sorted(set(doc) - _FIELDS)
    if unknown:
        problems.append(f"unknown fields: {', '.join(map(json.dumps, unknown))}")

    model = None
    try:
        model = model_from_json(doc.get("model") or {})
    except (ValueError, KeyError, TypeError) as err:
        problems.append(f"model: {err}")

    domain = None
    try:
        dom = doc.get("domain") or {}
        domain = BoxDomain(lower=np.asarray(dom["lower"], dtype=float),
                           upper=np.asarray(dom["upper"], dtype=float))
    except (ValueError, KeyError, TypeError) as err:
        problems.append(f"domain: {err}")
    if model is not None and domain is not None and domain.dimension != model.dimension:
        problems.append(
            f"domain: dimension {domain.dimension} does not match model ({model.dimension})")

    # epsilon and horizon are reported before resolution, the rest after it
    numbers = {row[0]: _get_number(doc, problems, *row) for row in _NUMBERS[:2]}

    resolution = doc.get("resolution")
    if resolution is None:
        problems.append("resolution: missing")
    else:
        try:
            resolution = [int(r) for r in resolution]
            if any(r < 1 for r in resolution):
                problems.append(f"resolution: entries must be >= 1, got {resolution}")
            if model is not None and len(resolution) != model.dimension:
                problems.append(
                    f"resolution: needs {model.dimension} entries, got {len(resolution)}")
        except (TypeError, ValueError):
            problems.append(f"resolution: expected a list of integers, got {resolution!r}")

    numbers.update((row[0], _get_number(doc, problems, *row)) for row in _NUMBERS[2:])

    enumerate_mode = doc.get("enumerate_mode", "markov")
    if enumerate_mode not in ("markov", "tensor"):
        problems.append(f"enumerate_mode: must be 'markov' or 'tensor', got {enumerate_mode!r}")

    output_dir = doc.get("output_dir")
    if not output_dir or not isinstance(output_dir, str):
        problems.append(f"output_dir: expected a nonempty string, got {output_dir!r}")

    quantities = []
    for i, qdoc in enumerate(doc.get("quantities", [{"kind": "energy"}])):
        try:
            quantities.append(quantity_from_json(qdoc))
        except (ValueError, KeyError, TypeError) as err:
            problems.append(f"quantities[{i}]: {err}")

    initial_points = None
    if doc.get("initial_points") is not None:
        try:
            initial_points = np.asarray(doc["initial_points"], dtype=float)
            if initial_points.ndim != 2 or (
                    model is not None and initial_points.shape[1] != model.dimension):
                problems.append(
                    f"initial_points: expected shape (k, {getattr(model, 'dimension', '?')})")
        except (ValueError, TypeError) as err:
            problems.append(f"initial_points: {err}")

    if problems:
        raise ConfigError(problems)
    return PipelineConfig(
        model=model, domain=domain, resolution=resolution, quantities=quantities,
        output_dir=output_dir, initial_points=initial_points,
        enumerate_mode=enumerate_mode, raw=dict(doc), **numbers)


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Read, override (seed/out from the command line), and validate."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as err:
        raise ConfigError([f"config is not valid JSON: {err}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a JSON object"])
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    return parse_config(doc)
