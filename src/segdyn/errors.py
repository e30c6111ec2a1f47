"""Exception types shared across the package."""
from __future__ import annotations


class SegdynError(Exception):
    """Base class for all errors raised by segdyn."""


class BlowupError(SegdynError):
    """Raised when a trajectory becomes non-finite during integration."""

    def __init__(self, time: float, batch_index: int | None = None, message: str | None = None):
        self.time = float(time)
        self.batch_index = batch_index
        if message is None:
            message = f"state became non-finite at t~{self.time:.6g}"
            if batch_index is not None:
                message += f" (batch row {batch_index})"
        super().__init__(message)


class DimensionExplosionError(SegdynError):
    """Raised when a collocation grid would exceed the configured point cap."""


class CoverageError(SegdynError):
    """Raised when required points are not covered by a set of balls."""


class CalibrationError(SegdynError):
    """Raised when no admissible ball radius exists for the requested tolerance."""


class SamplingError(SegdynError):
    """Raised when rejection sampling inside a partition cell exhausts its budget."""


class EncodingError(SegdynError):
    """Raised when an orbit cannot be encoded (initial point outside every cell)."""


class NoAdmissibleWordError(SegdynError, ValueError):
    """Raised when no admissible word of the requested length starts at a cell."""


class ManifestError(SegdynError):
    """Raised when an existing manifest cannot be read."""


class ArtifactError(SegdynError):
    """Raised when an upstream artifact is malformed or does not fit the
    current config."""


class MissingArtifactError(SegdynError):
    """Raised when a pipeline stage needs an artifact that has not been produced."""


class ConfigError(SegdynError):
    """Raised for invalid pipeline configuration; collects all offending fields."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))
