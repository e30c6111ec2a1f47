"""The benchmark's traced run wraps segdyn functions by name
(bench/segbench/probes.py) and fails at install when one is missing; every
name it probes must still resolve in segdyn."""
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _probes():
    sys.path.insert(0, str(BENCH))
    try:
        from segbench.probes import PROBES
    finally:
        sys.path.remove(str(BENCH))
    return PROBES


def test_every_benchmark_probe_resolves_in_segdyn():
    probes = _probes()
    missing = []
    for probe in probes:
        owner = importlib.import_module(f"segdyn.{probe.module}")
        *classes, name = probe.attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the tracer takes a method from its class's own namespace
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(probe.name)
    assert len(probes) > 20 and not missing, f"probes naming no segdyn function: {missing}"
