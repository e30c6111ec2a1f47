"""Tests of the benchmark itself: tracing arithmetic, binding restoration,
seeded inputs, and tiny runs of every workload through their output checks."""
import os
import subprocess
import sys

import pytest

from segbench import checks
from segbench.harness import Run, Session
from segbench.probes import PROBES
from segbench.tracer import Probe, Tracer
from segbench.workloads import (
    PIPELINE, LinearSweep, LorenzGrid, OrbitQueries, run_pipeline,
)


def tiny(name, root):
    return {
        "lorenz-grid": lambda: LorenzGrid(
            root, seeds=1, resolution=[4, 4, 4], samples_per_cell=5, encode_points=5,
            measure_samples=200000, boundary_samples=4),
        "orbit-queries": lambda: OrbitQueries(root, candidates=200, samples_per_cell=10,
                                              cells=2, enumeration_cap=500),
        "linear-sweep": lambda: LinearSweep(root, seeds=2),
    }[name]()


WORKLOAD_NAMES = ("lorenz-grid", "orbit-queries", "linear-sweep")


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    outer = tr.open("outer")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    tr.close(outer)
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.5}
    assert totals["a"] == {"calls": 1, "s": 3.5, "self_s": 2.5}
    assert totals["b"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0
    assert [s.parent for s in tr.spans] == [-1, 0, 1]


def test_wrapper_passes_arguments_results_and_errors_through():
    tr = Tracer()
    sentinel = object()

    def inner(x, *, y):
        if x is None:
            raise KeyError("boom")
        return (x, y)

    wrapped_inner = tr.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x, y=sentinel)

    wrapped_outer = tr.wrap("outer", outer)
    arg = [1, 2]
    result = wrapped_outer(arg)
    assert result[0] is arg and result[1] is sentinel
    with pytest.raises(KeyError):
        wrapped_outer(None)
    totals = tr.totals()
    assert totals["outer"]["calls"] == 2 and totals["inner"]["calls"] == 2
    assert tr.spans[1].parent == 0 and tr._stack == []


def _bindings():
    """Every attribute of every segdyn module and class, by identity."""
    import segdyn.cli  # noqa: F401  (loads every module)

    mods = {k: m for k, m in sys.modules.items() if k == "segdyn" or k.startswith("segdyn.")}
    snap = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("segdyn"):
                for key, member in vars(value).items():
                    snap[(name, attr, key)] = member
    return snap


def test_install_replaces_every_binding_and_restore_puts_them_back():
    import segdyn.cover
    import segdyn.flow
    import segdyn.segments

    before = _bindings()
    original = segdyn.flow.sample_path
    assign = segdyn.cover.Partition.__dict__["assign_many"]
    tr = Tracer()
    tr.install(PROBES)
    try:
        wrapper = segdyn.flow.sample_path
        assert wrapper is not original
        assert segdyn.cover.sample_path is wrapper and segdyn.segments.sample_path is wrapper
        assert segdyn.cover.Partition.__dict__["assign_many"] is not assign
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_restores_bindings_and_accounts_for_wall(root, tmp_path):
    before = _bindings()
    result = Run(root, tiny("linear-sweep", root), seed=2, seconds=0, trace=True,
                 base=tmp_path).execute()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert result["failed"] == []
    layers = result["per_layer"]
    assert layers["flow.advance_many.calls"][0] > 0
    self_sum = sum(v for k, (v, _) in layers.items()
                   if k.count(".") == 1 and k.endswith(".self_s"))
    assert self_sum == pytest.approx(layers["trace.wall_s"][0], rel=0.02)
    assert (tmp_path / "_results" / "linear-sweep-seed2-trace1-spans.jsonl").is_file()


def test_probes_name_existing_functions():
    import importlib

    for probe in PROBES:
        owner = importlib.import_module(f"segdyn.{probe.module}")
        for part in probe.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), probe.name
    assert isinstance(PROBES[0], Probe)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_inputs_depend_only_on_the_seed(root, tmp_path, name):
    workload = tiny(name, root)
    session = Session(tmp_path / "log.txt")
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workload.setup(session, tmp_path / label, seed)
    a, b, c = (checks.digests(tmp_path / label) for label in "abc")
    assert a and a == b
    assert a != c
    assert all(op.ok for op in session.ops)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_passes_its_output_checks(root, tmp_path, name):
    result = Run(root, tiny(name, root), seed=1, seconds=0, trace=False,
                 base=tmp_path).execute()
    assert result["failed"] == []
    assert result["attempted"] > 0
    assert all(op["name"] == "stage:bounds" for op in result["known_failures"])
    names = {"wall_s", "setup_s", "peak_rss_mb"}
    assert set(result["end_to_end"]) == names
    assert all(value > 0 for value, _ in result["end_to_end"].values())


def test_in_process_digests_equal_direct_cli_runs(root, tmp_path):
    workload = tiny("linear-sweep", root)
    session = Session(tmp_path / "log.txt")
    config = workload.setup(session, tmp_path / "inputs", 4).configs["seed-0"]
    run_pipeline(session, config, tmp_path / "bench")
    assert all(op.ok for op in session.ops)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for stage in PIPELINE:
        subprocess.run([sys.executable, "-m", "segdyn.cli", stage, "--config", str(config),
                        "--out", str(tmp_path / "direct")],
                       check=True, env=env, capture_output=True, timeout=120)
    assert checks.digests(tmp_path / "bench") == checks.digests(tmp_path / "direct")
