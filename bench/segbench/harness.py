"""One benchmark run: set-up, the timed units, output checks and metrics.

Stages run in this process through ``segdyn.cli.main(argv)``, one invocation
after another, so the numpy import is paid once per run rather than once per
stage. A run measures a fixed set of units. With tracing on, the first unit
runs untraced; then the whole set runs again with every probed function
wrapped.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from . import checks
from .probes import CLI_PREFIX, PROBES, layer_metrics
from .tracer import Tracer

STAGE_KEYS = ("calibrate", "segments", "transitions", "encode", "shadow", "enumerate",
              "entropy", "bounds", "report", "check")


@dataclass
class Op:
    """One attempted operation: a stage invocation or an output check."""

    name: str
    ok: bool
    message: str = ""
    known: str = ""


@dataclass
class Unit:
    key: str
    outdir: Path
    wall_s: float
    stage_s: dict
    traced: bool


class Session:
    """Invokes stages in-process and records every operation's outcome."""

    def __init__(self, log_path: Path, known_defects=()):
        from segdyn import cli, config

        self._main = cli.main
        self._load_config = config.load_config
        self.known_defects = known_defects
        self.log_path = log_path
        self.ops: list[Op] = []
        self.calls: list[tuple[str, float]] = []
        self.tracer: Tracer | None = None

    def validate(self, config: Path) -> None:
        """Generated inputs must be valid configs; raises ConfigError otherwise."""
        self._load_config(config)

    def invoke(self, stage: str, config: Path, outdir: Path, check: bool = False) -> bool:
        argv = [stage, "--config", str(config), "--out", str(outdir)] + (["--check"] if check else [])
        name = "check" if check else stage
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            error, seconds = self._call(name, argv)
        output = buf.getvalue()
        if error and error.startswith("exit code"):
            last = [line for line in output.splitlines() if line.strip()][-1:]
            error = ": ".join([error] + last)
        with open(self.log_path, "a", encoding="utf-8") as log:
            log.write(f"$ segdyn {' '.join(argv)}\n{output}")
            if error:
                log.write(f"FAILED: {error}\n")
        self.calls.append((name, seconds))
        known = next((d.reference for d in self.known_defects
                      if d.stage == name and error and d.message in error), "")
        self.ops.append(Op(f"stage:{name}", error is None, error or "", known))
        return error is None

    def _call(self, name: str, argv: list) -> tuple[str | None, float]:
        span = self.tracer.open(CLI_PREFIX + name) if self.tracer else None
        start = time.perf_counter()
        try:
            code = self._main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # a raw traceback out of the CLI is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
        return error, seconds

    def check(self, name: str, fn) -> None:
        try:
            problems = fn()
        except Exception as exc:  # a check that cannot read its input fails
            problems = [f"{type(exc).__name__}: {exc}"]
        self.ops.append(Op(f"check:{name}", not problems, "; ".join(problems)[:500]))

    @property
    def failed(self) -> list[Op]:
        return [op for op in self.ops if not op.ok and not op.known]

    @property
    def known_failures(self) -> list[Op]:
        return [op for op in self.ops if not op.ok and op.known]


def source_fingerprint(root: Path) -> str:
    """Digest of the program, configs and benchmark sources, so that digests
    recorded for one version of the code are never compared with another's."""
    h = hashlib.sha256()
    for pattern in ("src/**/*.py", "configs/*.json", "bench/segbench/*.py"):
        for path in sorted(root.glob(pattern)):
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestBook:
    """Artifact digests of the first run of each unit at one seed and source
    fingerprint, kept on disk so later runs compare against them."""

    def __init__(self, path: Path):
        self.path = path
        self.entries = checks.load(path) if path.exists() else {}

    def compare(self, key: str, digests: dict) -> list[str]:
        first = self.entries.setdefault(key, digests)
        return [f"{key}: {name} differs from the first run"
                for name in sorted(set(first) | set(digests))
                if first.get(name) != digests.get(name)]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(root), "seed": seed}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run; work files go under ``base``/_work (deleted at the
    end), results and the digest book under ``base``/_results."""

    def __init__(self, root: Path, workload, seed: int, seconds: float, trace: bool,
                 base: Path | None = None):
        self.root = Path(root)
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        base = Path(base) if base is not None else self.root / "bench"
        self.results = base / "_results"
        self.workdir = base / "_work" / f"{workload.name}-{seed}"
        self.tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.units: list[Unit] = []
        self.setup_s: list[float] = []

    def execute(self) -> dict:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        log = self.results / f"{self.tag}.log"
        log.unlink(missing_ok=True)
        self.session = Session(log, self.workload.known_defects)
        self.book = DigestBook(self.results / "digests" / (
            f"{self.workload.name}-seed{self.seed}-{source_fingerprint(self.root)}.json"))
        try:
            inputs = self._setup()
            tracer = self._timed_loop(inputs)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for name, fn in self.workload.setup_checks(inputs):
                self.session.check(name, fn)
            for unit in self.units:
                for name, fn in self.workload.checks(inputs, unit.key, unit.outdir):
                    self.session.check(name, fn)
            self.book.save()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return self._result(tracer, peak_rss_mb)

    def _setup(self):
        """Set up the inputs, check their digests, then repeat the set-up
        ``setup_repeats - 1`` more times for timing only."""
        inputs = self._setup_once(self.workdir / "setup")
        self.session.check("setup-digests", lambda: self.book.compare(
            "setup", checks.digests(self.workdir / "setup")))
        for i in range(1, self.workload.setup_repeats):
            repeat_dir = self.workdir / f"setup-{i}"
            self._setup_once(repeat_dir)
            shutil.rmtree(repeat_dir)
        return inputs

    def _setup_once(self, setup_dir: Path):
        start = time.perf_counter()
        inputs = self.workload.setup(self.session, setup_dir, self.seed)
        self.setup_s.append(time.perf_counter() - start)
        return inputs

    def _run_unit(self, inputs, key: str, traced: bool) -> None:
        outdir = self.workdir / f"unit-{len(self.units)}"
        self.session.calls.clear()
        self.workload.run_unit(self.session, inputs, key, outdir)
        stage_s = dict.fromkeys(STAGE_KEYS, 0.0)
        for name, seconds in self.session.calls:
            stage_s[name] += seconds
        self.units.append(Unit(key, outdir, sum(stage_s.values()), stage_s, traced))
        self.session.check("digests", lambda: self.book.compare(key, checks.digests(outdir)))

    def _timed_loop(self, inputs) -> Tracer | None:
        """Run every unit key ``rounds`` times. The number of rounds follows
        from --seconds and the workload's nominal round length, never from
        the clock, so every run at the same --seconds measures the same work."""
        rounds = max(1, round(self.seconds / self.workload.round_s))
        keys = inputs.keys * rounds
        if not self.trace:
            for key in keys:
                self._run_unit(inputs, key, traced=False)
            return None
        # the untraced twin of the first traced unit gives the tracing
        # overhead and the traced-equals-untraced digest check
        self._run_unit(inputs, keys[0], traced=False)
        tracer = Tracer()
        self.session.tracer = tracer
        tracer.install(PROBES)
        try:
            for run_id, key in enumerate(keys):
                tracer.run = run_id
                self._run_unit(inputs, key, traced=True)
        finally:
            tracer.restore()
            self.session.tracer = None
        return tracer

    def _result(self, tracer, peak_rss_mb: float) -> dict:
        untraced = [u for u in self.units if not u.traced]
        stage_medians = {k: _median([u.stage_s[k] for u in untraced]) for k in STAGE_KEYS}
        end_to_end = {
            "wall_s": (_median([u.wall_s for u in untraced]), "s"),
            "setup_s": (_median(self.setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        ops = self.session.ops
        failed_frac = sum(1 for op in ops if not op.ok) / max(len(ops), 1)
        stages = {f"stage_{k}_s": (stage_medians[k], "s") for k in self.workload.reported_stages}
        per_layer, stage_self = {}, {}
        if tracer is not None:
            traced = [u for u in self.units if u.traced]
            traced_wall = sum(u.wall_s for u in traced)
            per_layer = layer_metrics(tracer)
            per_layer["trace.wall_s"] = (traced_wall, "s")
            per_layer["trace.overhead_frac"] = (traced[0].wall_s / untraced[0].wall_s - 1.0, "ratio")
            per_layer.update({f"stage.{k}_s": (untraced[0].stage_s[k], "s") for k in STAGE_KEYS})
            stage_self = {root[len(CLI_PREFIX):]: rows
                          for root, rows in tracer.self_by_root().items()}
            tracer_file = self.results / f"{self.tag}-spans.jsonl"
            with open(tracer_file, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.to_json()) + "\n")
        return {
            "workload": self.workload.name,
            "trace": self.trace,
            "environment": environment(self.root, self.seed),
            "units": [{"key": u.key, "wall_s": u.wall_s, "traced": u.traced,
                       "stage_s": u.stage_s} for u in self.units],
            "setup_runs_s": self.setup_s,
            "end_to_end": end_to_end,
            "failed_frac": (failed_frac, "ratio"),
            "stages": stages,
            "per_layer": per_layer,
            "traced_self_s_by_stage": stage_self,
            "attempted": len(ops),
            "failed": [op.__dict__ for op in self.session.failed],
            "known_failures": [op.__dict__ for op in self.session.known_failures],
        }
