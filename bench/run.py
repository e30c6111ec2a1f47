"""Benchmark of the segdyn CLI pipeline.

    python3 bench/run.py --workload lorenz-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The segdyn sources under src/ are imported
directly, so nothing needs installing. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). The full result, with the environment record, is
written to bench/_results/.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length: it sets how many rounds of units run "
                             "(at least one), from each workload's nominal round length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_segdyn() -> None:
    src = ROOT / "src"
    if not (src / "segdyn" / "cli.py").is_file():
        raise SystemExit(f"error: segdyn sources not found under {src}")
    sys.path.insert(0, str(src))
    import segdyn

    if Path(segdyn.__file__).resolve().parent != src / "segdyn":
        raise SystemExit(f"error: imported segdyn from {segdyn.__file__}, not from {src}")


def _fmt(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:>16.6g} {unit}"


def main(argv=None) -> int:
    args = _parse(argv)
    _import_segdyn()
    from segbench.harness import Run
    from segbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT)
    result = Run(ROOT, workload, args.seed, args.seconds, bool(args.trace)).execute()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(BENCH / "_results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    failed = result["failed"]
    print(f"{args.workload} seed {args.seed}: {len(result['units'])} units, "
          f"{result['attempted']} operations, {len(failed)} failed, "
          f"{len(result['known_failures'])} known defects")
    for name, (value, unit) in {**result["end_to_end"], "failed_frac": result["failed_frac"],
                                **result["stages"]}.items():
        print(_fmt(name, value, unit))
    for op in result["known_failures"]:
        print(f"  known defect ({op['known']}): {op['name']}: {op['message']}")
    for op in failed:
        print(f"  FAILED {op['name']}: {op['message']}")
    if args.trace:
        layers = result["per_layer"]
        for name, (value, unit) in layers.items():
            print(_fmt(name, value, unit))
        self_sum = sum(v for k, (v, _) in layers.items()
                       if k.count(".") == 1 and k.endswith(".self_s"))
        print(f"  layer self times + cli.self_s = {self_sum:.6g} s of traced wall_s "
              f"{layers['trace.wall_s'][0]:.6g} s")
        for stage, rows in result["traced_self_s_by_stage"].items():
            total = sum(rows.values())
            top = sorted(rows.items(), key=lambda kv: -kv[1])[:3]
            print(f"  traced {stage} {total:.4g} s: " + ", ".join(
                f"{name} {100 * v / total:.0f}%" for name, v in top))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": not failed,
        "attempted": result["attempted"],
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
