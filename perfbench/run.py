"""Benchmark command: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
layer probe and reports the per-layer metrics (``BENCHMARK.json`` lists
both). Human-readable report lines come first; the last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "paper-batch": "perfbench.paper_batch",
    "service-hot": "perfbench.service_hot",
    "cluster-cpu": "perfbench.cluster_cpu",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's self-tests)")
    return parser.parse_args(argv)


def result_line(outcome, spec: dict, trace: bool) -> dict:
    """The result object: the metrics BENCHMARK.json lists for the mode."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = outcome.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def report(outcome) -> None:
    print("record " + json.dumps(outcome.record, sort_keys=True))
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"  {name:<32} {value:>14.6g} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_share':<32} {share:>14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} jobs)")
    for problem in outcome.problems[:20]:
        print(f"  output check: {problem}")


def main(argv: list[str] | None = None) -> int:
    arguments = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: this checkout has no src/repro to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.common import OUT

    workload = importlib.import_module(WORKLOADS[arguments.workload])
    trace = bool(arguments.trace)
    outcome = workload.run(arguments.seed, arguments.seconds, trace,
                           arguments.tiny)
    report(outcome)
    if outcome.trace is not None:
        path = OUT / f"trace-{arguments.workload}-seed{arguments.seed}.jsonl"
        outcome.trace.dump(path)
        print(f"  spans: {len(outcome.trace.spans)} written to "
              f"{path.relative_to(ROOT)}")
    print(json.dumps(result_line(outcome, spec, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
