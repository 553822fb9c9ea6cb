"""``setup_s``: program start until ready, in fresh interpreters.

Each sample spawns ``python3 -m perfbench.setup_time <workload> <seed>``,
which starts the program the way the workload uses it, runs the
workload's warm-up operations, reports the seconds it spent generating
inputs and exits. Set-up time is spawn to that report, minus input
generation; a run reports the median of :data:`SAMPLES`.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

from .common import ROOT, child_env

SAMPLES = 5


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SAMPLES):
        started = perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.setup_time", workload,
             str(seed)],
            cwd=ROOT, env=child_env([ROOT]), stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline()
            ready = perf_counter()
        finally:
            process.stdout.close()
            process.wait(timeout=60)
        if process.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {process.returncode})")
        samples.append(ready - started - json.loads(line)["input_s"])
    return statistics.median(samples)


def _paper_batch(seed: int) -> float:
    from . import paper_batch

    started = perf_counter()
    bundles = paper_batch.make_round(seed, paper_batch.WARMUP_ROUND, True)
    input_s = perf_counter() - started
    paper_batch.verify_round(bundles, seed, paper_batch.NullProbe(),
                             "warmup", paper_batch.Window())
    return input_s


def _service_hot(seed: int) -> float:
    from . import service_hot

    service, app = service_hot.start_service()
    try:
        service_hot.warm_up(app)
    finally:
        service.shutdown(drain=True)
    return 0.0


PROBES = {"paper-batch": _paper_batch, "service-hot": _service_hot}


if __name__ == "__main__":
    input_seconds = PROBES[sys.argv[1]](int(sys.argv[2]))
    print(json.dumps({"input_s": input_seconds}), flush=True)
