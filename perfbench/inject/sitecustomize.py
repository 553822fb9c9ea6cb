"""Layer probe for every Python process of a traced cluster run.

``cluster_cpu`` puts this directory first on ``PYTHONPATH`` and sets
``PERFBENCH_SPANS`` when it launches ``python -m repro.cluster`` with
tracing; Python imports ``sitecustomize`` at start-up, so the router
and each worker it spawns install the probe before the program runs
and write their spans to ``$PERFBENCH_SPANS/spans-<pid>.jsonl`` when
they exit. Without the variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_SPANS"):
    import atexit
    from pathlib import Path

    from perfbench.probe import Probe

    _probe = Probe().install()
    atexit.register(
        lambda: _probe.dump(Path(os.environ["PERFBENCH_SPANS"])
                            / f"spans-{os.getpid()}.jsonl")
    )
