"""Shared helpers: quantiles, process accounting, digests, run record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Trace files and scratch state; listed in the root ``.gitignore``.
OUT = ROOT / ".bench_out"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (the cluster router's workers)."""
    children: list[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            children.extend(int(part) for part in handle.read().split())
    return sorted(set(children))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verdict_digest(verdicts: dict[str, str]) -> str:
    """Order-independent digest of ``{claim key: verdict}``."""
    payload = json.dumps(sorted(verdicts.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def claim_key(claim_id: str) -> str:
    """A served claim id without its per-request clone tag.

    ``clone_document`` prefixes ids with ``r<seq>/``; the digest compares
    verdicts per underlying claim, so the tag is stripped.
    """
    head, _, rest = claim_id.partition("/")
    return rest if head.startswith("r") and head[1:].isdigit() else claim_id


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, check=False,
    )
    return result.stdout.strip() or "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: bool,
               latency_scale: float, regime: str) -> dict:
    """Everything needed to compare this result with another one."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "latency_scale": latency_scale,
        "regime": regime,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit(),
        "src_digest": source_digest(),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    record: dict
    attempted: int
    failed: int
    #: metric name -> (value, unit); a superset of what BENCHMARK.json
    #: lists, the rest is printed in the report only.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Output-check failures, one line each (empty means correct).
    problems: list[str] = field(default_factory=list)
    #: The traced run's probe, whose spans are written out at the end.
    trace: object | None = None

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def child_env(extra_path: list[Path] | None = None) -> dict[str, str]:
    """Environment for a program-under-test subprocess.

    Imports come from this checkout's ``src/``; temporary files (the
    cluster's worker sockets) stay inside the checkout when the path is
    short enough for a Unix socket.
    """
    env = dict(os.environ)
    paths = [str(path) for path in (extra_path or [])] + [str(SRC)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = OUT / "tmp"
    # mkdtemp adds ~24 characters and the socket name ~14; AF_UNIX
    # paths stop at 107 bytes.
    if len(str(tmp)) <= 64:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env
