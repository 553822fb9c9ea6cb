"""Self-tests: tiny smoke runs and the output check catching a bad verdict."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3,
          seconds: float = 1.0) -> tuple[dict, list[str]]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = completed.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, lines = bench(workload, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    assert any(line.strip().startswith("failed_share") for line in lines)
    record = json.loads(lines[0].removeprefix("record "))
    assert record["seed"] == 3 and record["cpu_count"] >= 1
    assert {"python", "commit", "latency_scale", "regime"} <= set(record)


def test_paper_batch_digest_is_identical_for_a_seed():
    digests = set()
    for _ in range(2):
        _result, lines = bench("paper-batch", 0, seed=5, seconds=0.1)
        digests.add(json.loads(lines[0].removeprefix("record "))
                    ["verdict_digest"])
    assert len(digests) == 1


def test_paper_batch_check_flags_a_flipped_verdict():
    from perfbench import paper_batch
    from perfbench.probe import NullProbe

    window = paper_batch.measure(7, 0.0, 0, True, NullProbe())
    key = next(iter(window.first_digests))
    window.first_digests[key] = "flipped"
    paper_batch.check_reference(7, 0, True, window)
    assert window.failed_documents == 1
    assert window.failed_documents / window.documents > 0


class _Event:
    def __init__(self, payload: dict) -> None:
        self.payload = payload

    def to_dict(self) -> dict:
        return dict(self.payload)


class _Handle:
    def __init__(self, events: list[dict]) -> None:
        self._events = [_Event(event) for event in events]

    def events(self, timeout=None):
        return iter(self._events)


def _flip_first_verdict(events: list[dict]) -> list[dict]:
    flipped = [dict(event) for event in events]
    for event in flipped:
        if event["event"] == "claim_verdict":
            event["verdict"] = ("correct" if event["verdict"] == "incorrect"
                                else "incorrect")
            break
    return flipped


def test_served_check_flags_a_flipped_verdict():
    from perfbench import service_hot

    references = service_hot.reference_digests()
    service, app = service_hot.start_service(scale=0.0)
    try:
        status, body = app.submit({"dataset": "tabfact", "document": 1})
        assert status == 202
        events = [event.to_dict() for event in
                  service.job(body["job_id"]).events(timeout=60)]
    finally:
        service.shutdown(drain=True)
    honest = service_hot.Phase()
    honest.submitted = [("tabfact", 1, 0.0, _Handle(events))]
    assert all(job.ok for job in service_hot.check(honest, references))
    bad = service_hot.Phase()
    bad.submitted = [("tabfact", 1, 0.0, _Handle(events)),
                     ("tabfact", 1, 0.0, _Handle(_flip_first_verdict(events)))]
    checked = service_hot.check(bad, references)
    failed_share = sum(not job.ok for job in checked) / len(checked)
    assert failed_share == 0.5


def test_cluster_replay_flags_a_flipped_verdict():
    from perfbench import cluster_cpu

    honest = cluster_cpu.replay({("wikitext", 0): [(None, True)]})
    assert honest == []
    [(measured, problem)] = cluster_cpu.replay(
        {("wikitext", 0): [("flipped", True)]})
    assert measured and "differs" in problem
