"""Served jobs: the output check and per-job timings from event streams.

Both served workloads see a job as its event stream in wire form (the
dicts ``JobEvent.to_dict()`` produces, which is also what the HTTP
ndjson stream carries), so one checker serves the in-process service and
the cluster alike.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from repro.core import LABEL_KEY
from repro.service.http import DEFAULT_DATASETS

from .common import claim_key, quantile, share, verdict_digest

TERMINAL = {"job_done", "job_failed", "job_cancelled", "worker_lost"}
#: The served program's own seed (its simulated models' draws): the
#: default of ``python -m repro.service`` and ``python -m repro.cluster``.
#: The benchmark's seed shapes the traffic, not the models.
SERVICE_SEED = 0


@functools.cache
def _served_bundles() -> dict:
    """The default served datasets, built the way the program builds them."""
    return {name: build() for name, build in DEFAULT_DATASETS.items()}


def served_labels() -> dict[tuple[str, str], bool]:
    """Ground truth per (dataset, claim id) for the default served data."""
    return {(name, claim.claim_id): claim.metadata[LABEL_KEY]
            for name, bundle in _served_bundles().items()
            for document in bundle.documents
            for claim in document.claims}


def served_documents() -> list[tuple[str, int]]:
    """Every (dataset, index) of the default profile, datasets interleaved."""
    return sorted(((name, index)
                   for name, bundle in _served_bundles().items()
                   for index in range(len(bundle.documents))),
                  key=lambda item: (item[1], item[0]))


def digest_of(events: list[dict]) -> str:
    return verdict_digest({claim_key(event["claim_id"]): event["verdict"]
                           for event in events
                           if event["event"] == "claim_verdict"})


@dataclass
class JobCheck:
    """The measured and checked facts of one served job."""

    dataset: str
    document: int
    due: float                          # wall clock the job was due
    job_id: str = ""
    ok: bool = False
    problem: str = ""
    digest: str = ""
    job_ms: float = 0.0
    first_ms: float = 0.0
    queue_ms: float = 0.0
    run_ms: float = 0.0
    service_ms: float = 0.0             # JobDone.latency_seconds
    queued_at: float = 0.0
    started_at: float = 0.0
    first_at: float = 0.0
    done_at: float = 0.0
    claims: int = 0
    attempts: int = 0
    cost: float = 0.0
    calls: int = 0
    tokens: int = 0
    verdicts: dict[str, str] = field(default_factory=dict)


def check_job(dataset: str, document: int, due: float,
              events: list[dict]) -> JobCheck:
    """Exactly one terminal event, a job_done, and one verdict per claim."""
    job = JobCheck(dataset, document, due)
    kinds = Counter(event["event"] for event in events)
    terminal = [event for event in events if event["event"] in TERMINAL]
    accepted = [event["claim_id"] for event in events
                if event["event"] == "claim_accepted"]
    verdicts = [event for event in events if event["event"] == "claim_verdict"]
    if len(terminal) != 1 or terminal[0]["event"] != "job_done":
        job.problem = f"terminal events {[e['event'] for e in terminal]}"
        return job
    per_claim = Counter(event["claim_id"] for event in verdicts)
    if not accepted or per_claim != Counter(accepted):
        job.problem = (f"{len(accepted)} claims accepted, verdicts "
                       f"{dict(per_claim)}")
        return job
    done = terminal[0]
    stamps = {kind: next(e["ts"] for e in events if e["event"] == kind)
              for kind in ("job_queued", "job_started") if kinds[kind]}
    job.ok = True
    job.job_id = done["job_id"]
    job.queued_at = stamps.get("job_queued", due)
    job.started_at = stamps.get("job_started", due)
    job.first_at = min(e["ts"] for e in verdicts)
    job.digest = digest_of(events)
    job.done_at = done["ts"]
    job.job_ms = 1000 * (done["ts"] - due)
    job.first_ms = 1000 * (job.first_at - due)
    if len(stamps) == 2:
        job.queue_ms = 1000 * (stamps["job_started"] - stamps["job_queued"])
        job.run_ms = 1000 * (done["ts"] - stamps["job_started"])
    job.service_ms = 1000 * done.get("latency_seconds", 0.0)
    job.claims = len(accepted)
    job.attempts = sum(event.get("attempts", 0) for event in verdicts)
    spend = done.get("spend") or {}
    job.cost = spend.get("cost_usd", 0.0)
    job.calls = spend.get("llm_calls", 0)
    job.tokens = spend.get("tokens", 0)
    job.verdicts = {claim_key(e["claim_id"]): e["verdict"] for e in verdicts}
    return job


def f1(jobs: list[JobCheck], labels: dict) -> float:
    tp = fp = fn = 0
    for job in jobs:
        for claim, verdict in job.verdicts.items():
            flagged = verdict == "incorrect"
            wrong = not labels[(job.dataset, claim)]
            tp += flagged and wrong
            fp += flagged and not wrong
            fn += wrong and not flagged
    return share(2 * tp, 2 * tp + fp + fn)


def add_job_metrics(outcome, jobs: list[JobCheck], labels: dict,
                    window_start: float) -> None:
    """End-to-end metrics over completed, checked jobs."""
    good = [job for job in jobs if job.ok]
    claims = sum(job.claims for job in good)
    span = max((job.done_at for job in good), default=window_start) \
        - window_start
    outcome.add("claims_per_s", share(claims, span), "claims/s")
    outcome.add("jobs_per_s", share(len(good), span), "jobs/s")
    outcome.add("job_p50_ms", quantile([j.job_ms for j in good], 0.5), "ms")
    outcome.add("job_p95_ms", quantile([j.job_ms for j in good], 0.95), "ms")
    outcome.add("first_verdict_p50_ms",
                quantile([j.first_ms for j in good], 0.5), "ms")
    outcome.add("usd_per_claim",
                share(sum(job.cost for job in good), claims), "USD")
    outcome.add("f1", f1(good, labels), "ratio")


def add_served_layer_metrics(outcome, jobs: list[JobCheck]) -> None:
    """Per-layer facts every served job's events carry."""
    good = [job for job in jobs if job.ok]
    claims = sum(job.claims for job in good)
    outcome.add("core.attempts_per_claim",
                share(sum(job.attempts for job in good), claims), "attempts")
    outcome.add("llm.calls_per_claim",
                share(sum(job.calls for job in good), claims), "calls")
    outcome.add("llm.tokens_per_claim",
                share(sum(job.tokens for job in good), claims), "tokens")
    outcome.add("service.queue_wait_p50_ms",
                quantile([job.queue_ms for job in good], 0.5), "ms")
    outcome.add("service.queue_wait_p95_ms",
                quantile([job.queue_ms for job in good], 0.95), "ms")
    outcome.add("service.run_p50_ms",
                quantile([job.run_ms for job in good], 0.5), "ms")


def record_job_spans(probe, jobs: list[JobCheck]) -> None:
    """One span tree per job from its event timestamps.

    ``bench.job`` (due to done) is the root; ``service.queue_wait``,
    ``service.run`` and ``service.first_verdict`` are its children. Event
    times are wall clock; they are shifted onto the probe's clock.
    """
    offset = perf_counter() - time.time()
    for job in jobs:
        root = probe.record("bench.job", job.job_id, job.due + offset,
                            job.done_at + offset)
        for name, start, end in (
                ("service.queue_wait", job.queued_at, job.started_at),
                ("service.run", job.started_at, job.done_at),
                ("service.first_verdict", job.due, job.first_at)):
            probe.record(name, job.job_id, start + offset, end + offset,
                         parent=root)
