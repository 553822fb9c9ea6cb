"""``service-hot``: the in-process service, latency-bound, open loop.

A ``VerificationService`` with a ``ServiceApp`` in front of it, the way
``python -m repro.service`` wires them, takes jobs through
``ServiceApp.submit`` (the route ``POST /v1/verify`` calls). Model calls
sleep a scaled share of their simulated latency, installed through the
app's ``client_wrapper`` hook under the shared response cache.

One generator thread submits on a seeded Poisson schedule at
:data:`RATE` jobs/s, below saturation, drawing documents Zipf-like from
the default served datasets (see :func:`arrivals`) across
:data:`CLIENTS` client ids. Each
job's latency runs from the moment it was due. Hot documents share
work: their model calls hit the shared caches, which are smaller than
the working set, so cold documents keep missing and evicting.

Few-shot sample harvesting is off (``use_samples=False``): its re-pass
draws at retry temperature differ between submissions of one document,
and the output check compares every job against a reference verdict.
"""

from __future__ import annotations

import random
import time
from time import perf_counter, process_time, thread_time

from repro.llm.base import DelegatingLLMClient
from repro.service import ServiceConfig, VerificationService
from repro.service.http import ServiceApp
from repro.sqlengine import engine_stats

from . import jobs as served
from . import layers
from .common import Outcome, quantile, run_record, self_peak_rss_mb, share
from .probe import NullProbe, Probe
from .setup_time import measure_setup

LATENCY_SCALE = 0.02
REGIME = "latency-bound"
RATE = 25.0                 # jobs per second, offered
CLIENTS = 64
ZIPF_EXPONENT = 1.0
CYCLE = 100                 # jobs per popularity cycle
WARMUP_SECONDS = 3.0
#: Response-cache entries: below the working set of the 25 served
#: documents, so the cold tail keeps missing.
CACHE_SIZE = 160
#: Batch-runner threads: batches of different documents run side by
#: side, so one cold document does not hold up the hot ones.
DISPATCHERS = 4


class ScaledLatencyClient(DelegatingLLMClient):
    """Sleeps ``scale`` times each completion's simulated latency."""

    def __init__(self, inner, scale: float, slot: "_ProbeSlot") -> None:
        super().__init__(inner)
        self.scale = scale
        self.slot = slot

    def complete(self, prompt: str, temperature: float = 0.0):
        response = self.inner.complete(prompt, temperature)
        with self.slot.probe.span("llm.sleep"):
            time.sleep(response.latency_seconds * self.scale)
        return response


class _ProbeSlot:
    """The probe the latency wrapper records into (swapped when traced)."""

    probe = NullProbe()


def start_service(scale: float = LATENCY_SCALE,
                  slot: _ProbeSlot | None = None):
    """The service and app as ``python -m repro.service`` wires them,
    plus the benchmark's choices: :data:`DISPATCHERS` dispatchers, a
    cache below the working set, no sample harvesting and simulated
    latency."""
    service = VerificationService(ServiceConfig(
        max_queue_depth=64, per_client_limit=8, max_batch_jobs=8,
        batch_window=0.05, workers=4, dispatchers=DISPATCHERS,
        cache_size=CACHE_SIZE, use_samples=False,
    )).start()
    slot = slot if slot is not None else _ProbeSlot()
    wrapper = ((lambda client: ScaledLatencyClient(client, scale, slot))
               if scale > 0 else None)
    return service, ServiceApp(service, seed=served.SERVICE_SEED,
                               client_wrapper=wrapper)


def warm_up(app: ServiceApp) -> None:
    """Build every served dataset and verify one document of each."""
    for name in app.datasets:
        app.warm(name)
        status, body = app.submit({"dataset": name, "document": 0})
        if status != 202:
            raise RuntimeError(f"warm-up job rejected: {body}")
        list(app.service.job(body["job_id"]).events(timeout=60))


def reference_digests() -> dict[tuple[str, int], str]:
    """One verdict digest per served document, from a latency-free twin."""
    service, app = start_service(scale=0.0)
    try:
        digests = {}
        for name, index in served.served_documents():
            status, body = app.submit({"dataset": name, "document": index})
            if status != 202:
                raise RuntimeError(f"reference job rejected: {body}")
            events = [event.to_dict() for event in
                      service.job(body["job_id"]).events(timeout=60)]
            digests[(name, index)] = served.digest_of(events)
    finally:
        service.shutdown(drain=True)
    return digests


class Phase:
    """One open-loop phase: submissions, rejections and generator costs."""

    def __init__(self) -> None:
        self.submitted: list[tuple[str, int, float, object]] = []
        self.rejected = 0
        self.lags: list[float] = []
        self.gen_cpu = 0.0
        self.start_wall = 0.0
        self.cpu = 0.0


def arrivals(rng: random.Random, seconds: float) -> list[tuple[float, tuple]]:
    """Due times and documents for one phase.

    A Poisson process conditioned on its count: ``RATE * seconds``
    arrivals at sorted uniform times. Documents come from repeated
    shuffled cycles of :data:`CYCLE` jobs in which each document appears
    in proportion to its Zipf weight, so every phase of a given length
    sees the same popularity mix and the seed sets only the order.
    """
    documents = served.served_documents()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(documents))]
    cycle = [document for document, weight in zip(documents, weights)
             for _ in range(max(1, round(CYCLE * weight / sum(weights))))]
    count = max(1, round(RATE * seconds))
    drawn: list[tuple] = []
    while len(drawn) < count:
        drawn += rng.sample(cycle, len(cycle))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return list(zip(times, drawn))


def drive(app: ServiceApp, rng: random.Random, seconds: float) -> Phase:
    """Submit on the phase's schedule, then wait for every job."""
    schedule = arrivals(rng, seconds)
    phase = Phase()
    submit_cpu = 0.0
    gen_cpu0 = thread_time()
    cpu0 = process_time()
    start = perf_counter()
    phase.start_wall = time.time()
    for due, (name, index) in schedule:
        delay = start + due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.lags.append(perf_counter() - start - due)
        client = f"client-{rng.randrange(CLIENTS)}"
        submit_cpu0 = thread_time()
        status, body = app.submit({"dataset": name, "document": index,
                                   "client_id": client})
        submit_cpu += thread_time() - submit_cpu0
        if status == 202:
            handle = app.service.job(body["job_id"])
            phase.submitted.append((name, index, phase.start_wall + due,
                                    handle))
        else:
            phase.rejected += 1
    # The generator's own CPU: its thread's, less the program's work
    # inside ``ServiceApp.submit``.
    phase.gen_cpu = thread_time() - gen_cpu0 - submit_cpu
    for *_, handle in phase.submitted:
        handle.wait(timeout=60)
    phase.cpu = process_time() - cpu0 - phase.gen_cpu
    return phase


def check(phase: Phase, references: dict) -> list[served.JobCheck]:
    checked = []
    for name, index, due, handle in phase.submitted:
        events = [event.to_dict() for event in handle.events(timeout=60)]
        job = served.check_job(name, index, due, events)
        if job.ok and job.digest != references[(name, index)]:
            job.ok = False
            job.problem = (f"{name}[{index}] verdict digest {job.digest} "
                           f"differs from the reference "
                           f"{references[(name, index)]}")
        checked.append(job)
    return checked


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    outcome = Outcome(
        record=run_record("service-hot", seed, seconds, trace,
                          LATENCY_SCALE, REGIME),
        attempted=0, failed=0,
    )
    outcome.record.update(rate_jobs_per_s=RATE, clients=CLIENTS,
                          cache_size=CACHE_SIZE, dispatchers=DISPATCHERS)
    if not trace:
        outcome.add("setup_s", measure_setup("service-hot", seed), "s")
    references = reference_digests()
    labels = served.served_labels()
    slot = _ProbeSlot()
    service, app = start_service(slot=slot)
    rng = random.Random(seed)
    # A traced run measures untraced, traced, untraced (a quarter, half
    # and quarter of its seconds): per-job cost drifts with the
    # service's uptime, and the two untraced quarters bracket the drift.
    budget = seconds / 4 if trace else seconds
    measured: list[tuple[Phase, list[served.JobCheck]]] = []
    try:
        warm_up(app)
        drive(app, rng, 0.5 if tiny else WARMUP_SECONDS)
        phase = drive(app, rng, budget)
        measured.append((phase, check(phase, references)))
        if trace:
            probe = slot.probe = Probe().install()
            before = _snapshot(service)
            try:
                phase = drive(app, rng, 2 * budget)
            finally:
                probe.uninstall()
            after = _snapshot(service)
            traced = (phase, check(phase, references))
            phase = drive(app, rng, budget)
            measured += [traced, (phase, check(phase, references))]
            untraced_cpu = _cpu_ms_per_claim(
                measured[0][0].cpu + phase.cpu,
                measured[0][1] + measured[2][1])
            _add_layer_metrics(outcome, service, *traced, probe,
                               before, after, untraced_cpu)
            outcome.trace = probe
    finally:
        service.shutdown(drain=True)
    for phase, checked in measured:
        outcome.attempted += len(phase.submitted) + phase.rejected
        outcome.failed += phase.rejected + sum(not job.ok for job in checked)
        outcome.problems += [job.problem for job in checked if not job.ok]
    phase, checked = measured[0]
    served.add_job_metrics(outcome, checked, labels, phase.start_wall)
    outcome.add("cpu_ms_per_claim", _cpu_ms_per_claim(phase.cpu, checked),
                "ms")
    outcome.add("peak_rss_mb", self_peak_rss_mb(), "MB")
    return outcome


def _cpu_ms_per_claim(cpu: float, checked: list[served.JobCheck]) -> float:
    return 1000 * share(cpu, sum(job.claims for job in checked if job.ok))


def _snapshot(service: VerificationService) -> tuple:
    """Engine, response-cache and batch counters, for window deltas."""
    return engine_stats(), service.cache.stats, service.stats().batches


def _add_layer_metrics(outcome: Outcome, service, phase: Phase,
                       checked: list[served.JobCheck], probe: Probe,
                       before: tuple, after: tuple,
                       untraced_cpu: float) -> None:
    good = [job for job in checked if job.ok]
    claims = sum(job.claims for job in good)
    summary = probe.summary()
    layers.add_probe_metrics(outcome, summary, claims)
    layers.add_engine_metrics(outcome,
                              layers.numeric_delta(before[0], after[0]))
    layers.add_llm_cache_metrics(outcome, (after[1] - before[1]).to_dict())
    served.add_served_layer_metrics(outcome, checked)
    batches = layers.numeric_delta(before[2], after[2])
    outcome.add("service.batch_jobs_mean",
                share(batches["jobs"], batches["count"]), "jobs")
    outcome.add("service.rejections", phase.rejected, "count")
    sleep = summary.get("llm.sleep", {})
    outcome.add("llm.sleep_ms_per_job",
                1000 * share(sleep.get("wall", 0.0), len(good)), "ms")
    outcome.add("llm.retries", service.ledger.retry_count, "count")
    outcome.add("bench.gen_lag_p99_ms",
                1000 * quantile(phase.lags, 0.99), "ms")
    outcome.add("bench.gen_cpu_ms", 1000 * phase.gen_cpu, "ms")
    outcome.add("cluster.shard_skew", 0, "ratio")
    outcome.add("cluster.worker_restarts", 0, "count")
    layers.add_overhead(outcome, untraced_cpu,
                        _cpu_ms_per_claim(phase.cpu, checked))
    served.record_job_spans(probe, good)
