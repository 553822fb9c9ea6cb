"""``cluster-cpu``: ``python -m repro.cluster --workers 2``, CPU-bound.

The cluster runs as users launch it: a router and two worker processes,
at zero model latency, driven over HTTP. Two client threads, each on its
own keep-alive connection, loop in a closed loop: ``POST /v1/verify``,
then follow the job's ndjson event stream to its terminal event. Client
``k`` owns every second document of the default profile and cycles
through them, each pass in an order drawn from the benchmark's seed, so
no document is ever in flight twice.

The output check replays, off the clock, each document's exact sequence
of submissions against an in-process ``ServiceApp`` with the same
service seed:
the workers keep few-shot sample harvesting on, whose retry-temperature
draws depend on how often a document was verified before, and routing
pins each document to one shard, so the n-th verdict for a document must
equal the n-th verdict the single process gives.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

from repro.service import ServiceConfig, VerificationService
from repro.service.http import ServiceApp

from . import jobs as served
from . import layers
from .common import (OUT, ROOT, Outcome, child_env, child_pids,
                     process_cpu_seconds, process_peak_rss_mb, quantile,
                     run_record, share)
from .probe import Probe, load_spans

LATENCY_SCALE = 0.0
REGIME = "cpu-bound"
WORKERS = 2
CLIENTS = 2
SETUP_SAMPLES = 3
INJECT = Path(__file__).resolve().parent / "inject"


class Cluster:
    """One ``python -m repro.cluster`` process tree, ready to serve."""

    def __init__(self, spans: Path | None = None) -> None:
        env = child_env([INJECT, ROOT] if spans is not None else None)
        if spans is not None:
            spans.mkdir(parents=True, exist_ok=True)
            env["PERFBENCH_SPANS"] = str(spans)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster", "--workers",
             str(WORKERS), "--port", "0", "--seed", str(served.SERVICE_SEED)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = self.process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)/", banner)
            if match is None:
                raise RuntimeError(f"cluster did not start: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = perf_counter() + timeout
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=10)
        try:
            while True:
                status, _ = request(connection, "GET", "/v1/readyz")
                if status == 200:
                    return
                if perf_counter() > deadline:
                    raise TimeoutError("cluster never became ready")
                time.sleep(0.02)
        finally:
            connection.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def stats(self) -> dict:
        connection = self.connect()
        try:
            status, body = request(connection, "GET", "/v1/stats")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def pids(self) -> list[int]:
        return [self.process.pid, *child_pids(self.process.pid)]

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait for every process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def request(connection: http.client.HTTPConnection, method: str, path: str,
            body: dict | None = None) -> tuple[int, bytes]:
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


class Client(threading.Thread):
    """One closed-loop caller over its own connection and documents."""

    def __init__(self, cluster: Cluster, index: int,
                 documents: list[tuple[str, int]], rng: random.Random,
                 seconds: float | None) -> None:
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.connection = cluster.connect()
        self.client_id = f"client-{index}"
        self.documents = documents
        self.rng = rng
        self.seconds = seconds
        self.jobs: list[served.JobCheck] = []
        self.rejected = 0
        self.submit_ms: list[float] = []
        self.cpu = 0.0
        self.error: BaseException | None = None

    def run(self) -> None:
        """One pass over the documents, or passes until ``seconds`` end.

        Every pass visits the client's documents in a fresh seeded
        order, so which documents the two clients run side by side (and
        on which shards) varies over the window instead of repeating.
        """
        cpu0 = thread_time()
        try:
            deadline = perf_counter() + (self.seconds or 0.0)
            while True:
                for name, index in self.rng.sample(self.documents,
                                                   len(self.documents)):
                    if self.seconds is not None \
                            and perf_counter() >= deadline:
                        return
                    self.one_job(name, index)
                if self.seconds is None:
                    return
        except BaseException as error:  # re-raised by drive()
            self.error = error
        finally:
            self.connection.close()
            self.cpu = thread_time() - cpu0

    def one_job(self, name: str, index: int) -> None:
        due = time.time()
        started = perf_counter()
        status, body = request(self.connection, "POST", "/v1/verify", {
            "dataset": name, "document": index, "client_id": self.client_id,
        })
        submitted = perf_counter()
        if status != 202:
            self.rejected += 1
            return
        url = json.loads(body)["events_url"] + "?wait=1&timeout=60"
        status, stream = request(self.connection, "GET", url)
        finished = perf_counter()
        events = [json.loads(line) for line in stream.splitlines() if line]
        job = served.check_job(name, index, due, events)
        job.job_ms = 1000 * (finished - started)
        self.submit_ms.append(1000 * (submitted - started))
        self.jobs.append(job)


def drive(cluster: Cluster, rng: random.Random,
          seconds: float | None) -> list[Client]:
    """One pass over every document (``None``) or a timed closed loop.

    Client ``k`` owns every CLIENTS-th served document, so no document
    is ever in flight twice.
    """
    documents = served.served_documents()
    clients = [Client(cluster, index, documents[index::CLIENTS],
                      random.Random(rng.random()), seconds)
               for index in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=(seconds or 0) + 120)
        if client.is_alive() or client.error is not None:
            raise RuntimeError(f"{client.name} failed: {client.error!r}")
    return clients


def launch(rng: random.Random, spans: Path | None = None
           ) -> tuple[Cluster, float, list[Client]]:
    """Start a cluster and warm it: one pass over every document."""
    started = perf_counter()
    cluster = Cluster(spans)
    try:
        warm = drive(cluster, rng, None)
    except BaseException:
        cluster.stop()
        raise
    return cluster, perf_counter() - started, warm


class Window:
    """A timed closed-loop window with the process counters around it."""

    def __init__(self, cluster: Cluster, rng: random.Random,
                 seconds: float) -> None:
        pids = cluster.pids()
        self.stats_before = cluster.stats()
        cpu_before = {pid: process_cpu_seconds(pid) for pid in pids}
        self.start_wall = time.time()
        self.start = perf_counter()
        self.clients = drive(cluster, rng, seconds)
        self.end = perf_counter()
        self.cpu = {pid: process_cpu_seconds(pid) - cpu_before[pid]
                    for pid in pids}
        self.router = cluster.process.pid
        self.stats_after = cluster.stats()
        self.peak_rss_mb = sum(process_peak_rss_mb(pid) for pid in pids)
        self.jobs = [job for client in self.clients for job in client.jobs]
        self.good = [job for job in self.jobs if job.ok]
        self.claims = sum(job.claims for job in self.good)

    def cpu_ms_per_claim(self) -> float:
        return 1000 * share(sum(self.cpu.values()), self.claims)


def sequences(warm: list[Client], window: Window) -> dict:
    """Each document's jobs in submission order, warm pass first.

    Entries are ``(digest, measured)``; a job that failed its own check
    keeps its place (it still drew from the models) with digest None.
    """
    per_document: dict[tuple[str, int], list] = defaultdict(list)
    for measured, clients in ((False, warm), (True, window.clients)):
        for client in clients:
            for job in client.jobs:
                per_document[(job.dataset, job.document)].append(
                    (job.digest if job.ok else None, measured))
    return per_document


def replay(observed: dict) -> list[tuple[bool, str]]:
    """Re-run every document's submissions in one process.

    Returns ``(measured, problem)`` for each job whose verdicts differ
    from the single-process run.
    """
    service = VerificationService(ServiceConfig(
        per_client_limit=1_000_000, batch_window=0.0,
    )).start()
    app = ServiceApp(service, seed=served.SERVICE_SEED)
    problems = []
    try:
        for (name, index), jobs in sorted(observed.items()):
            for position, (digest, measured) in enumerate(jobs):
                status, body = app.submit({"dataset": name,
                                           "document": index})
                if status != 202:
                    raise RuntimeError(f"replay job rejected: {body}")
                events = [event.to_dict() for event in
                          service.job(body["job_id"]).events(timeout=60)]
                expected = served.digest_of(events)
                if digest is not None and digest != expected:
                    problems.append((measured, (
                        f"{name}[{index}] submission {position + 1}: verdict "
                        f"digest {digest} differs from the single-process "
                        f"reference {expected}")))
    finally:
        service.shutdown(drain=True)
    return problems


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    outcome = Outcome(
        record=run_record("cluster-cpu", seed, seconds, trace,
                          LATENCY_SCALE, REGIME),
        attempted=0, failed=0,
    )
    outcome.record.update(workers=WORKERS, clients=CLIENTS)
    labels = served.served_labels()
    rng = random.Random(seed)
    if trace:
        budget = seconds / 2
        untraced, _setup = _measured_cluster(rng, budget, None, outcome)
        spans_dir = OUT / f"cluster-spans-seed{seed}"
        for stale in spans_dir.glob("spans-*.jsonl"):
            stale.unlink()
        window, _setup = _measured_cluster(rng, budget, spans_dir, outcome)
        _add_layer_metrics(outcome, window, spans_dir,
                           untraced.cpu_ms_per_claim())
        window = untraced
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            cluster, setup, _warm = launch(rng)
            cluster.stop()
            setups.append(setup)
        window, setup = _measured_cluster(rng, seconds, None, outcome)
        outcome.add("setup_s", statistics.median([*setups, setup]), "s")
    served.add_job_metrics(outcome, window.jobs, labels, window.start_wall)
    outcome.add("cpu_ms_per_claim", window.cpu_ms_per_claim(), "ms")
    outcome.add("peak_rss_mb", window.peak_rss_mb, "MB")
    return outcome


def _measured_cluster(rng: random.Random, seconds: float,
                      spans: Path | None,
                      outcome: Outcome) -> tuple[Window, float]:
    """Launch, warm, measure one window, stop, then check the outputs.

    Returns the window and the launch's set-up time.
    """
    cluster, setup, warm = launch(rng, spans)
    try:
        window = Window(cluster, rng, seconds)
    finally:
        cluster.stop()
    rejected = sum(client.rejected for client in window.clients)
    outcome.attempted += len(window.jobs) + rejected
    outcome.failed += rejected + sum(not job.ok for job in window.jobs)
    outcome.problems += [job.problem for job in window.jobs if not job.ok]
    outcome.problems += [f"warm pass: {job.problem}"
                         for client in warm for job in client.jobs
                         if not job.ok]
    mismatches = replay(sequences(warm, window))
    outcome.problems += [problem for _measured, problem in mismatches]
    outcome.failed += sum(measured for measured, _problem in mismatches)
    return window, setup


def _add_layer_metrics(outcome: Outcome, window: Window, spans_dir: Path,
                       untraced_cpu: float) -> None:
    probe = Probe()
    for number, path in enumerate(sorted(spans_dir.glob("spans-*.jsonl"))):
        probe.spans += [span for span in load_spans(path, (number + 1) << 40)
                        if window.start <= span[5] and span[6] <= window.end]
    summary = probe.summary()
    served.record_job_spans(probe, window.good)
    outcome.trace = probe
    claims = window.claims
    layers.add_probe_metrics(outcome, summary, claims)
    before = layers.numeric_sum(list(window.stats_before["workers"].values()))
    after = layers.numeric_sum(list(window.stats_after["workers"].values()))
    delta = layers.numeric_delta(before, after)
    layers.add_engine_metrics(outcome, delta.get("sql", {}))
    layers.add_llm_cache_metrics(outcome, delta.get("cache"))
    served.add_served_layer_metrics(outcome, window.jobs)
    good = window.good
    batches = delta.get("batches", {})
    outcome.add("service.batch_jobs_mean",
                share(batches.get("jobs", 0), batches.get("count", 0)), "jobs")
    outcome.add("service.rejections",
                sum(client.rejected for client in window.clients), "count")
    outcome.add("llm.retries", delta.get("ledger", {}).get("retries", 0),
                "count")
    routed = [after_shard["routed_total"] - before_shard["routed_total"]
              for after_shard, before_shard in zip(
                  window.stats_after["cluster"]["shards"].values(),
                  window.stats_before["cluster"]["shards"].values())]
    outcome.add("cluster.shard_skew",
                share(max(routed), statistics.mean(routed)), "ratio")
    outcome.add("cluster.worker_restarts",
                window.stats_after["cluster"]["restarts"]
                - window.stats_before["cluster"]["restarts"], "count")
    outcome.add("cluster.hop_p50_ms",
                quantile([job.job_ms - job.service_ms for job in good], 0.5),
                "ms")
    outcome.add("cluster.submit_p50_ms",
                quantile([ms for client in window.clients
                          for ms in client.submit_ms], 0.5), "ms")
    router_cpu = window.cpu[window.router]
    outcome.add("cluster.router_cpu_ms_per_job",
                1000 * share(router_cpu, len(good)), "ms")
    outcome.add("cluster.worker_cpu_ms_per_job",
                1000 * share(sum(window.cpu.values()) - router_cpu, len(good)),
                "ms")
    outcome.add("bench.gen_cpu_ms",
                1000 * sum(client.cpu for client in window.clients), "ms")
    outcome.add("llm.sleep_ms_per_job", 0.0, "ms")
    layers.add_overhead(outcome, untraced_cpu, window.cpu_ms_per_claim())
