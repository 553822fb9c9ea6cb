"""``paper-batch``: the library path at paper sizes, CPU-bound.

One caller, closed loop. Each round generates fresh AggChecker, TabFact
and WikiText bundles (392/100/50 claims) from seeds no earlier round
used, profiles the four methods on the first documents, derives the
Algorithm-10 schedule and verifies every document through
``repro.verify``. No simulated model latency and no response cache:
every claim pays its full CPU cost. Input generation runs between
rounds, off the clock. A job is one document; its latency runs from the
document's start to its last claim verdict. Rates, CPU and spend per
claim are medians over the rounds of a run.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time

import repro
from repro.core import VerificationObserver, optimal_schedule, profile_methods
from repro.datasets import build_aggchecker, build_tabfact, build_wikitext
from repro.experiments.common import build_cedar, reset_claims
from repro.metrics import ConfusionCounts, score_claims
from repro.sqlengine import engine_stats

from . import layers
from .common import (Outcome, quantile, run_record, self_peak_rss_mb, share,
                     verdict_digest)
from .probe import NullProbe, Probe
from .setup_time import measure_setup

LATENCY_SCALE = 0.0
REGIME = "cpu-bound"
ACCURACY = 0.99
PROFILE_DOCS = 3
BUILDERS = (("aggchecker", build_aggchecker), ("tabfact", build_tabfact),
            ("wikitext", build_wikitext))
#: Sizes for the self-tests; the default is each builder's paper size.
TINY = {"aggchecker": {"document_count": 4, "total_claims": 16},
        "tabfact": {"table_count": 3, "total_claims": 9},
        "wikitext": {"document_count": 3, "total_claims": 9}}
#: Round index of the off-clock warm-up round (never measured).
WARMUP_ROUND = 10_000


def make_round(seed: int, index: int, tiny: bool) -> list:
    """Fresh bundles for round ``index``: seeds unique per (seed, round)."""
    first = (seed * 100_000 + index) * len(BUILDERS)
    return [
        (name, builder(seed=first + offset, **(TINY[name] if tiny else {})))
        for offset, (name, builder) in enumerate(BUILDERS)
    ]


class _Timeline(VerificationObserver):
    """Per-document verdict times and per-claim resolution counts."""

    def __init__(self, document_of: dict[str, str], probe, tag: str) -> None:
        self.document_of = document_of
        self.probe = probe
        self.tag = tag
        self.started: dict[str, float] = {}
        self.first: dict[str, float] = {}
        self.last: dict[str, float] = {}
        self.resolved: Counter = Counter()

    def document_started(self, document) -> None:
        self.probe.attribute(f"{self.tag}/{document.doc_id}")
        self.started[document.doc_id] = perf_counter()

    def claim_resolved(self, claim, report) -> None:
        now = perf_counter()
        document = self.document_of[claim.claim_id]
        self.first.setdefault(document, now)
        self.last[document] = now
        self.resolved[claim.claim_id] += 1


@dataclass
class Window:
    """Totals over the rounds of one measuring window."""

    rounds: int = 0
    wall: float = 0.0
    gen_cpu: float = 0.0
    claims: int = 0
    documents: int = 0
    failed_documents: int = 0
    attempts: int = 0
    cost: float = 0.0
    calls: int = 0
    tokens: int = 0
    retries: int = 0
    counts: ConfusionCounts = field(
        default_factory=lambda: ConfusionCounts(0, 0, 0, 0))
    #: Per round: claims/s, documents/s, CPU ms and USD per claim.
    round_claims_per_s: list[float] = field(default_factory=list)
    round_jobs_per_s: list[float] = field(default_factory=list)
    round_cpu_ms: list[float] = field(default_factory=list)
    round_usd: list[float] = field(default_factory=list)
    job_ms: list[float] = field(default_factory=list)
    first_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: Per-document verdict digests of the window's first round.
    first_digests: dict[str, str] = field(default_factory=dict)


def verify_round(bundles: list, system_seed: int, probe, tag: str,
                 window: Window) -> dict[str, str]:
    """Profile, schedule and verify each bundle; returns verdict digests."""
    digests: dict[str, str] = {}
    for name, bundle in bundles:
        system = build_cedar(bundle, seed=system_seed)
        with probe.context(phase="profile"), probe.span("core.profile"):
            profiles = profile_methods(
                system.methods, bundle.documents[:PROFILE_DOCS], system.ledger,
            )
            planned = optimal_schedule(profiles, ACCURACY)
        reset_claims(bundle.documents)
        document_of = {claim.claim_id: document.doc_id
                       for document in bundle.documents
                       for claim in document.claims}
        timeline = _Timeline(document_of, probe, tag)
        with probe.context(job=f"{tag}/{name}", phase="verify"):
            run = repro.verify(
                bundle.documents, schedule=system.entries_for(planned),
                config=repro.VerifierConfig(ledger=system.ledger),
                observer=timeline,
            )
        claims = [claim for document in bundle.documents
                  for claim in document.claims]
        window.claims += len(claims)
        window.documents += len(bundle.documents)
        window.counts = _add_counts(window.counts, score_claims(claims))
        totals = system.ledger.totals()
        window.cost += totals.cost
        window.calls += totals.calls
        window.tokens += totals.total_tokens
        window.retries += system.ledger.retry_count
        window.attempts += sum(report.attempts
                               for report in run.reports.values())
        for document in bundle.documents:
            key = f"{name}/{document.doc_id}"
            bad = [claim.claim_id for claim in document.claims
                   if timeline.resolved[claim.claim_id] != 1
                   or claim.correct is None]
            if bad or document.doc_id not in timeline.last:
                window.failed_documents += 1
                window.problems.append(
                    f"{tag}/{key}: claims without exactly one verdict: {bad}")
                continue
            started = timeline.started[document.doc_id]
            window.job_ms.append(
                1000 * (timeline.last[document.doc_id] - started))
            window.first_ms.append(
                1000 * (timeline.first[document.doc_id] - started))
            digests[key] = verdict_digest({
                claim.claim_id: "correct" if claim.correct else "incorrect"
                for claim in document.claims
            })
    return digests


def _add_counts(left: ConfusionCounts, right: ConfusionCounts):
    return ConfusionCounts(left.tp + right.tp, left.fp + right.fp,
                           left.fn + right.fn, left.tn + right.tn)


def measure(seed: int, seconds: float, first_round: int, tiny: bool,
            probe) -> Window:
    """Rounds until ``seconds`` of verification wall time have passed."""
    window = Window()
    index = first_round
    while window.rounds == 0 or window.wall < seconds:
        started = process_time()
        with probe.context(phase="input"):
            bundles = make_round(seed, index, tiny)
        window.gen_cpu += process_time() - started
        claims0, documents0, cost0 = (window.claims, window.documents,
                                      window.cost)
        cpu0 = process_time()
        wall0 = perf_counter()
        digests = verify_round(bundles, seed + index, probe, f"r{index}",
                               window)
        wall = perf_counter() - wall0
        cpu = process_time() - cpu0
        window.wall += wall
        claims = window.claims - claims0
        window.round_claims_per_s.append(claims / wall)
        window.round_jobs_per_s.append((window.documents - documents0) / wall)
        window.round_cpu_ms.append(1000 * cpu / claims)
        window.round_usd.append((window.cost - cost0) / claims)
        if window.rounds == 0:
            window.first_digests = digests
        window.rounds += 1
        index += 1
    return window


def check_reference(seed: int, first_round: int, tiny: bool,
                    window: Window) -> None:
    """Re-verify the window's first round off the clock; digests must match."""
    reference = verify_round(make_round(seed, first_round, tiny),
                             seed + first_round, NullProbe(), "reference",
                             Window())
    for key, digest in window.first_digests.items():
        if reference.get(key) != digest:
            window.failed_documents += 1
            window.problems.append(
                f"r{first_round}/{key}: verdict digest {digest} differs "
                f"from the reference {reference.get(key)}")


def warm_up(seed: int) -> None:
    """Lazy imports and engine warm-up, on tiny inputs, off the clock."""
    verify_round(make_round(seed, WARMUP_ROUND, tiny=True), seed,
                 NullProbe(), "warmup", Window())


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    outcome = Outcome(
        record=run_record("paper-batch", seed, seconds, trace,
                          LATENCY_SCALE, REGIME),
        attempted=0, failed=0,
    )
    if not trace:
        outcome.add("setup_s", measure_setup("paper-batch", seed), "s")
    warm_up(seed)
    budget = seconds / 2 if trace else seconds
    window = measure(seed, budget, 0, tiny, NullProbe())
    check_reference(seed, 0, tiny, window)
    cpu_ms_per_claim = statistics.median(window.round_cpu_ms)
    outcome.record["verdict_digest"] = verdict_digest(window.first_digests)
    outcome.record["rounds"] = window.rounds
    if trace:
        probe = Probe().install()
        engine_before = engine_stats()
        try:
            traced = measure(seed, budget, window.rounds, tiny, probe)
        finally:
            probe.uninstall()
        engine_delta = layers.numeric_delta(engine_before, engine_stats())
        _add_layer_metrics(outcome, traced, probe, engine_delta)
        layers.add_overhead(outcome, cpu_ms_per_claim,
                            statistics.median(traced.round_cpu_ms))
        outcome.trace = probe
        windows = [window, traced]
    else:
        windows = [window]
    for measured in windows:
        outcome.attempted += measured.documents
        outcome.failed += measured.failed_documents
        outcome.problems += measured.problems
    # Rates, CPU and spend per claim are medians over rounds: a burst of
    # machine noise or one unusual bundle moves a few rounds, not the
    # median.
    outcome.add("claims_per_s", statistics.median(window.round_claims_per_s),
                "claims/s")
    outcome.add("jobs_per_s", statistics.median(window.round_jobs_per_s),
                "jobs/s")
    outcome.add("cpu_ms_per_claim", cpu_ms_per_claim, "ms")
    outcome.add("job_p50_ms", quantile(window.job_ms, 0.5), "ms")
    outcome.add("job_p95_ms", quantile(window.job_ms, 0.95), "ms")
    outcome.add("first_verdict_p50_ms", quantile(window.first_ms, 0.5), "ms")
    outcome.add("usd_per_claim", statistics.median(window.round_usd), "USD")
    outcome.add("f1", window.counts.f1, "ratio")
    outcome.add("peak_rss_mb", self_peak_rss_mb(), "MB")
    return outcome


def _add_layer_metrics(outcome: Outcome, window: Window, probe: Probe,
                       engine_delta: dict) -> None:
    summary = probe.summary()
    claims = window.claims
    layers.add_probe_metrics(outcome, summary, claims)
    layers.add_engine_metrics(outcome, engine_delta)
    layers.add_llm_cache_metrics(outcome, None)
    profile = summary.get("core.profile@profile", {})
    outcome.add("core.profile_ms",
                1000 * share(profile.get("wall", 0.0), window.rounds), "ms")
    outcome.add("core.attempts_per_claim", share(window.attempts, claims),
                "attempts")
    outcome.add("llm.calls_per_claim", share(window.calls, claims), "calls")
    outcome.add("llm.tokens_per_claim", share(window.tokens, claims), "tokens")
    outcome.add("llm.retries", window.retries, "count")
    outcome.add("llm.sleep_ms_per_job", 0.0, "ms")
    outcome.add("bench.gen_cpu_ms", 1000 * window.gen_cpu, "ms")
    for name, unit in (("service.batch_jobs_mean", "jobs"),
                       ("service.rejections", "count"),
                       ("cluster.shard_skew", "ratio"),
                       ("cluster.worker_restarts", "count")):
        outcome.add(name, 0, unit)
