"""A telemetry sample costs the same after 5 jobs as after 50.

The service samples its telemetry window after every batch, and
``stats()``/``/v1/metrics`` read the cost ledger on every scrape. Those
reads must come from the ledger's running aggregates: if any of them
walked the entry history, per-job CPU would grow with uptime. Rather
than timing a soak (which flakes), this counts the per-entry work
directly — ``LedgerTotals.add`` calls and iterations of the ledger's
``entries``/``events`` lists — during one of each read, and requires
zero at both sizes.
"""

import pytest

from repro.core import ScheduleEntry, VerifierConfig
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar
from repro.llm import CostLedger, LedgerTotals
from repro.obs.metrics import ledger_metrics
from repro.service import ServiceConfig, VerificationService, clone_document


class _WatchedList(list):
    """A list that counts how often its contents are walked."""

    walks = 0

    def __iter__(self):
        _WatchedList.walks += 1
        return super().__iter__()

    def __getitem__(self, index):
        _WatchedList.walks += 1
        return super().__getitem__(index)


def _served(jobs):
    """A never-started service that ran ``jobs`` jobs inline."""
    bundle = build_aggchecker(document_count=2, total_claims=6)
    ledger = CostLedger()
    service = VerificationService(ServiceConfig(
        ledger=ledger, use_samples=False, cache_size=0,
        per_client_limit=jobs, max_queue_depth=jobs,
    ))
    system = build_cedar(bundle, seed=0,
                         config=VerifierConfig(ledger=ledger))
    schedule = [ScheduleEntry(method, 1) for method in system.methods[:3]]
    for index in range(jobs):
        document = bundle.documents[index % len(bundle.documents)]
        service.submit(clone_document(document, f"j{index}"), schedule)
    service.shutdown(drain=True)
    return service


@pytest.mark.parametrize("jobs", [5, 50])
def test_ledger_reads_do_no_per_entry_work(jobs, monkeypatch):
    service = _served(jobs)
    ledger = service.ledger
    assert len(ledger) >= 2 * jobs  # the history really grew with N

    adds = []
    original_add = LedgerTotals.add

    def counting_add(self, entry):
        adds.append(entry)
        original_add(self, entry)

    monkeypatch.setattr(LedgerTotals, "add", counting_add)
    monkeypatch.setattr(_WatchedList, "walks", 0)
    ledger.entries = _WatchedList(ledger.entries)
    ledger.events = _WatchedList(ledger.events)

    service.telemetry.sample()
    stats = service.stats()
    metrics = ledger_metrics(ledger)

    assert adds == []
    assert _WatchedList.walks == 0
    assert stats.ledger["calls"] == len(ledger)
    calls = next(m for m in metrics if m.name == "cedar_llm_calls_total")
    assert calls.samples[0][1] == len(ledger)
    sampled = service.telemetry.snapshot()
    assert sampled["counters"]["llm_calls"]["total"] == len(ledger)
