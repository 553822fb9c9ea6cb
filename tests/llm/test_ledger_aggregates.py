"""Differential tests: the ledger's running aggregates against a scan.

Random programs of ``record``/``record_retry`` calls, nested under
``tagged``, ``scoped``, ``capture`` (absorbed or dropped) and worker
threads, are run against a :class:`CostLedger`. Every aggregate read is
then compared with a reference computed by scanning ``ledger.entries``
and ``ledger.events`` in order — with exact ``==``, because the
aggregates are folded in append order and must sum floats exactly as
the scan does.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.llm import CostLedger, LedgerTotals

TAGS = ("doc:1", "doc:2", "method:sql", "method:agent", "claim:1/0",
        "claim:2/3", "x:y:z", "method", "m")
PREFIXES = ("", "doc:", "method:", "claim:", "claim:1", "method", "m",
            "x:", "x:y", "absent:")

amounts = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
tags = st.sampled_from(TAGS)
leaf = st.one_of(
    st.tuples(st.just("record"), st.integers(0, 90), st.integers(0, 90),
              amounts, amounts),
    st.tuples(st.just("retry"), amounts),
)


def _blocks(children):
    block = st.lists(children, max_size=4)
    return st.one_of(
        st.tuples(st.just("tagged"), tags, block),
        st.tuples(st.just("scoped"), st.lists(tags, max_size=3), block),
        st.tuples(st.just("capture"), st.booleans(), block),
        st.tuples(st.just("threads"), st.lists(block, min_size=2,
                                               max_size=3)),
    )


programs = st.lists(st.recursive(leaf, _blocks, max_leaves=25), max_size=8)


def run(ledger, ops):
    for op in ops:
        kind = op[0]
        if kind == "record":
            _, prompt, completion, cost, latency = op
            ledger.record("m", prompt, completion, cost, latency)
        elif kind == "retry":
            ledger.record_retry("m", 1, op[1], "err")
        elif kind == "tagged":
            with ledger.tagged(op[1]):
                run(ledger, op[2])
        elif kind == "scoped":
            with ledger.scoped(op[1]):
                run(ledger, op[2])
        elif kind == "capture":
            with ledger.capture() as delta:
                run(ledger, op[2])
            if op[1]:
                ledger.absorb(delta)
        else:
            workers = [threading.Thread(target=run, args=(ledger, block))
                       for block in op[1]]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()


def scan(entries, keep=lambda entry: True):
    calls = prompt = completion = 0
    cost = latency = 0.0
    for entry in entries:
        if keep(entry):
            calls += 1
            prompt += entry.prompt_tokens
            completion += entry.completion_tokens
            cost += entry.cost
            latency += entry.latency_seconds
    return LedgerTotals(calls, prompt, completion, cost, latency)


def scan_prefix(entries, prefix):
    seen = {}
    for entry in entries:
        for tag in entry.tags:
            if tag.startswith(prefix):
                seen.setdefault(tag, None)
    return {tag: scan(entries, lambda e, t=tag: t in e.tags)
            for tag in seen}


@settings(max_examples=120, deadline=None)
@given(programs)
def test_aggregates_equal_a_scan_of_the_entries(program):
    ledger = CostLedger()
    run(ledger, program)
    entries, events = ledger.entries, ledger.events

    assert ledger.totals() == scan(entries)
    for tag in set(TAGS) | {"unknown:tag"}:
        assert ledger.totals(tag) == scan(entries, lambda e: tag in e.tags)
    for prefix in PREFIXES:
        got = ledger.totals_by_tag_prefix(prefix)
        assert list(got.items()) == list(scan_prefix(entries, prefix).items())
    assert ledger.total_cost == scan(entries).cost
    assert ledger.total_latency_seconds == scan(entries).latency_seconds
    backoff = 0.0
    for event in events:
        backoff += event.delay_seconds
    assert ledger.retry_backoff_seconds == backoff

    view = ledger.snapshot("method:")
    assert view.totals == ledger.totals()
    assert view.by_tag == ledger.totals_by_tag_prefix("method:")
    assert (view.entries, view.retries) == (len(entries), len(events))
    assert view.retry_backoff_seconds == backoff
    assert ledger.snapshot().by_tag == {}


def _bump(totals):
    totals.calls += 5
    totals.prompt_tokens += 5
    totals.cost += 1.0
    totals.latency_seconds += 1.0


def test_returned_totals_are_copies():
    ledger = CostLedger()
    with ledger.tagged("method:sql"):
        ledger.record("m", 10, 5, 0.25, 0.5)
    before = (ledger.totals(), ledger.totals("method:sql"),
              ledger.totals_by_tag_prefix("method:"), ledger.total_cost)

    _bump(ledger.totals())
    _bump(ledger.totals("method:sql"))
    _bump(ledger.totals("never:seen"))
    for totals in ledger.totals_by_tag_prefix("method:").values():
        _bump(totals)
    view = ledger.snapshot("method:")
    _bump(view.totals)
    for totals in view.by_tag.values():
        _bump(totals)

    after = (ledger.totals(), ledger.totals("method:sql"),
             ledger.totals_by_tag_prefix("method:"), ledger.total_cost)
    assert after == before
    assert ledger.totals("never:seen") == LedgerTotals()


def test_repeated_tag_counts_an_entry_once():
    ledger = CostLedger()
    with ledger.tagged("method:sql"), ledger.tagged("method:sql"):
        ledger.record("m", 1, 1, 0.5, 0.0)
    assert ledger.totals("method:sql").calls == 1
    assert ledger.totals_by_tag_prefix("method:")["method:sql"].calls == 1


def test_snapshot_is_consistent_under_concurrent_appends():
    """More writers than cores and a short switch interval: every
    snapshot's per-method calls sum to its grand total (reads taken at
    different moments could disagree), and no fold is lost."""
    ledger = CostLedger()
    per_writer = 2000
    methods = [f"method:w{index}" for index in range(6)]

    def writer(tag):
        with ledger.tagged(tag):
            for _ in range(per_writer):
                ledger.record("m", 1, 1, 0.001, 0.0)

    writers = [threading.Thread(target=writer, args=(tag,))
               for tag in methods]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in writers:
            thread.start()
        while any(thread.is_alive() for thread in writers):
            view = ledger.snapshot("method:")
            assert (sum(t.calls for t in view.by_tag.values())
                    == view.totals.calls == view.entries)
        for thread in writers:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert ledger.totals() == scan(ledger.entries)
    assert {tag: t.calls for tag, t in
            ledger.totals_by_tag_prefix("method:").items()} == {
        tag: per_writer for tag in methods}
