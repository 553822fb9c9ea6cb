"""TelemetryWindow: windowed deltas, keyed groups, eviction, metrics."""

import pytest

from repro.obs.telemetry import TelemetryWindow, hit_rate


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_counters_report_total_delta_and_rate():
    clock = FakeClock()
    window = TelemetryWindow(window_seconds=60.0, clock=clock)
    totals = {"done": 0}
    window.register_counters("jobs", lambda: dict(totals))
    window.sample()
    totals["done"] = 10
    clock.advance(5.0)
    snapshot = window.snapshot()
    stat = snapshot["counters"]["jobs_done"]
    assert stat == {"total": 10.0, "delta": 10.0, "per_second": 2.0}
    assert snapshot["window_seconds"] == 5.0
    assert snapshot["samples"] == 2


def test_single_sample_window_reports_zero_rate():
    window = TelemetryWindow(clock=FakeClock())
    window.register_counters("jobs", lambda: {"done": 7})
    snapshot = window.snapshot()
    stat = snapshot["counters"]["jobs_done"]
    assert stat["total"] == 7.0
    assert stat["delta"] == 0.0
    assert stat["per_second"] == 0.0


def test_keyed_group_fans_out_per_key():
    clock = FakeClock()
    window = TelemetryWindow(clock=clock)
    spend = {"sql": 0.0}
    window.register_counters("method_cost_usd", lambda: dict(spend),
                             keyed_by="method")
    window.sample()
    spend["sql"] = 0.5
    spend["agent"] = 2.0       # method appears mid-window
    clock.advance(10.0)
    snapshot = window.snapshot()
    keyed = snapshot["keyed"]["method_cost_usd"]
    assert keyed["sql"] == {"total": 0.5, "delta": 0.5,
                            "per_second": 0.05}
    assert keyed["agent"]["delta"] == 2.0  # baseline 0 for new keys


def test_gauges_are_live_not_windowed():
    value = {"depth": 3}
    window = TelemetryWindow(clock=FakeClock())
    window.register_gauges(lambda: dict(value))
    assert window.snapshot()["gauges"]["depth"] == 3.0
    value["depth"] = 9
    assert window.snapshot()["gauges"]["depth"] == 9.0


def test_derived_hit_rate_over_deltas():
    clock = FakeClock()
    window = TelemetryWindow(clock=clock)
    cache = {"hits": 0, "misses": 0}
    window.register_counters("cache", lambda: dict(cache))
    window.register_derived(
        "cache_hit_rate", hit_rate("cache_hits", "cache_misses"),
    )
    # Idle window: no traffic must mean 0.0, not a ZeroDivisionError.
    assert window.snapshot()["derived"]["cache_hit_rate"] == 0.0
    cache["hits"], cache["misses"] = 3, 1
    clock.advance(1.0)
    assert window.snapshot()["derived"]["cache_hit_rate"] == 0.75


def test_eviction_keeps_window_and_at_least_two_samples():
    clock = FakeClock()
    window = TelemetryWindow(window_seconds=10.0, clock=clock)
    totals = {"n": 0}
    window.register_counters("c", lambda: dict(totals))
    for _ in range(6):
        totals["n"] += 1
        window.sample()
        clock.advance(4.0)
    # Samples older than the 10s window fall off the front…
    snapshot = window.snapshot()
    assert snapshot["window_seconds"] <= 10.0 + 4.0
    # …but even after a long idle gap two samples always survive.
    clock.advance(1000.0)
    snapshot = window.snapshot()
    assert snapshot["samples"] >= 2
    assert snapshot["counters"]["c_n"]["total"] == 6.0


def test_max_samples_caps_the_ring():
    clock = FakeClock()
    window = TelemetryWindow(window_seconds=1e9, max_samples=4,
                             clock=clock)
    window.register_counters("c", lambda: {"n": 1})
    for _ in range(10):
        window.sample()
        clock.advance(1.0)
    assert window.snapshot()["samples"] <= 5   # 4 retained + this read


def test_broken_provider_is_skipped_not_fatal():
    window = TelemetryWindow(clock=FakeClock())

    def broken():
        raise RuntimeError("provider down")

    window.register_counters("bad", broken)
    window.register_counters("good", lambda: {"ok": 1})
    window.register_gauges(broken)
    window.register_derived("bad_ratio", broken)
    snapshot = window.snapshot()
    assert snapshot["counters"] == {
        "good_ok": {"total": 1.0, "delta": 0.0, "per_second": 0.0},
    }
    assert snapshot["gauges"] == {}
    assert snapshot["derived"] == {}


def test_metrics_families_and_labels():
    clock = FakeClock()
    window = TelemetryWindow(clock=clock)
    window.register_gauges(lambda: {"queue_depth": 2})
    window.register_counters("jobs", lambda: {"done": 4})
    window.register_counters("method_cost_usd", lambda: {"sql": 1.0},
                             keyed_by="method")
    window.register_derived("ratio", lambda deltas: 0.5)
    window.sample()
    clock.advance(2.0)
    by_name = {}
    for metric in window.metrics():
        by_name.setdefault(metric.name, []).append(metric)
    assert "cedar_telemetry_window_seconds" in by_name
    assert "cedar_telemetry_queue_depth" in by_name
    assert "cedar_telemetry_jobs_done_per_second" in by_name
    assert "cedar_telemetry_ratio" in by_name
    keyed = by_name["cedar_telemetry_method_cost_usd_per_second"]
    labelsets = [labels for labels, _value in keyed[0].samples]
    assert labelsets == [(("method", "sql"),)]


def test_counter_groups_fill_several_groups_from_one_read():
    clock = FakeClock()
    window = TelemetryWindow(clock=clock)
    reads = []

    def provider():
        reads.append(clock.now)
        return {"llm": {"calls": 3}, "method_calls": {"sql": 2, "agent": 1}}

    window.register_counter_groups(
        provider, {"llm": None, "method_calls": "method"})
    window.sample()
    clock.advance(1.0)
    snapshot = window.snapshot()
    assert reads == [0.0, 1.0]  # one provider call per sample
    assert snapshot["counters"]["llm_calls"]["total"] == 3.0
    assert snapshot["keyed"]["method_calls"]["sql"]["total"] == 2.0
    keyed = [metric for metric in window.metrics()
             if metric.name == "cedar_telemetry_method_calls_per_second"]
    assert [labels for metric in keyed for labels, _ in metric.samples] == [
        (("method", "agent"),), (("method", "sql"),)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        TelemetryWindow(window_seconds=0)
    with pytest.raises(ValueError):
        TelemetryWindow(max_samples=1)
