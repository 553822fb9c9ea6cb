"""Process-level metrics registry with pluggable collectors.

The repo already keeps careful stats — :class:`~repro.llm.ledger.
CostLedger` totals, :class:`~repro.llm.cache.CacheStats`, the SQL
engine's plan/result-cache and strategy counters, analyzer counters,
the service's queue/batch/latency numbers — but each has its own shape
and its own accessor. This module gives them one meeting point:

* a :class:`MetricsRegistry` holds *owned* counters/gauges/histograms
  (for code that wants to publish a number directly), plus
  *collectors*: callables run at snapshot time that translate an
  existing subsystem's stats into :class:`Metric` samples. Collection
  is pull-based on purpose — the hot paths keep their existing cheap
  counters and pay nothing extra per event.
* :meth:`MetricsRegistry.snapshot` returns every metric as plain data;
  :func:`repro.obs.export.to_prometheus` renders the same snapshot as
  Prometheus text exposition for ``GET /metrics``.

Metric names follow Prometheus conventions: ``cedar_`` prefix,
``_total`` suffix on counters, base units in the name
(``_seconds``, ``_usd``). Labels distinguish instances of the same
kind of thing (``cedar_cache_hits_total{cache="llm"}`` vs
``{cache="sql_result"}``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

LabelSet = tuple[tuple[str, str], ...]


def _labels(labels: dict[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Metric:
    """One metric family: a name, a type, and its labelled samples.

    ``samples`` maps a label set to a value. For histograms the value is
    a dict ``{"bounds": [...], "counts": [...], "sum": s, "count": n}``
    where ``counts`` has one entry per bound plus the overflow bucket.
    """

    name: str
    type: str                      # "counter" | "gauge" | "histogram"
    help: str = ""
    samples: tuple[tuple[LabelSet, object], ...] = ()

    @staticmethod
    def counter(name: str, value: float, help: str = "",
                labels: dict[str, str] | None = None) -> "Metric":
        return Metric(name, "counter", help, ((_labels(labels), value),))

    @staticmethod
    def gauge(name: str, value: float, help: str = "",
              labels: dict[str, str] | None = None) -> "Metric":
        return Metric(name, "gauge", help, ((_labels(labels), value),))

    @staticmethod
    def histogram(name: str, bounds: Sequence[float],
                  counts: Sequence[int], total: float, count: int,
                  help: str = "",
                  labels: dict[str, str] | None = None) -> "Metric":
        value = {"bounds": list(bounds), "counts": list(counts),
                 "sum": total, "count": count}
        return Metric(name, "histogram", help, ((_labels(labels), value),))


def merge_metrics(metrics: Iterable[Metric]) -> list[Metric]:
    """Fold same-named metric families together, preserving first-seen
    order (so ``cedar_cache_hits_total`` from three collectors renders
    as one family with three labelled samples)."""
    merged: dict[str, Metric] = {}
    order: list[str] = []
    for metric in metrics:
        existing = merged.get(metric.name)
        if existing is None:
            merged[metric.name] = metric
            order.append(metric.name)
        else:
            merged[metric.name] = Metric(
                existing.name, existing.type,
                existing.help or metric.help,
                existing.samples + metric.samples,
            )
    return [merged[name] for name in order]


class Counter:
    """A monotonically increasing value owned by the registry."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def collect(self) -> Metric:
        return Metric.counter(self.name, self.value, self.help)


class Gauge:
    """A value that can go both ways."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def collect(self) -> Metric:
        return Metric.gauge(self.name, self.value, self.help)


class Histogram:
    """Fixed-bound histogram with an overflow bucket (Prometheus shape)."""

    __slots__ = ("name", "help", "bounds", "_lock", "_counts", "_sum",
                 "_count")

    def __init__(self, name: str, bounds: Sequence[float],
                 help: str = "") -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.help = help
        self.bounds = list(bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def collect(self) -> Metric:
        with self._lock:
            return Metric.histogram(
                self.name, self.bounds, list(self._counts),
                self._sum, self._count, self.help,
            )


class MetricsRegistry:
    """Named metrics plus collectors, snapshotted atomically enough.

    ``counter()``/``gauge()``/``histogram()`` get-or-create owned
    instruments; ``register_collector`` adds a zero-argument callable
    returning :class:`Metric` objects built from some other subsystem's
    live stats. ``snapshot()`` runs everything and merges same-named
    families.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}
        self._collectors: list[Callable[[], Iterable[Metric]]] = []

    def _instrument(self, name: str, factory: Callable[[], object],
                    expected: type):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, expected):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._instrument(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._instrument(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, bounds: Sequence[float],
                  help: str = "") -> Histogram:
        return self._instrument(
            name, lambda: Histogram(name, bounds, help), Histogram
        )

    def register_collector(
        self, collector: Callable[[], Iterable[Metric]]
    ) -> None:
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> list[Metric]:
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        metrics = [instrument.collect() for instrument in instruments]
        for collector in collectors:
            metrics.extend(collector())
        return merge_metrics(metrics)

    def snapshot(self) -> dict:
        """Every metric as plain JSON-ready data, keyed by name.

        Unlabelled single-sample families collapse to their value;
        labelled families map rendered label strings to values.
        """
        result: dict = {}
        for metric in self.collect():
            if len(metric.samples) == 1 and not metric.samples[0][0]:
                result[metric.name] = metric.samples[0][1]
            else:
                result[metric.name] = {
                    ",".join(f"{k}={v}" for k, v in labels) or "": value
                    for labels, value in metric.samples
                }
        return result


# -- collectors for the stats the repo already keeps -------------------------


def ledger_metrics(ledger) -> list[Metric]:
    """Translate :class:`~repro.llm.ledger.CostLedger` totals.

    Includes the cumulative retry/backoff seconds aggregated from
    :class:`~repro.llm.ledger.RetryEvent` delays — previously recorded
    but never summed anywhere.
    """
    totals = ledger.totals()
    return [
        Metric.counter("cedar_llm_calls_total", totals.calls,
                       "LLM calls recorded in the cost ledger"),
        Metric.counter("cedar_llm_tokens_total", totals.prompt_tokens,
                       "Tokens by direction", {"direction": "prompt"}),
        Metric.counter("cedar_llm_tokens_total", totals.completion_tokens,
                       "Tokens by direction", {"direction": "completion"}),
        Metric.counter("cedar_llm_cost_usd_total", totals.cost,
                       "Cumulative LLM spend in USD"),
        Metric.counter("cedar_llm_latency_seconds_total",
                       totals.latency_seconds,
                       "Cumulative model-call latency"),
        Metric.counter("cedar_llm_retries_total", ledger.retry_count,
                       "Retry decisions taken by the resilience layer"),
        Metric.counter("cedar_llm_retry_backoff_seconds_total",
                       ledger.retry_backoff_seconds,
                       "Cumulative backoff sleep requested by retries"),
        Metric.counter("cedar_sql_executions_total", ledger.sql_executions,
                       "SQL executions timed by the verifier"),
        Metric.counter("cedar_sql_seconds_total", ledger.sql_seconds,
                       "Wall-clock spent executing SQL in the verifier"),
    ]


def _stats_getter(stats):
    if isinstance(stats, dict):
        return stats.get
    return lambda key, default=0: getattr(stats, key, default)


def _cache_samples(labels: dict[str, str], get) -> list[Metric]:
    return [
        Metric.counter("cedar_cache_hits_total", get("hits", 0),
                       "Cache hits by cache", labels),
        Metric.counter("cedar_cache_misses_total", get("misses", 0),
                       "Cache misses by cache", labels),
        Metric.counter("cedar_cache_bypasses_total", get("bypasses", 0),
                       "Lookups that skipped the cache", labels),
        Metric.counter("cedar_cache_evictions_total", get("evictions", 0),
                       "LRU evictions by cache", labels),
        Metric.counter("cedar_cache_expirations_total",
                       get("expirations", 0),
                       "TTL expirations by cache", labels),
        Metric.gauge("cedar_cache_entries", get("size", 0),
                     "Current entries by cache", labels),
    ]


def cache_metrics(cache_name: str, stats, tiers: dict | None = None)\
        -> list[Metric]:
    """Translate one :class:`~repro.cache.CacheStats`-shaped object —
    every cache (LLM, SQL result, prepared SQL handles) shares the
    counter names now, distinguished by the ``cache`` label.

    ``tiers`` (or a ``"tiers"`` key inside a dict-shaped ``stats``, as
    the tiered ``QueryResultCache.stats()`` emits) adds per-tier samples
    labelled ``{cache=..., tier=l1|l2}`` on the same families.
    """
    get = _stats_getter(stats)
    metrics = _cache_samples({"cache": cache_name}, get)
    if tiers is None and isinstance(stats, dict):
        tiers = stats.get("tiers")
    if tiers:
        for tier_name, tier_stats in sorted(tiers.items()):
            metrics.extend(_cache_samples(
                {"cache": cache_name, "tier": tier_name},
                _stats_getter(tier_stats),
            ))
    return metrics


def engine_metrics(stats: dict | None = None) -> list[Metric]:
    """Translate ``repro.sqlengine.engine_stats()`` output: prepared
    handle lookups (``cache="sql_plan"``), strategy counters, and
    analyzer counters."""
    if stats is None:
        # Imported lazily so obs never depends on sqlengine at import
        # time (obs sits below every other package).
        from repro.sqlengine import engine_stats

        stats = engine_stats()
    metrics = cache_metrics("sql_plan", stats.get("plan_cache", {}))
    for strategy, count in sorted(stats.get("strategies", {}).items()):
        metrics.append(Metric.counter(
            "cedar_sql_strategy_total", count,
            "Engine execution-strategy firings", {"strategy": strategy},
        ))
    for counter, count in sorted(stats.get("analyzer", {}).items()):
        metrics.append(Metric.counter(
            "cedar_sql_analyzer_total", count,
            "Static analyzer activity", {"counter": counter},
        ))
    for decision, count in sorted(stats.get("optimizer", {}).items()):
        metrics.append(Metric.counter(
            "cedar_sql_optimizer_total", count,
            "Cost-based optimizer decisions", {"decision": decision},
        ))
    table_stats = stats.get("stats", {})
    if table_stats:
        metrics.append(Metric.counter(
            "cedar_sql_stats_tables_profiled_total",
            table_stats.get("tables_profiled", 0),
            "Tables profiled by the statistics layer",
        ))
        metrics.append(Metric.counter(
            "cedar_sql_stats_columns_profiled_total",
            table_stats.get("columns_profiled", 0),
            "Columns profiled by the statistics layer",
        ))
        metrics.append(Metric.counter(
            "cedar_sql_stats_build_seconds_total",
            table_stats.get("build_seconds", 0.0),
            "Wall-clock spent building column statistics",
        ))
    result_cache = stats.get("result_cache")
    if result_cache:
        metrics.extend(cache_metrics("sql_result", result_cache))
    return metrics
