"""Rolling-window telemetry: the adaptive scheduler's input surface.

The stack already keeps cumulative counters everywhere — the ledger
counts retries and spend, the caches count hits, the service counts
jobs — but a scheduler reacting to *load* needs recent rates, not
lifetime totals. :class:`TelemetryWindow` closes that gap without
touching any hot path: providers (plain callables returning the
counters that already exist) are sampled into a bounded ring of
timestamped snapshots, and a ``snapshot()`` reports, for every counter,
the delta and per-second rate across the retained window alongside live
gauge values and derived ratios (cache hit rates).

Sampling happens opportunistically — after each dispatched batch and on
every read — so there is no background thread and an idle process pays
nothing. The window is exposed two ways:

* ``GET /v1/telemetry`` — the JSON :meth:`TelemetryWindow.snapshot`;
* ``cedar_telemetry_*`` gauges in ``GET /metrics``
  (:meth:`TelemetryWindow.metrics`), one ``_per_second`` gauge per
  counter plus the raw gauges and derived ratios.

Counter groups registered with ``keyed_by`` fan one provider out into
labelled samples — ``register_counters("method_cost_usd", fn,
keyed_by="method")`` turns the ledger's per-method ``method:`` tag
totals into ``cedar_telemetry_method_cost_usd_per_second{method=...}``.
``register_counter_groups`` lets one provider fill several groups from a
single read, so counters that must agree within a sample (the service's
LLM totals and its per-method totals) come from one ledger snapshot.

Like every ``repro/obs`` module, no clock is read directly: wall times
come only from the injected ``clock`` callable (CDL015).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping

from .metrics import Metric

#: Default window width and sample-ring bound.
DEFAULT_WINDOW_SECONDS = 60.0
DEFAULT_MAX_SAMPLES = 120


class _Sample:
    """One timestamped snapshot of every cumulative counter."""

    __slots__ = ("ts", "flat", "keyed")

    def __init__(self, ts: float, flat: dict, keyed: dict) -> None:
        self.ts = ts
        self.flat = flat          # {"group_name": value}
        self.keyed = keyed        # {group: {key: value}}


class TelemetryWindow:
    """Windowed deltas over cumulative counters plus live gauges."""

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self.window_seconds = window_seconds
        self.max_samples = max_samples
        self.clock = clock
        self._gauges: list[Callable[[], Mapping]] = []
        #: (provider, {group: keyed_by}): a provider returns
        #: ``{group: {name: total}}`` for the groups it declares. Flat
        #: groups (``keyed_by`` None) render their keys as
        #: ``{group}_{key}`` names; keyed groups render the group as the
        #: family and each key as a ``keyed_by`` label value.
        self._counters: list[tuple[Callable[[], Mapping[str, Mapping]],
                                   dict[str, str | None]]] = []
        self._derived: list[tuple[str, Callable[[Mapping], float]]] = []
        self._samples: list[_Sample] = []
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------

    def register_gauges(self, provider: Callable[[], Mapping]) -> None:
        """Add a live-value provider: ``() -> {name: value}``."""
        self._gauges.append(provider)

    def register_counters(
        self,
        group: str,
        provider: Callable[[], Mapping],
        keyed_by: str | None = None,
    ) -> None:
        """Add a cumulative-counter provider: ``() -> {name: total}``.

        Values must be monotonically non-decreasing totals; the window
        differences them. With ``keyed_by``, the provider's keys become
        label values of one metric family named after the group.
        """
        self._counters.append(
            (lambda: {group: provider()}, {group: keyed_by})
        )

    def register_counter_groups(
        self,
        provider: Callable[[], Mapping[str, Mapping]],
        groups: Mapping[str, str | None],
    ) -> None:
        """Add one provider feeding several counter groups from a single
        read: ``() -> {group: {name: total}}``. ``groups`` maps each
        group it fills to its ``keyed_by`` (None for a flat group), so
        counters that must agree within a sample come from one snapshot.
        """
        self._counters.append((provider, dict(groups)))

    def register_derived(
        self, name: str, fn: Callable[[Mapping], float]
    ) -> None:
        """Add a ratio computed from the windowed *deltas* — e.g. a hit
        rate from hit/miss deltas: ``fn({"llm_cache_hits": 3.0, ...})``.
        """
        self._derived.append((name, fn))

    # -- sampling ------------------------------------------------------------

    def _collect(self) -> tuple[dict, dict]:
        flat: dict = {}
        keyed: dict = {}
        for provider, groups in self._counters:
            try:
                values_by_group = provider()
            except Exception:
                continue  # a broken provider must not break the scrape
            for group, keyed_by in groups.items():
                values = values_by_group.get(group, {})
                if keyed_by is None:
                    for key in sorted(values):
                        flat[f"{group}_{key}"] = float(values[key])
                else:
                    bucket = keyed.setdefault(group, {})
                    for key in sorted(values):
                        bucket[str(key)] = float(values[key])
        return flat, keyed

    def sample(self) -> None:
        """Push one snapshot into the ring and evict what fell out of
        the window (always keeping at least two samples, so a sparse
        scrape cadence still yields a usable delta)."""
        flat, keyed = self._collect()
        with self._lock:
            now = self.clock()
            self._samples.append(_Sample(now, flat, keyed))
            horizon = now - self.window_seconds
            while (len(self._samples) > 2
                   and self._samples[1].ts >= horizon):
                self._samples.pop(0)
            while len(self._samples) > self.max_samples:
                self._samples.pop(0)

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def _stat(newest: float, oldest: float, span: float) -> dict:
        delta = newest - oldest
        return {
            "total": round(newest, 9),
            "delta": round(delta, 9),
            "per_second": round(delta / span, 9) if span > 0 else 0.0,
        }

    def snapshot(self) -> dict:
        """Sample, then report windowed counter rates, live gauges, and
        derived ratios (the ``GET /v1/telemetry`` body)."""
        self.sample()
        with self._lock:
            oldest, newest = self._samples[0], self._samples[-1]
            span = newest.ts - oldest.ts
            samples = len(self._samples)
        counters = {
            name: self._stat(newest.flat[name],
                             oldest.flat.get(name, 0.0), span)
            for name in sorted(newest.flat)
        }
        keyed = {}
        for group in sorted(newest.keyed):
            old_group = oldest.keyed.get(group, {})
            keyed[group] = {
                key: self._stat(newest.keyed[group][key],
                                old_group.get(key, 0.0), span)
                for key in sorted(newest.keyed[group])
            }
        deltas = {name: stat["delta"] for name, stat in counters.items()}
        derived = {}
        for name, fn in self._derived:
            try:
                derived[name] = round(float(fn(deltas)), 9)
            except Exception:
                continue
        gauges: dict = {}
        for provider in self._gauges:
            try:
                values = provider()
            except Exception:
                continue
            for key in sorted(values):
                gauges[key] = float(values[key])
        return {
            "window_seconds": round(span, 6),
            "samples": samples,
            "gauges": gauges,
            "counters": counters,
            "keyed": keyed,
            "derived": derived,
        }

    def metrics(self) -> list[Metric]:
        """The snapshot as ``cedar_telemetry_*`` gauge families."""
        snapshot = self.snapshot()
        metrics = [Metric.gauge(
            "cedar_telemetry_window_seconds", snapshot["window_seconds"],
            "Width of the telemetry window actually covered",
        )]
        for name, value in snapshot["gauges"].items():
            metrics.append(Metric.gauge(
                f"cedar_telemetry_{name}", value,
                "Live value sampled at scrape time",
            ))
        for name, stat in snapshot["counters"].items():
            metrics.append(Metric.gauge(
                f"cedar_telemetry_{name}_per_second", stat["per_second"],
                "Windowed rate over the telemetry window",
            ))
        for group, stats in snapshot["keyed"].items():
            keyed_by = next(
                (groups[group] for _p, groups in self._counters
                 if groups.get(group)),
                "key",
            )
            for key, stat in stats.items():
                metrics.append(Metric.gauge(
                    f"cedar_telemetry_{group}_per_second",
                    stat["per_second"],
                    "Windowed rate over the telemetry window",
                    {keyed_by: key},
                ))
        for name, value in snapshot["derived"].items():
            metrics.append(Metric.gauge(
                f"cedar_telemetry_{name}", value,
                "Ratio derived from windowed counter deltas",
            ))
        return metrics


def hit_rate(hits_key: str, misses_key: str) -> Callable[[Mapping], float]:
    """A derived-ratio helper: hit-rate over the window's deltas.

    Returns 0.0 for an idle window (no traffic) rather than dividing
    by zero.
    """

    def compute(deltas: Mapping) -> float:
        hits = float(deltas.get(hits_key, 0.0))
        misses = float(deltas.get(misses_key, 0.0))
        total = hits + misses
        return hits / total if total > 0 else 0.0

    return compute
