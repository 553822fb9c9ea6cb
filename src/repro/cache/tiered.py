"""The tier composer: L1 in front, optional persistent L2 behind.

Every public cache facade (``LLMCache``, ``PlanCache``,
``QueryResultCache``) owns one :class:`TieredCache`.
Lookups probe the in-process L1 first; on an L1 miss with a persistent
tier attached, the L2 is probed by *stable* key, a hit is decoded and
promoted into L1, and the caller never learns which tier answered —
except through the stats.

Facade-level counters (hits/misses/bypasses) describe what the caller
experienced; :meth:`tier_stats` exposes each tier's own accounting for
the metrics collectors (an L2 hit counts as a facade hit *and* an L1
miss — the promotion is visible, not hidden).

L2 participation is per call: callers pass ``stable_key=`` only when
they can derive a process-independent key (see
:func:`repro.cache.api.stable_key`). Without one, the entry stays
L1-only — which is how the plan cache opts out wholesale.
"""

from __future__ import annotations

import threading
from typing import Hashable

from .api import CacheStats, Codec
from .memory import MemoryCacheBackend
from .persistent import SqliteCacheBackend


class TieredCache:
    """One namespace's cache: a private L1 plus a shared, optional L2."""

    def __init__(
        self,
        namespace: str,
        max_entries: int,
        *,
        l2: SqliteCacheBackend | None = None,
        codec: Codec | None = None,
    ) -> None:
        if l2 is not None and codec is None:
            raise ValueError("a persistent tier requires a codec")
        self.namespace = namespace
        self.max_size = max_entries
        self._l1 = MemoryCacheBackend(max_entries)
        self._l2 = l2
        self._codec = codec
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._bypasses = 0
        self._l2_promotions = 0

    @property
    def has_l2(self) -> bool:
        return self._l2 is not None and self._l2.enabled

    def get(
        self, key: Hashable, stable_key: str | None = None
    ) -> object | None:
        value = self._l1.get(self.namespace, key)
        if value is not None:
            with self._lock:
                self._hits += 1
            return value
        if self._l2 is not None and stable_key is not None:
            encoded = self._l2.get(self.namespace, stable_key)
            if encoded is not None:
                try:
                    value = self._codec.decode(encoded)
                except (ValueError, KeyError, TypeError):
                    # Undecodable payload (foreign writer, schema drift):
                    # a miss, never a crash.
                    value = None
                if value is not None:
                    self._l1.put(self.namespace, key, value)
                    with self._lock:
                        self._hits += 1
                        self._l2_promotions += 1
                    return value
        with self._lock:
            self._misses += 1
        return None

    def put(
        self, key: Hashable, value: object, stable_key: str | None = None
    ) -> None:
        self._l1.put(self.namespace, key, value)
        if self._l2 is not None and stable_key is not None:
            try:
                encoded = self._codec.encode(value)
            except (ValueError, TypeError):
                return
            self._l2.put(self.namespace, stable_key, encoded)

    def note_bypass(self) -> None:
        with self._lock:
            self._bypasses += 1

    def clear(self) -> None:
        """Drop L1 entries. The persistent tier is shared state and is
        left alone — evict it through the owning store explicitly."""
        self._l1.evict(self.namespace)

    def stats(self) -> CacheStats:
        """What the caller experienced: hits from any tier, L1 pressure."""
        l1 = self._l1.stats(self.namespace)
        expirations = (
            self._l2.stats(self.namespace).expirations
            if self._l2 is not None else 0
        )
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                bypasses=self._bypasses,
                evictions=l1.evictions,
                expirations=expirations,
                size=l1.size,
                max_size=self.max_size,
            )

    def tier_stats(self) -> dict:
        """Per-tier accounting for metrics: ``{"l1": ..., "l2": ...}``."""
        tiers = {"l1": self._l1.stats(self.namespace).to_dict()}
        if self._l2 is not None:
            tiers["l2"] = self._l2.stats(self.namespace).to_dict()
        return tiers

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._bypasses = 0
            self._l2_promotions = 0
        self._l1.reset_stats(self.namespace)
        if self._l2 is not None:
            self._l2.reset_stats(self.namespace)

    def __len__(self) -> int:
        return self._l1.stats(self.namespace).size
