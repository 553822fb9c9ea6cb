"""Query planning support: SQL normalization, plan/result caches, counters.

This module is the bookkeeping half of the compile-and-cache engine:

* :func:`normalize_sql` — canonical text for cache keys (whitespace
  collapsed *outside* string/identifier quotes only).
* :class:`PlanCache` — thread-safe LRU from normalized SQL to the parsed
  statement, consulted on a miss of an engine's prepared-handle table
  (:meth:`~repro.sqlengine.executor.Engine.prepare`). A module-level
  default (:func:`shared_plan_cache`) is shared by every engine unless a
  caller supplies its own. L1-only on purpose: plans are live AST objects
  and a re-parse is cheaper than a faithful serialisation.
* :class:`QueryResultCache` — thread-safe LRU from
  ``(database fingerprint, normalized SQL)`` to a finished
  :class:`~repro.sqlengine.executor.QueryResult`. Fingerprints come from
  :meth:`Database.fingerprint`, so mutating a database invalidates its
  entries by key change rather than by explicit purge. With an opened
  :class:`repro.cache.CacheStore` it gains a persistent L2 tier keyed on
  :meth:`Database.content_fingerprint` — a content hash that *is* stable
  across processes — so results survive restarts.
* :class:`StrategyCounters` — process-wide counters for which execution
  strategies fired (vectorized vs interpreted executions, hash joins,
  pushed predicates, indexed scans, result-cache traffic).
  Surfaced in ``/stats`` and in report renderings via
  :func:`engine_stats`.

Both caches are facades over :class:`repro.cache.TieredCache` — the
unified cache layer that replaced this module's private ``_LruCache``
skeleton. Statement ASTs are frozen dataclasses, so sharing one parse
across threads and engines is safe. Cached results are defensively
copied on both insert and hit — ``QueryResult.rows`` is a mutable list
and callers are allowed to mangle what they get back.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING

from repro.cache import CacheStats, CacheStore, TieredCache, stable_key

from .parser import parse_select

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor imports us)
    from .ast_nodes import SelectStatement
    from .executor import QueryResult
    from .table import Database

DEFAULT_PLAN_CACHE_SIZE = 512
DEFAULT_RESULT_CACHE_SIZE = 1024
#: Entries per engine's prepared-handle table. A handle takes one entry
#: per raw text that reached it plus one for its normalized key.
PREPARED_TABLE_SIZE = 1024

_QUOTES = ("'", '"')


def normalize_sql(sql: str) -> str:
    """Collapse runs of whitespace to single spaces, outside quotes only.

    ``SELECT  a`` and ``SELECT a`` share a cache entry, but the literal in
    ``WHERE name = 'two  spaces'`` keeps its spacing — folding it would
    conflate semantically different queries. Doubled quotes inside a
    literal are handled by treating each quote as a toggle: the zero-width
    close/reopen pair leaves the intervening text correctly "inside".
    Keyword case is deliberately left alone (folding would also fold
    quoted-free identifiers, and a case miss only costs a re-parse).
    """
    parts: list[str] = []
    quote: str | None = None
    space_pending = False
    for ch in sql:
        if quote is not None:
            parts.append(ch)
            if ch == quote:
                quote = None
        elif ch in _QUOTES:
            if space_pending and parts:
                parts.append(" ")
            space_pending = False
            parts.append(ch)
            quote = ch
        elif ch.isspace():
            space_pending = True
        else:
            if space_pending and parts:
                parts.append(" ")
            space_pending = False
            parts.append(ch)
    return "".join(parts)


class _QueryResultCodec:
    """Exact JSON round trip for :class:`QueryResult` (the L2 codec).

    ``SqlValue`` is ``None | bool | int | float | str`` — all JSON-native
    with exact float round trips — so only the row *tuples* need
    restoring on decode.
    """

    def encode(self, result: "QueryResult") -> str:
        return json.dumps({
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
        }, sort_keys=True)

    def decode(self, text: str) -> "QueryResult":
        # Imported lazily: the executor imports this module at load time.
        from .executor import QueryResult

        data = json.loads(text)
        return QueryResult(
            columns=list(data["columns"]),
            rows=[tuple(row) for row in data["rows"]],
        )


QUERY_RESULT_CODEC = _QueryResultCodec()


class _Facade:
    """A cache facade over one :class:`TieredCache`."""

    def __init__(self, name: str, max_size: int, **tier) -> None:
        if max_size <= 0:
            raise ValueError("cache size must be positive")
        self.max_size = max_size
        self._tier = TieredCache(name, max_size, **tier)

    def clear(self) -> None:
        self._tier.clear()

    def reset_stats(self) -> None:
        self._tier.reset_stats()

    def __len__(self) -> int:
        return len(self._tier)


class PlanCache(_Facade):
    """Normalized SQL text → parsed :class:`SelectStatement`.

    Only successful parses are cached; malformed SQL re-raises its parse
    error on every attempt, exactly like the uncached engine.
    """

    def __init__(self, max_size: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        super().__init__("sql_plan", max_size)

    def get(self, key: str) -> "SelectStatement | None":
        return self._tier.get(key)  # type: ignore[return-value]

    def parse(self, sql: str, key: str | None = None) -> "SelectStatement":
        """The statement for ``sql`` (``key``: its normalized text, if
        known), parsed on a miss; parse errors propagate uncached."""
        if key is None:
            key = normalize_sql(sql)
        statement = self.get(key)
        if statement is None:
            statement = parse_select(sql)
            self.put(key, statement)
        return statement

    def put(self, key: str, value: "SelectStatement") -> None:
        self._tier.put(key, value)

    def stats(self) -> dict:
        return self._tier.stats().to_dict()


class QueryResultCache(_Facade):
    """(database fingerprint, normalized SQL) → :class:`QueryResult`.

    Correlated subqueries never reach this cache: the engine consults it
    only where no outer row scope exists. Entries are copied in and out,
    so cached rows can never be mutated by a caller.

    The L1 key keeps the process-local ``Database.fingerprint()`` pair
    (cheap, and mutation-safe by key change). When a ``store`` with a
    persistent tier is attached, lookups that pass ``database=`` also
    probe L2 under a content-derived stable key, so a fresh process —
    whose fingerprints restart from scratch — still hits results a
    previous run computed over identical data.
    """

    def __init__(
        self,
        max_size: int = DEFAULT_RESULT_CACHE_SIZE,
        *,
        store: CacheStore | None = None,
    ) -> None:
        l2 = store.l2_for("sql_result") if store is not None else None
        super().__init__("sql_result", max_size, l2=l2,
                         codec=QUERY_RESULT_CODEC)

    def _stable_key(
        self, key: tuple, database: "Database | None"
    ) -> str | None:
        if database is None or not self._tier.has_l2:
            return None
        return stable_key(
            "sql_result", database.content_fingerprint(), key[1],
        )

    def get(
        self, key: tuple, database: "Database | None" = None
    ) -> "QueryResult | None":
        result = self._tier.get(key, self._stable_key(key, database))
        if result is None:
            return None
        return result.copy()  # type: ignore[union-attr]

    def put(
        self, key: tuple, value: "QueryResult",
        database: "Database | None" = None,
    ) -> None:
        self._tier.put(key, value.copy(), self._stable_key(key, database))

    def stats(self) -> dict:
        rendered = self._tier.stats().to_dict()
        if self._tier.has_l2:
            rendered["tiers"] = self._tier.tier_stats()
        return rendered

    def tier_stats(self) -> dict:
        """Per-tier stats (``{"l1": ..., "l2": ...}``) for metrics."""
        return self._tier.tier_stats()


_STRATEGY_NAMES = (
    "hash_joins",
    "cross_joins",
    "pushed_predicates",
    "indexed_scans",
    "result_cache_hits",
    "result_cache_misses",
    "subquery_cache_hits",
    "subquery_cache_misses",
    "subquery_cache_bypasses",
    "naive_executions",
    "vectorized_executions",
    "vectorized_ineligible",
    "vectorized_runtime_fallbacks",
)


class StrategyCounters:
    """Process-wide tallies of which engine strategies actually fired."""

    def __init__(self, names: tuple[str, ...] = _STRATEGY_NAMES) -> None:
        self._names = names
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(names, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._names, 0)


#: Shared singletons. Every Engine defaults to these, so distinct queries
#: parsed anywhere in the process (pipeline, agents, reconstruction,
#: service) all land in one plan cache.
_SHARED_PLAN_CACHE = PlanCache(DEFAULT_PLAN_CACHE_SIZE)
STRATEGY_COUNTERS = StrategyCounters()
#: Prepared-handle lookups across every engine: a hit skipped parsing
#: and planning. Rendered as ``engine_stats()["plan_cache"]``.
PREPARED_COUNTERS = StrategyCounters(("hits", "misses", "evictions"))


def shared_plan_cache() -> PlanCache:
    """The process-wide default plan cache."""
    return _SHARED_PLAN_CACHE


def engine_stats() -> dict:
    """Aggregate engine-layer stats for ``/stats`` and reports."""
    # Imported lazily: the analyzer, stats, and optimizer modules sit
    # above the planner in the module hierarchy (they import the shared
    # counters from here).
    from .analyzer import ANALYZER_COUNTERS
    from .optimizer import OPTIMIZER_COUNTERS
    from .stats import STATS_COUNTERS

    prepared = CacheStats(**PREPARED_COUNTERS.snapshot(),
                          max_size=PREPARED_TABLE_SIZE)
    return {
        "plan_cache": prepared.to_dict(),
        "strategies": STRATEGY_COUNTERS.snapshot(),
        "analyzer": ANALYZER_COUNTERS.snapshot(),
        "optimizer": OPTIMIZER_COUNTERS.snapshot(),
        "stats": STATS_COUNTERS.snapshot(),
    }


def reset_engine_stats() -> None:
    """Zero the counters, drop the shared plan cache and every engine's
    prepared handles.

    Test/benchmark hook: production code never calls this.
    """
    from .analyzer import reset_analyzer
    from .optimizer import OPTIMIZER_COUNTERS
    from .stats import STATS_COUNTERS

    STRATEGY_COUNTERS.reset()
    PREPARED_COUNTERS.reset()
    reset_analyzer()
    OPTIMIZER_COUNTERS.reset()
    STATS_COUNTERS.reset()
    _SHARED_PLAN_CACHE.clear()
    _SHARED_PLAN_CACHE.reset_stats()
