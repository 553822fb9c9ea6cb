"""Per-layer metrics from probe summaries and the engine's counters."""

from __future__ import annotations

from .common import Outcome, share

#: Probe span names whose self CPU is the core pipeline's own work.
CORE_SPANS = ("core.verify", "core.translate", "core.assess")


def numeric_delta(before, after):
    """``after - before`` over nested dicts of counters."""
    if isinstance(after, dict):
        return {key: numeric_delta((before or {}).get(key), value)
                for key, value in after.items()}
    if isinstance(after, (int, float)) and not isinstance(after, bool):
        return after - (before or 0)
    return after


def numeric_sum(values: list[dict]) -> dict:
    """Element-wise sum of nested counter dicts (one per cluster shard)."""
    total: dict = {}
    for value in values:
        for key, item in value.items():
            if isinstance(item, dict):
                total[key] = numeric_sum([total.get(key, {}), item])
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                total[key] = total.get(key, 0) + item
    return total


def _totals(summary: dict, name: str) -> dict:
    """Totals for ``name`` over every phase (profiling included)."""
    merged: dict = {}
    for key in (name, f"{name}@profile"):
        for field, value in summary.get(key, {}).items():
            merged[field] = merged.get(field, 0) + value
    return merged


def add_probe_metrics(outcome: Outcome, summary: dict, claims: int) -> None:
    """Layer times and call counts measured by the probe's spans."""
    core_self = sum(summary.get(name, {}).get("self_cpu", 0.0)
                    for name in CORE_SPANS)
    llm = _totals(summary, "llm.complete")
    execute = _totals(summary, "sql.execute")
    analyze = _totals(summary, "sql.analyze")
    embed = _totals(summary, "embed.similarity")
    outcome.add("core.verify_ms_per_claim",
                1000 * share(core_self, claims), "ms")
    outcome.add("llm.ms_per_call",
                1000 * share(llm.get("cpu", 0.0), llm.get("calls", 0)), "ms")
    outcome.add("llm.errors", llm.get("failed", 0), "count")
    outcome.add("agents.calls_per_claim",
                share(summary.get("agent_llm_calls", 0), claims), "calls")
    outcome.add("sql.executions_per_claim",
                share(execute.get("calls", 0), claims), "calls")
    outcome.add("sql.execute_ms_per_call",
                1000 * share(execute.get("cpu", 0.0),
                             execute.get("calls", 0)), "ms")
    outcome.add("sql.analyze_ms_per_call",
                1000 * share(analyze.get("cpu", 0.0),
                             analyze.get("calls", 0)), "ms")
    outcome.add("embed.ms_per_claim",
                1000 * share(embed.get("cpu", 0.0), claims), "ms")


def add_engine_metrics(outcome: Outcome, delta: dict) -> None:
    """SQL-engine counters (``engine_stats()`` deltas over the window)."""
    strategies = delta.get("strategies", {})
    vectorized = strategies.get("vectorized_executions", 0)
    naive = strategies.get("naive_executions", 0)
    plans = (vectorized + naive
             + strategies.get("vectorized_ineligible", 0)
             + strategies.get("vectorized_runtime_fallbacks", 0))
    plan_cache = delta.get("plan_cache", {})
    hits = strategies.get("result_cache_hits", 0)
    outcome.add("sql.plan_cache_hit_rate",
                share(plan_cache.get("hits", 0), plan_cache.get("lookups", 0)),
                "ratio")
    outcome.add("sql.vectorized_share", share(vectorized, plans), "ratio")
    outcome.add("sql.naive_share", share(naive, plans), "ratio")
    outcome.add("sql.analyzer_rejections",
                delta.get("analyzer", {}).get("rejected_pre_execution", 0),
                "count")
    outcome.add("cache.sql_hit_rate",
                share(hits, hits + strategies.get("result_cache_misses", 0)),
                "ratio")


def add_llm_cache_metrics(outcome: Outcome, delta: dict | None) -> None:
    """Shared LLM response cache (``CacheStats`` deltas); none -> zeros."""
    delta = delta or {}
    outcome.add("cache.llm_hit_rate",
                share(delta.get("hits", 0), delta.get("lookups", 0)), "ratio")
    outcome.add("cache.llm_evictions", delta.get("evictions", 0), "count")


def add_overhead(outcome: Outcome, untraced_cpu_ms: float,
                 traced_cpu_ms: float) -> None:
    """Tracing cost: CPU per claim with the probe on vs off, in percent."""
    outcome.add("obs.trace_overhead_pct",
                100.0 * (share(traced_cpu_ms, untraced_cpu_ms) - 1.0), "%")
