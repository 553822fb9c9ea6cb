"""SQL engine benchmark — compile-and-cache engine vs the naive interpreter.

Not a paper figure: this measures the data side of verification. Every
claim costs at least one SQL execution, agents issue several exploratory
queries per claim, and the service replays near-identical workloads
across requests — so the engine's plan cache, vectorized plans, hash
joins, and shared query-result cache translate directly into verification
latency (the ``sql_seconds`` line of the cost ledger).

Four workloads, each executed through the optimized engine and through
a baseline — ``Engine(naive=True)`` (the original parse-per-call,
walk-per-row interpreter) unless noted — asserting byte-identical
results:

* **repeated-query** — a small set of single-cell aggregates re-executed
  many times, the pipeline's steady state. Exercises the plan cache and
  the shared result cache.
* **equi-join** — distinct join queries over a fact/dimension pair with
  the result cache disabled, so the measured win is the hash-join plan,
  predicate pushdown, and vectorized predicates themselves.
* **agent-trace-replay** — simulated agent tool traces (a few
  exploratory probes per claim, heavy overlap across claims) replayed
  through the per-database shared engine, the service's regime.
* **columnar-scan** — analytic scans, grouped aggregations, and a
  fact/dimension hash join over a million-row fact table (10⁵ in
  ``--fast`` mode). Here the *baseline* is ``Engine(vectorized=False)``:
  the interpreter every default engine falls back to, prepared once per
  text like the optimized arm, so the measured win is the
  columnar/vectorized path plus the statistics-driven optimizer in
  isolation. Result caches are off in both arms and both tables are
  built with :meth:`Table.from_columns`, so no row tuples exist until
  an arm materializes output. Only the optimized arm gets an untimed
  warm-up pass: the interpreter's one-time cost (pivoting rows out of
  the column arrays) is negligible next to its per-row tree walk, and a
  second pass of it would dominate the benchmark's run time.

Run with::

    python -m repro.experiments sqlengine --fast

Writes ``BENCH_sqlengine.json`` next to the working directory so the
speedup numbers are machine-checkable.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass

from repro.sqlengine import (
    Database,
    Engine,
    QueryResultCache,
    Table,
    engine_for,
    engine_stats,
    reset_engine_stats,
)

from .common import format_table

#: How often each repeated-query statement is re-executed (the pipeline
#: re-validates, the service re-verifies, agents retry).
REPEAT_ROUNDS = 40
FAST_REPEAT_ROUNDS = 12

#: Fact-table size; nested-loop joins are quadratic in this.
FACT_ROWS = 400
FAST_FACT_ROWS = 160

#: Columnar-workload fact-table size; every query is linear in this.
COLUMNAR_ROWS = 1_000_000
FAST_COLUMNAR_ROWS = 100_000

REGIONS = ("North", "South", "East", "West")
CATEGORIES = ("storage", "compute", "network", "analytics")

OUTPUT_FILE = "BENCH_sqlengine.json"


@dataclass
class WorkloadResult:
    """Timings for one workload, both arms, plus the identity check."""

    workload: str
    queries: int                 # executions per arm
    naive_seconds: float         # baseline arm (see ``baseline``)
    optimized_seconds: float
    speedup: float
    identical: bool              # byte-identical results across arms
    baseline: str = "naive"      # "naive" | "interpreter" (with caches)


@dataclass
class SqlEngineBenchResult:
    workloads: list[WorkloadResult]
    engine: dict                 # engine_stats() snapshot after the run

    @property
    def all_identical(self) -> bool:
        return all(w.identical for w in self.workloads)

    def speedup(self, workload: str) -> float:
        for entry in self.workloads:
            if entry.workload == workload:
                return entry.speedup
        raise KeyError(workload)


def _build_database(rows: int, seed: int) -> Database:
    """A sales fact table plus a product dimension, deterministic."""
    rng = random.Random(seed)
    products = [f"product-{index:02d}" for index in range(24)]
    database = Database("sqlbench")
    database.add(Table(
        "products",
        ["product", "category", "launch_year"],
        [
            (name, CATEGORIES[index % len(CATEGORIES)],
             2000 + rng.randrange(0, 20))
            for index, name in enumerate(products)
        ],
    ))
    database.add(Table(
        "sales",
        ["region", "product", "units", "price", "year"],
        [
            (
                rng.choice(REGIONS),
                rng.choice(products),
                rng.randrange(1, 500),
                round(rng.uniform(5.0, 400.0), 2),
                2015 + rng.randrange(0, 10),
            )
            for _ in range(rows)
        ],
    ))
    return database


def _repeated_queries(rounds: int) -> list[str]:
    base = [
        "SELECT SUM(units) FROM sales WHERE region = 'North'",
        "SELECT AVG(price) FROM sales WHERE region = 'South'",
        "SELECT COUNT(*) FROM sales WHERE units > 250",
        "SELECT MAX(price) FROM sales WHERE year = 2019",
        "SELECT MIN(units) FROM sales WHERE region = 'East' AND year > 2017",
        "SELECT COUNT(*) FROM sales WHERE region = 'West' OR units < 50",
    ]
    return base * rounds


def _equi_join_queries() -> list[str]:
    queries = []
    for category in CATEGORIES:
        queries.append(
            "SELECT SUM(s.units) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.category = '{category}'"
        )
        queries.append(
            "SELECT COUNT(*) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.category = '{category}' AND s.units > 100"
        )
    for year in (2005, 2010, 2015):
        queries.append(
            "SELECT AVG(s.price) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.launch_year < {year}"
        )
        queries.append(
            "SELECT s.region, COUNT(*) FROM sales s "
            "LEFT JOIN products p ON s.product = p.product "
            f"WHERE s.year >= {year} "
            "GROUP BY s.region ORDER BY s.region"
        )
    return queries


def _build_columnar_database(rows: int, seed: int) -> Database:
    """A wide fact table built column-wise (no row tuples up front)."""
    rng = random.Random(seed)
    products = [f"product-{index:02d}" for index in range(24)]
    database = Database("sqlbench-columnar")
    database.add(Table.from_columns(
        "products",
        ["product", "category", "launch_year"],
        [
            products,
            [CATEGORIES[index % len(CATEGORIES)]
             for index in range(len(products))],
            [2000 + rng.randrange(0, 20) for _ in products],
        ],
    ))
    database.add(Table.from_columns(
        "big_sales",
        ["region", "product", "units", "price", "year"],
        [
            [REGIONS[rng.randrange(len(REGIONS))] for _ in range(rows)],
            [products[rng.randrange(len(products))] for _ in range(rows)],
            [rng.randrange(1, 500) for _ in range(rows)],
            [round(rng.uniform(5.0, 400.0), 2) for _ in range(rows)],
            [2015 + rng.randrange(0, 10) for _ in range(rows)],
        ],
    ))
    return database


def _columnar_queries() -> list[str]:
    return [
        "SELECT COUNT(*) FROM big_sales WHERE units > 250 AND price < 90.0",
        "SELECT region, COUNT(*), SUM(units) FROM big_sales "
        "GROUP BY region ORDER BY region",
        "SELECT SUM(price) FROM big_sales WHERE region = 'North'",
        "SELECT year, AVG(price) FROM big_sales WHERE units > 100 "
        "GROUP BY year ORDER BY year",
        "SELECT MIN(price), MAX(price) FROM big_sales "
        "WHERE year BETWEEN 2017 AND 2019",
        "SELECT p.category, SUM(s.units) FROM big_sales s "
        "JOIN products p ON s.product = p.product "
        "GROUP BY p.category ORDER BY p.category",
    ]


def _agent_trace_queries(rng: random.Random, claims: int) -> list[str]:
    """Per claim: a couple of exploratory probes, then the final query.

    Probes are drawn from small pools (agents rediscover the same
    constants over and over), so traces overlap heavily across claims —
    exactly the shape the shared result cache is built for.
    """
    trace: list[str] = []
    for _ in range(claims):
        region = rng.choice(REGIONS)
        category = rng.choice(CATEGORIES)
        trace.append(f"SELECT COUNT(*) FROM sales WHERE region = '{region}'")
        trace.append(
            "SELECT COUNT(*) FROM sales s "
            "JOIN products p ON s.product = p.product "
            f"WHERE p.category = '{category}'"
        )
        trace.append(
            f"SELECT SUM(units) FROM sales WHERE region = '{region}'"
        )
    return trace


def _run_arm(engine: Engine, queries: list[str]) -> tuple[float, list[str]]:
    """Execute every query, returning wall-clock and serialized results."""
    serialized: list[str] = []
    start = time.perf_counter()
    for sql in queries:
        result = engine.execute(sql)
        serialized.append(repr((result.columns, result.rows)))
    return time.perf_counter() - start, serialized


def _workload(
    name: str,
    database: Database,
    queries: list[str],
    optimized: Engine,
    baseline_engine: "Engine | None" = None,
    baseline: str = "naive",
    warmup: bool = False,
) -> WorkloadResult:
    if baseline_engine is None:
        baseline_engine = Engine(database, naive=True)  # lint: allow-engine
    if warmup:
        # One untimed pass: plan caches, column pivots, and statistics
        # builds are one-time costs; the timed run measures steady-state
        # execution.
        _run_arm(optimized, queries)
    naive_seconds, naive_results = _run_arm(baseline_engine, queries)
    optimized_seconds, optimized_results = _run_arm(optimized, queries)
    return WorkloadResult(
        workload=name,
        queries=len(queries),
        naive_seconds=naive_seconds,
        optimized_seconds=optimized_seconds,
        speedup=(naive_seconds / optimized_seconds
                 if optimized_seconds else float("inf")),
        identical=naive_results == optimized_results,
        baseline=baseline,
    )


def run_sqlengine_bench(
    fast: bool = False, seed: int = 7
) -> SqlEngineBenchResult:
    """Run all four workloads and snapshot the engine counters."""
    rows = FAST_FACT_ROWS if fast else FACT_ROWS
    rounds = FAST_REPEAT_ROUNDS if fast else REPEAT_ROUNDS
    columnar_rows = FAST_COLUMNAR_ROWS if fast else COLUMNAR_ROWS
    database = _build_database(rows, seed)
    columnar_database = _build_columnar_database(columnar_rows, seed + 2)
    reset_engine_stats()

    workloads = [
        _workload(
            "repeated-query",
            database,
            _repeated_queries(rounds),
            Engine(database, result_cache=QueryResultCache(256)),  # lint: allow-engine
        ),
        _workload(
            "equi-join",
            database,
            _equi_join_queries(),
            # Result cache off: measure the hash-join plan itself.
            Engine(database, result_cache=None),  # lint: allow-engine
        ),
        _workload(
            "agent-trace-replay",
            database,
            _agent_trace_queries(random.Random(seed + 1), claims=rounds),
            engine_for(database),
        ),
        _workload(
            "columnar-scan",
            columnar_database,
            _columnar_queries(),
            Engine(  # lint: allow-engine
                columnar_database, vectorized=True, result_cache=None,
            ),
            baseline_engine=Engine(  # lint: allow-engine
                columnar_database, vectorized=False, result_cache=None,
            ),
            baseline="interpreter",
            warmup=True,
        ),
    ]
    return SqlEngineBenchResult(workloads=workloads, engine=engine_stats())


def format_sqlengine_bench(result: SqlEngineBenchResult) -> str:
    lines = [
        "SQL engine benchmark (optimized engine vs naive interpreter)",
        "",
        format_table(
            ["workload", "queries", "baseline", "base-time", "optimized",
             "speedup", "identical"],
            [
                [
                    entry.workload,
                    str(entry.queries),
                    entry.baseline,
                    f"{entry.naive_seconds:.3f}s",
                    f"{entry.optimized_seconds:.3f}s",
                    f"{entry.speedup:.1f}x",
                    "yes" if entry.identical else "NO",
                ]
                for entry in result.workloads
            ],
        ),
        "",
    ]
    strategies = result.engine.get("strategies", {})
    plan = result.engine.get("plan_cache", {})
    optimizer = result.engine.get("optimizer", {})
    plan_lookups = plan.get("hits", 0) + plan.get("misses", 0)
    lines.append(
        f"plan cache: {plan.get('hits', 0)}/{plan_lookups} hits; "
        f"hash joins: {strategies.get('hash_joins', 0)}; "
        f"pushed predicates: {strategies.get('pushed_predicates', 0)}; "
        f"result cache hits: {strategies.get('result_cache_hits', 0)}"
    )
    lines.append(
        f"vectorized: {strategies.get('vectorized_executions', 0)} "
        f"executions ({optimizer.get('plans_vectorized', 0)} plans, "
        f"{strategies.get('vectorized_ineligible', 0)} ineligible, "
        f"{strategies.get('vectorized_runtime_fallbacks', 0)} runtime "
        "fallbacks); "
        f"index probes chosen: {optimizer.get('index_probes_chosen', 0)}"
    )
    lines.append(
        "results: "
        + ("byte-identical across all workloads"
           if result.all_identical else "DIVERGED — bug")
    )
    return "\n".join(lines)


def write_bench_json(
    result: SqlEngineBenchResult, path: str = OUTPUT_FILE
) -> None:
    payload = {
        "workloads": [asdict(entry) for entry in result.workloads],
        "engine": result.engine,
        "all_identical": result.all_identical,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(fast: bool = False) -> str:
    result = run_sqlengine_bench(fast=fast)
    report = format_sqlengine_bench(result)
    print(report)
    write_bench_json(result)
    print(f"wrote {OUTPUT_FILE}")
    return report


if __name__ == "__main__":
    main()
