"""Static analyzer benchmark — overhead and rejection counts.

Not a paper figure: this measures the cost side of the analyzer gate.
Every LLM-generated query is statically analyzed before it executes, so
the analysis must be cheap relative to execution (<5% of the mean
execution time, amortized — the analysis lives on the query's prepared
handle: the first sight of a query pays for parsing and the schema walk,
repeats are a dictionary hit). The benchmark also replays a seeded corpus of
invalid queries and counts rejections per diagnostic code, pinning the
analyzer's recall on the failure shapes agents actually produce.

Run with::

    python -m repro.experiments analyzer --fast

Writes ``BENCH_analyzer.json`` so the overhead ratio and rejection
counts are machine-checkable.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass

from repro.sqlengine import (
    Database,
    Engine,
    Table,
    analyze_sql,
    engine_stats,
    reset_engine_stats,
    shape_diagnostics,
)

from .common import format_table

#: How often the valid workload is replayed (the pipeline re-validates,
#: agents retry, the service re-verifies).
REPEAT_ROUNDS = 40
FAST_REPEAT_ROUNDS = 12

#: Fact-table size for the valid workload.
FACT_ROWS = 400
FAST_FACT_ROWS = 160

#: Acceptance ceiling: amortized analysis time per query must stay under
#: this fraction of the mean execution time.
OVERHEAD_CEILING = 0.05

OUTPUT_FILE = "BENCH_analyzer.json"

REGIONS = ("North", "South", "East", "West")

#: Seeded corpus of invalid queries with the diagnostic code each must
#: trigger. Mirrors the shapes simulated agents actually emit: misspelt
#: identifiers, type confusions, misplaced aggregates, claim-shape
#: mismatches, and outright parse failures.
INVALID_CORPUS: list[tuple[str, str]] = [
    # SQLA001 — unknown column.
    ("SELECT nope FROM sales", "SQLA001"),
    ("SELECT sales.nope FROM sales", "SQLA001"),
    ("SELECT region, wrong FROM sales", "SQLA001"),
    ("SELECT UPPER(missing) FROM sales", "SQLA001"),
    ("SELECT amount FROM sales ORDER BY missing", "SQLA001"),
    # SQLA002 — unknown table.
    ("SELECT 1 FROM nowhere", "SQLA002"),
    ("SELECT amount FROM sales JOIN nowhere ON 1 = 1", "SQLA002"),
    ("SELECT ghost.* FROM sales", "SQLA002"),
    ("SELECT amount FROM sales, missing_table", "SQLA002"),
    # SQLA003 — ambiguous reference over a provably non-empty product.
    ("SELECT product FROM sales, products", "SQLA003"),
    # SQLA010 — guaranteed type mismatches.
    ("SELECT amount + 'abc' FROM sales", "SQLA010"),
    ("SELECT -'abc' FROM sales", "SQLA010"),
    ("SELECT 1/0 FROM sales", "SQLA010"),
    ("SELECT 'x' - 'y' FROM sales", "SQLA010"),
    ("SELECT SUM('abc') FROM sales", "SQLA010"),
    # SQLA011 — unknown functions, bad arity, bad argument types.
    ("SELECT NOSUCHFN(region) FROM sales", "SQLA011"),
    ("SELECT ABS(amount, 2) FROM sales", "SQLA011"),
    ("SELECT ROUND(amount, 1, 2) FROM sales", "SQLA011"),
    ("SELECT SUBSTR(region) FROM sales", "SQLA011"),
    ("SELECT ABS('xyz') FROM sales", "SQLA011"),
    ("SELECT AVG(*) FROM sales", "SQLA011"),
    # SQLA012 — unknown cast target.
    ("SELECT CAST(amount AS BLOB) FROM sales", "SQLA012"),
    # SQLA013 — ORDER BY ordinal out of range.
    ("SELECT region FROM sales ORDER BY 5", "SQLA013"),
    ("SELECT region, amount FROM sales ORDER BY 0", "SQLA013"),
    # SQLA020 — aggregates where they cannot appear.
    ("SELECT region FROM sales WHERE SUM(amount) > 1", "SQLA020"),
    ("SELECT region FROM sales WHERE COUNT(*) > 0", "SQLA020"),
    ("SELECT COUNT(*) FROM sales GROUP BY SUM(amount)", "SQLA020"),
    ("SELECT SUM(COUNT(*)) FROM sales", "SQLA020"),
    # SQLA022 — '*' in an aggregate select list.
    ("SELECT *, COUNT(*) FROM sales", "SQLA022"),
    # SQLA030 — provably not a single cell (claim-shape verdict).
    ("SELECT region, amount FROM sales", "SQLA030"),
    ("SELECT * FROM sales", "SQLA030"),
    # SQLA031 — result type can never match a numeric claim.
    ("SELECT region IS NULL FROM sales", "SQLA031"),
    ("SELECT amount > 0 FROM sales", "SQLA031"),
    # SQLA090 — does not parse at all.
    ("SELEC region FROM sales", "SQLA090"),
    ("SELECT region FROM sales WHERE (amount > 1", "SQLA090"),
    ("DROP TABLE sales", "SQLA090"),
]

#: Valid single-cell workload for the overhead measurement: the steady
#: state of the pipeline (aggregates, joins, correlated filters).
VALID_WORKLOAD = [
    "SELECT COUNT(*) FROM sales",
    "SELECT SUM(amount) FROM sales WHERE region = 'North'",
    "SELECT AVG(amount) FROM sales WHERE region = 'South'",
    "SELECT MAX(amount) FROM sales",
    "SELECT MIN(amount) FROM sales WHERE units > 3",
    "SELECT COUNT(*) FROM sales JOIN products "
    "ON sales.product = products.product WHERE products.price > 50",
    "SELECT SUM(sales.amount) FROM sales JOIN products "
    "ON sales.product = products.product WHERE products.price < 40",
    "SELECT region FROM sales WHERE amount = "
    "(SELECT MAX(amount) FROM sales) LIMIT 1",
]


@dataclass
class AnalyzerBenchResult:
    """Overhead timings plus the rejection census."""

    corpus_size: int
    rejected: int                   # invalid queries rejected pre-execution
    rejections_by_code: dict[str, int]
    queries_executed: int           # valid workload, per arm
    execute_seconds: float
    analyze_seconds: float
    overhead_ratio: float           # analyze_seconds / execute_seconds
    engine: dict                    # engine_stats() snapshot after the run

    @property
    def all_rejected(self) -> bool:
        return self.rejected == self.corpus_size

    @property
    def within_budget(self) -> bool:
        return self.overhead_ratio < OVERHEAD_CEILING


def _build_database(rows: int, seed: int) -> Database:
    """A sales fact table plus a product dimension, deterministic."""
    rng = random.Random(seed)
    products = [f"product-{index:02d}" for index in range(24)]
    database = Database("analyzerbench")
    database.add(Table(
        "products",
        ["product", "price"],
        [(name, rng.randint(5, 95)) for name in products],
    ))
    database.add(Table(
        "sales",
        ["region", "product", "amount", "units"],
        [
            (rng.choice(REGIONS), rng.choice(products),
             rng.randint(10, 5000), rng.randint(1, 9))
            for _ in range(rows)
        ],
    ))
    return database


def run_analyzer_bench(
    fast: bool = False, seed: int = 7
) -> AnalyzerBenchResult:
    """Measure analysis overhead and replay the invalid corpus."""
    rows = FAST_FACT_ROWS if fast else FACT_ROWS
    rounds = FAST_REPEAT_ROUNDS if fast else REPEAT_ROUNDS
    database = _build_database(rows, seed)
    reset_engine_stats()
    # Result cache off for the execution arm: with it on, repeats in
    # both arms collapse to dictionary lookups of comparable cost and
    # the ratio measures nothing. This arm measures the engine actually
    # computing results (plan cache and compiled evaluators stay on).
    engine = Engine(database, result_cache=None)  # lint: allow-engine

    # Arm 1: execution (first round compiles, repeats hit the prepared
    # handles but still evaluate over every row).
    started = time.perf_counter()
    for _ in range(rounds):
        for sql in VALID_WORKLOAD:
            engine.execute(sql)
    execute_seconds = time.perf_counter() - started

    # Arm 2: analysis of the identical stream (first sight parses and
    # walks the schema, repeats are memo hits).
    started = time.perf_counter()
    for _ in range(rounds):
        for sql in VALID_WORKLOAD:
            analyze_sql(sql, database)
    analyze_seconds = time.perf_counter() - started

    # Rejection census over the seeded invalid corpus. Claim-shape codes
    # (SQLA030/031) are not engine errors, so fold in the single-cell /
    # numeric-claim verdicts exactly as the plausibility gate does.
    by_code: Counter[str] = Counter()
    rejected = 0
    for sql, expected_code in INVALID_CORPUS:
        analysis = analyze_sql(sql, database)
        diagnostics = analysis.errors or shape_diagnostics(
            analysis, claim_numeric=True
        )
        codes = {diagnostic.code for diagnostic in diagnostics}
        if diagnostics:
            rejected += 1
            by_code[expected_code if expected_code in codes
                    else sorted(codes)[0]] += 1

    return AnalyzerBenchResult(
        corpus_size=len(INVALID_CORPUS),
        rejected=rejected,
        rejections_by_code=dict(sorted(by_code.items())),
        queries_executed=rounds * len(VALID_WORKLOAD),
        execute_seconds=execute_seconds,
        analyze_seconds=analyze_seconds,
        overhead_ratio=(analyze_seconds / execute_seconds
                        if execute_seconds else float("inf")),
        engine=engine_stats(),
    )


def format_analyzer_bench(result: AnalyzerBenchResult) -> str:
    lines = [
        "Static analyzer benchmark (overhead vs execution, rejection census)",
        "",
        format_table(
            ["metric", "value"],
            [
                ["valid queries executed", str(result.queries_executed)],
                ["execution time", f"{result.execute_seconds:.4f}s"],
                ["analysis time", f"{result.analyze_seconds:.4f}s"],
                ["overhead ratio",
                 f"{result.overhead_ratio:.2%} "
                 f"(budget {OVERHEAD_CEILING:.0%})"],
                ["invalid corpus",
                 f"{result.rejected}/{result.corpus_size} rejected"],
            ],
        ),
        "",
        format_table(
            ["code", "rejections"],
            [[code, str(count)]
             for code, count in result.rejections_by_code.items()],
        ),
    ]
    return "\n".join(lines)


def write_bench_json(
    result: AnalyzerBenchResult, path: str = OUTPUT_FILE
) -> None:
    payload = asdict(result)
    payload["all_rejected"] = result.all_rejected
    payload["within_budget"] = result.within_budget
    payload["overhead_ceiling"] = OVERHEAD_CEILING
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(fast: bool = False) -> str:
    result = run_analyzer_bench(fast=fast)
    report = format_analyzer_bench(result)
    print(report)
    write_bench_json(result)
    print(f"wrote {OUTPUT_FILE}")
    return report


if __name__ == "__main__":
    main()
