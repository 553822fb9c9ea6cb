"""Static analyzer tests: the differential guard and the invalid corpus.

Two contracts anchor the analyzer:

* One-directional soundness — any query the naive interpreter executes
  successfully must produce zero analyzer *errors* (warnings are fine).
  The hypothesis suite drives the same databases and query families as
  ``test_differential`` plus analyzer-specific shapes (subqueries,
  functions, CASE, ordinals) through both the naive engine and
  ``analyze_sql`` and cross-checks.
* Pre-execution rejection — a seeded corpus of invalid queries must be
  rejected with the expected stable diagnostic codes, and (for engine
  errors, as opposed to claim-shape verdicts) the naive engine must
  agree that each one actually fails at runtime.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import (
    ANALYZER_COUNTERS,
    Database,
    Engine,
    QueryResultCache,
    Table,
    analyze_sql,
    render_diagnostics,
    reset_engine_stats,
    shape_diagnostics,
)
from repro.sqlengine.analyzer import subquery_is_cacheable
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import STRATEGY_COUNTERS

from tests.sqlengine.test_differential import (
    CORRELATED,
    _JOIN_QUERIES,
    _correlated_db,
    _run,
    databases,
)

# Analyzer-specific query shapes over the same l(k, cat, v) / r(k, w)
# schema the differential suite generates databases for.
_ANALYZER_QUERIES = _JOIN_QUERIES + (
    "SELECT COUNT(*) FROM l WHERE v IN (1, 2, 3)",
    "SELECT cat, v FROM l WHERE v BETWEEN -2 AND 7 ORDER BY 2 DESC, 1",
    "SELECT CASE WHEN v > 0 THEN 'pos' WHEN v < 0 THEN 'neg' "
    "ELSE 'zero' END FROM l",
    "SELECT SUBSTR(cat, 1, 2) || '-' || UPPER(cat) FROM l "
    "ORDER BY v LIMIT 3",
    "SELECT (SELECT MAX(w) FROM r) FROM l",
    "SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    "SELECT v FROM l WHERE k IN (SELECT k FROM r WHERE w > 10)",
    "SELECT AVG(v) FROM l GROUP BY cat HAVING COUNT(*) >= 1",
    "SELECT COALESCE(k, -1), IFNULL(v, 0) FROM l ORDER BY 1, 2",
    "SELECT CAST(v AS TEXT) FROM l WHERE cat LIKE 'r%'",
    "SELECT DISTINCT cat FROM l ORDER BY cat LIMIT 2 OFFSET 1",
    "SELECT l.cat, r.w FROM l LEFT JOIN r ON l.k = r.k "
    "WHERE r.w IS NULL OR l.v = 0",
    "SELECT -v, v % 3 FROM l WHERE NOT (v = 0)",
    "SELECT MIN(cat), MAX(cat) FROM l",
    "SELECT k / v FROM l",
)


@given(databases(), st.sampled_from(_ANALYZER_QUERIES))
@settings(max_examples=150, deadline=None)
def test_naive_success_implies_zero_analyzer_errors(db, sql):
    """The hard contract: naive-executable queries have no errors."""
    outcome = _run(Engine(db, naive=True), sql)
    analysis = analyze_sql(sql, db)
    if outcome[0] == "ok":
        assert not analysis.errors, (
            sql, [d.render() for d in analysis.errors]
        )


# -- lazy-semantics edge cases ------------------------------------------------


def test_unknown_column_on_empty_table_downgrades_to_warning():
    # The naive engine resolves names per evaluated row, so an empty
    # relation succeeds vacuously; an eager "unknown column" error here
    # would be a false positive.
    db = Database("empty")
    db.add(Table("t", ["a"], []))
    sql = "SELECT missing FROM t"
    assert _run(Engine(db, naive=True), sql)[0] == "ok"
    analysis = analyze_sql(sql, db)
    assert not analysis.errors
    assert any(d.code == "SQLA001" for d in analysis.warnings)


def test_filtered_unknown_column_downgrades_to_warning():
    # A WHERE clause makes row evaluation conditional: the analyzer
    # cannot prove any row survives, so the select-list miss is a
    # warning even though this particular filter passes rows through.
    db = Database("w")
    db.add(Table("t", ["a"], [(1,)]))
    analysis = analyze_sql("SELECT missing FROM t WHERE a > 5", db)
    assert not analysis.errors
    assert any(d.code == "SQLA001" for d in analysis.warnings)


def test_nullable_operand_downgrades_type_error():
    # pop + 'abc' raises only when pop is non-NULL; with NULLs present
    # the analyzer cannot prove the row raising, so: warning territory.
    db = Database("n")
    db.add(Table("t", ["a"], [(None,)]))
    analysis = analyze_sql("SELECT a + 'abc' FROM t", db)
    assert not analysis.errors
    assert _run(Engine(db, naive=True), "SELECT a + 'abc' FROM t")[0] == "ok"


# -- the invalid corpus -------------------------------------------------------


def _corpus_db() -> Database:
    db = Database("corpus")
    db.add(Table("city", ["name", "pop", "country"], [
        ("Tokyo", 37400000, "Japan"),
        ("Delhi", 29000000, "India"),
        ("Lima", 10700000, "Peru"),
    ]))
    db.add(Table("country", ["name", "gdp"], [
        ("Japan", 4900000), ("India", 2900000), ("Peru", 230000),
    ]))
    return db


#: (sql, expected code, naive engine also fails at runtime).  The third
#: flag is False only for claim-shape verdicts (SQLA030/SQLA031), which
#: execute fine and are rejected for the claim's sake, and SQLA003 under
#: a cross join where ambiguity is certain but kept as an engine error.
_INVALID_CORPUS = [
    # SQLA001 — unknown column, guaranteed-evaluated contexts.
    ("SELECT nope FROM city", "SQLA001", True),
    ("SELECT city.nope FROM city", "SQLA001", True),
    ("SELECT name, wrong FROM city", "SQLA001", True),
    ("SELECT UPPER(missing) FROM city", "SQLA001", True),
    ("SELECT pop FROM city ORDER BY missing", "SQLA001", True),
    # SQLA002 — unknown table (eagerly raised while building FROM).
    ("SELECT 1 FROM nowhere", "SQLA002", True),
    ("SELECT pop FROM city JOIN nowhere ON 1 = 1", "SQLA002", True),
    ("SELECT ghost.* FROM city", "SQLA002", True),
    ("SELECT pop FROM city, missing_table", "SQLA002", True),
    # SQLA003 — ambiguous reference over a provably non-empty product.
    ("SELECT name FROM city, country", "SQLA003", True),
    # SQLA010 — type mismatches the evaluator is guaranteed to hit.
    ("SELECT pop + 'abc' FROM city", "SQLA010", True),
    ("SELECT -'abc' FROM city", "SQLA010", True),
    ("SELECT 1/0 FROM city", "SQLA010", True),
    ("SELECT 'x' - 'y' FROM city", "SQLA010", True),
    ("SELECT SUM('abc') FROM city", "SQLA010", True),
    # SQLA011 — unknown functions, bad arity, bad argument types.
    ("SELECT NOSUCHFN(name) FROM city", "SQLA011", True),
    ("SELECT ABS(pop, 2) FROM city", "SQLA011", True),
    ("SELECT ROUND(pop, 1, 2) FROM city", "SQLA011", True),
    ("SELECT SUBSTR(name) FROM city", "SQLA011", True),
    ("SELECT NULLIF(name) FROM city", "SQLA011", True),
    ("SELECT ABS('xyz') FROM city", "SQLA011", True),
    ("SELECT AVG(*) FROM city", "SQLA011", True),
    # SQLA012 — cast to a type the engine does not know.
    ("SELECT CAST(pop AS BLOB) FROM city", "SQLA012", True),
    # SQLA013 — ORDER BY ordinal out of range.
    ("SELECT name FROM city ORDER BY 3", "SQLA013", True),
    ("SELECT name, pop FROM city ORDER BY 0", "SQLA013", True),
    # SQLA020 — aggregates where they cannot appear.
    ("SELECT name FROM city WHERE SUM(pop) > 1", "SQLA020", True),
    ("SELECT name FROM city WHERE COUNT(*) > 0", "SQLA020", True),
    ("SELECT COUNT(*) FROM city GROUP BY SUM(pop)", "SQLA020", True),
    ("SELECT SUM(COUNT(*)) FROM city", "SQLA020", True),
    # SQLA022 — '*' in an aggregate select list.
    ("SELECT *, COUNT(*) FROM city", "SQLA022", True),
    # SQLA030 — provably not a single cell (claim-shape verdict).
    ("SELECT name, pop FROM city", "SQLA030", False),
    ("SELECT * FROM city", "SQLA030", False),
    ("SELECT city.name, city.pop, country.gdp FROM city JOIN country "
     "ON city.country = country.name", "SQLA030", False),
    # SQLA031 — result type can never match a numeric claim.
    ("SELECT name IS NULL FROM city", "SQLA031", False),
    ("SELECT NULL FROM city", "SQLA031", False),
    ("SELECT pop > 0 FROM city", "SQLA031", False),
    # SQLA090 — does not parse at all.
    ("SELEC name FROM city", "SQLA090", True),
    ("SELECT name FROM city WHERE (pop > 1", "SQLA090", True),
    ("DROP TABLE city", "SQLA090", True),
]


def test_corpus_is_large_enough():
    assert len(_INVALID_CORPUS) >= 30


@pytest.mark.parametrize("sql,code,_naive_fails", _INVALID_CORPUS)
def test_invalid_query_rejected_with_expected_code(sql, code, _naive_fails):
    db = _corpus_db()
    analysis = analyze_sql(sql, db)
    diagnostics = analysis.errors or shape_diagnostics(
        analysis, claim_numeric=True
    )
    assert code in {d.code for d in diagnostics}, (
        sql, render_diagnostics(diagnostics)
    )


@pytest.mark.parametrize(
    "sql,code,naive_fails",
    [entry for entry in _INVALID_CORPUS if entry[2]],
)
def test_engine_errors_in_corpus_agree_with_naive(sql, code, naive_fails):
    # Soundness spot-check on the corpus itself: every analyzer *error*
    # claims a guaranteed runtime failure — so the naive oracle must
    # indeed fail each of these.
    assert _run(Engine(_corpus_db(), naive=True), sql)[0] == "error", sql


# -- cacheability verdicts ----------------------------------------------------


def test_correlated_subquery_classified_uncacheable():
    statement = parse_select(CORRELATED)
    subquery = statement.items[1].expression.query
    assert not subquery_is_cacheable(subquery, _correlated_db())


def test_uncorrelated_subquery_classified_cacheable():
    statement = parse_select("SELECT (SELECT MAX(cap) FROM dept) FROM emp")
    subquery = statement.items[0].expression.query
    assert subquery_is_cacheable(subquery, _correlated_db())


def test_correlated_subquery_bypasses_cache_with_explicit_counter():
    reset_engine_stats()
    db = _correlated_db()
    cache = QueryResultCache(32)
    Engine(db, result_cache=cache).execute(CORRELATED)
    # Only the top-level statement lands in the cache; the analyzer's
    # verdict (not convention) routed the inner query around it.
    assert len(cache) == 1
    snapshot = STRATEGY_COUNTERS.snapshot()
    assert snapshot["subquery_cache_bypasses"] > 0
    assert snapshot["subquery_cache_hits"] == 0
    assert snapshot["subquery_cache_misses"] == 0


def test_uncorrelated_subquery_served_from_result_cache():
    reset_engine_stats()
    db = Database("u")
    db.add(Table("l", ["k", "v"], [(1, 10), (2, 20), (3, 30)]))
    db.add(Table("r", ["k", "w"], [(1, 5)]))
    cache = QueryResultCache(32)
    engine = Engine(db, result_cache=cache)
    sql = "SELECT v - (SELECT MAX(w) FROM r) FROM l"
    result = engine.execute(sql)
    assert result.rows == [(5,), (15,), (25,)]
    snapshot = STRATEGY_COUNTERS.snapshot()
    # The plan binds the sub-query once, not once per outer row.
    assert snapshot["subquery_cache_misses"] == 1
    assert snapshot["subquery_cache_hits"] == 0
    # Another statement binding the same sub-query is served the result.
    engine.execute("SELECT v + (SELECT MAX(w) FROM r) FROM l")
    snapshot = STRATEGY_COUNTERS.snapshot()
    assert snapshot["subquery_cache_misses"] == 1
    assert snapshot["subquery_cache_hits"] == 1
    # Identical results to the naive oracle, as always.
    assert _run(Engine(db, naive=True), sql) == _run(engine, sql)


def test_naive_engine_never_touches_subquery_cache():
    reset_engine_stats()
    db = _correlated_db()
    Engine(db, naive=True).execute(CORRELATED)
    snapshot = STRATEGY_COUNTERS.snapshot()
    assert snapshot["subquery_cache_bypasses"] == 0
    assert snapshot["subquery_cache_misses"] == 0


# -- memoization and counters -------------------------------------------------


def test_analysis_memoized_and_invalidated_by_schema_change():
    reset_engine_stats()
    db = Database("memo")
    db.add(Table("t", ["a"], [(1,)]))
    first = analyze_sql("SELECT b FROM t", db)
    assert first.errors
    again = analyze_sql("SELECT   b \n FROM t", db)
    assert again is first               # normalized-SQL memo hit
    assert ANALYZER_COUNTERS.snapshot()["memo_hits"] >= 1
    db.add(Table("t", ["a", "b"], [(1, 2)]))
    healed = analyze_sql("SELECT b FROM t", db)
    assert not healed.errors            # fingerprint change invalidated


def test_counters_track_errors_and_warnings():
    reset_engine_stats()
    db = _corpus_db()
    analyze_sql("SELECT nope FROM city", db)
    analyze_sql("SELECT pop FROM city GROUP BY country", db)
    snapshot = ANALYZER_COUNTERS.snapshot()
    assert snapshot["queries_analyzed"] == 2
    assert snapshot["errors"] >= 1
    assert snapshot["warnings"] >= 1


# -- compiled IN-list regression ---------------------------------------------


def test_in_list_items_evaluate_eagerly_like_naive():
    # The compiled IN used to early-exit on the first match, skipping a
    # later raising item the naive engine always evaluates.
    db = Database("in")
    db.add(Table("t", ["k"], [(1,)]))
    sql = "SELECT k IN (1, 1/0) FROM t"
    naive = _run(Engine(db, naive=True), sql)
    assert naive[0] == "error"
    assert _run(Engine(db, result_cache=None), sql) == naive
