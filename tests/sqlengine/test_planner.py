"""Plan/result caches, prepared handles, normalization, counters, and table
memoization."""

import copy
import math
import sys
import threading

import pytest

from repro.sqlengine import (
    Database,
    Engine,
    PlanCache,
    QueryResultCache,
    SqlError,
    Table,
    analyze_sql,
    engine_for,
    engine_stats,
    normalize_sql,
    reset_engine_stats,
    set_vectorized_default,
    shared_plan_cache,
)
from repro.sqlengine import analyzer, planner, vectorized
from repro.sqlengine.planner import STRATEGY_COUNTERS


def _database():
    db = Database("planner")
    db.add(Table(
        "t",
        ["name", "score"],
        [("a", 1), ("b", 2), ("c", None), ("b", 4)],
    ))
    return db


# -- normalize_sql ------------------------------------------------------------

def test_normalize_collapses_whitespace():
    assert normalize_sql("SELECT   a\n  FROM\tt") == "SELECT a FROM t"


def test_normalize_strips_leading_and_trailing_space():
    assert normalize_sql("  SELECT a  ") == "SELECT a"


def test_normalize_preserves_quoted_whitespace():
    sql = "SELECT a FROM t WHERE name = 'two  spaces'"
    assert normalize_sql("SELECT  a FROM t WHERE name = 'two  spaces'") == sql


def test_normalize_preserves_quoted_identifier_whitespace():
    sql = 'SELECT "weird  col" FROM t'
    assert normalize_sql('SELECT   "weird  col"  FROM  t') == sql


def test_normalize_handles_doubled_quotes():
    # 'it''s  fine' closes and reopens; the doubled spacing must survive.
    sql = "SELECT a FROM t WHERE name = 'it''s  fine'"
    assert normalize_sql(
        "SELECT  a FROM t WHERE name = 'it''s  fine'"
    ) == sql


def test_normalize_keeps_keyword_case():
    assert normalize_sql("select a from t") == "select a from t"


# -- LRU cache skeleton (now repro.cache.TieredCache behind the facades) ------

def test_lru_eviction_order():
    cache = PlanCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")          # refresh a; b is now least-recent
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


def test_lru_stats_track_hits_and_misses():
    cache = PlanCache(4)
    cache.put("k", "v")
    cache.get("k")
    cache.get("absent")
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["size"] == 1
    assert stats["hit_rate"] == 0.5


def test_lru_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        PlanCache(0)


# -- plan cache ---------------------------------------------------------------

def test_plan_cache_shared_across_engines():
    db = _database()
    plan_cache = PlanCache(16)
    first = Engine(db, plan_cache=plan_cache, result_cache=None)
    second = Engine(db, plan_cache=plan_cache, result_cache=None)
    first.execute("SELECT COUNT(*) FROM t")
    before = plan_cache.stats()["hits"]
    second.execute("SELECT  COUNT(*)  FROM t")   # normalizes to same key
    assert plan_cache.stats()["hits"] == before + 1


def test_plan_cache_skips_failed_parses():
    db = _database()
    plan_cache = PlanCache(16)
    engine = Engine(db, plan_cache=plan_cache, result_cache=None)
    with pytest.raises(Exception):
        engine.execute("SELECT FROM WHERE")
    assert len(plan_cache) == 0


def test_naive_engine_bypasses_shared_plan_cache():
    reset_engine_stats()
    db = _database()
    engine = Engine(db, naive=True)
    engine.execute("SELECT COUNT(*) FROM t")
    stats = engine_stats()
    assert stats["plan_cache"]["hits"] == 0
    assert stats["plan_cache"]["misses"] == 0
    assert stats["strategies"]["naive_executions"] == 1


# -- result cache -------------------------------------------------------------

def test_result_cache_hit_returns_equal_rows():
    db = _database()
    engine = Engine(db, result_cache=QueryResultCache(8))
    first = engine.execute("SELECT score FROM t ORDER BY name")
    second = engine.execute("SELECT score FROM t ORDER BY name")
    assert first.rows == second.rows
    assert engine.result_cache.stats()["hits"] == 1


def test_result_cache_copies_are_isolated():
    db = _database()
    engine = Engine(db, result_cache=QueryResultCache(8))
    first = engine.execute("SELECT score FROM t ORDER BY name")
    first.rows.append(("tampered",))
    second = engine.execute("SELECT score FROM t ORDER BY name")
    assert ("tampered",) not in second.rows


def test_result_cache_invalidated_by_database_mutation():
    db = _database()
    engine = Engine(db, result_cache=QueryResultCache(8))
    before = engine.execute("SELECT COUNT(*) FROM t").first_cell()
    db.add(Table("t", ["name", "score"], [("only", 9)]))
    after = engine.execute("SELECT COUNT(*) FROM t").first_cell()
    assert (before, after) == (4, 1)


def test_deepcopied_database_gets_a_fresh_fingerprint():
    db = _database()
    clone = copy.deepcopy(db)
    assert clone.fingerprint() != db.fingerprint()
    cache = QueryResultCache(8)
    Engine(db, result_cache=cache).execute("SELECT COUNT(*) FROM t")
    # The clone's first execution must miss: its entries are its own.
    misses = cache.stats()["misses"]
    Engine(clone, result_cache=cache).execute("SELECT COUNT(*) FROM t")
    assert cache.stats()["misses"] == misses + 1


def test_fingerprint_version_bumps_on_add():
    db = _database()
    token, version = db.fingerprint()
    db.add(Table("u", ["x"], [(1,)]))
    assert db.fingerprint() == (token, version + 1)


# -- engine_for ---------------------------------------------------------------

def test_engine_for_returns_one_engine_per_database():
    db = _database()
    assert engine_for(db) is engine_for(db)


def test_engine_for_distinct_databases_distinct_engines():
    assert engine_for(_database()) is not engine_for(_database())


def test_engine_for_rebinds_result_cache():
    db = _database()
    engine = engine_for(db)
    replacement = QueryResultCache(4)
    assert engine_for(db, replacement) is engine
    assert engine.result_cache is replacement
    assert engine_for(db, None) is engine
    assert engine.result_cache is None
    # UNSET leaves the previous binding alone.
    assert engine_for(db).result_cache is None


def test_engine_for_default_has_caches():
    engine = engine_for(_database())
    assert engine.result_cache is not None
    assert engine.plan_cache is shared_plan_cache()


# -- strategy counters --------------------------------------------------------

def test_strategy_counters_record_hash_join():
    reset_engine_stats()
    db = Database("joins")
    db.add(Table("a", ["k", "v"], [(1, "x"), (2, "y")]))
    db.add(Table("b", ["k", "w"], [(1, 10), (3, 30)]))
    Engine(db, result_cache=None).execute(
        "SELECT v, w FROM a JOIN b ON a.k = b.k"
    )
    snapshot = STRATEGY_COUNTERS.snapshot()
    assert snapshot["hash_joins"] == 1


def test_engine_stats_shape():
    stats = engine_stats()
    assert set(stats) == {
        "plan_cache", "strategies", "analyzer", "optimizer", "stats",
    }
    assert {"hits", "lookups", "hit_rate"} <= set(stats["plan_cache"])
    assert "pushed_predicates" in stats["strategies"]
    assert "vectorized_executions" in stats["strategies"]
    assert "queries_analyzed" in stats["analyzer"]
    assert "rejected_pre_execution" in stats["analyzer"]
    assert "plans_vectorized" in stats["optimizer"]
    assert "columns_profiled" in stats["stats"]


# -- prepared handles ---------------------------------------------------------

PREPARED_TEXTS = (
    "SELECT SUM(score) FROM t WHERE name = 'b'",
    "SELECT COUNT(*) FROM t",
    "SELECT name FROM t WHERE score > 1 ORDER BY score",
)


@pytest.fixture
def front_end_calls(monkeypatch):
    """Count parses, analyses and vectorized plan builds."""
    calls = {"parse": 0, "analyze": 0, "build_plan": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(planner, "parse_select",
                        counted("parse", planner.parse_select))
    monkeypatch.setattr(analyzer, "analyze_statement",
                        counted("analyze", analyzer.analyze_statement))
    monkeypatch.setattr(vectorized, "build_plan",
                        counted("build_plan", vectorized.build_plan))
    return calls


def _analyze_execute_label(db, texts):
    engine = engine_for(db)
    for sql in texts:
        assert analyze_sql(sql, db).ok
        engine.execute(sql)
        assert engine.plan_label(sql).startswith("vectorized")


def test_each_text_is_parsed_analyzed_and_planned_once(front_end_calls):
    db = _database()
    engine = engine_for(db)
    texts = PREPARED_TEXTS + ("SELECT  COUNT(*)\n FROM t",)  # a respacing
    for _ in range(3):
        _analyze_execute_label(db, texts)
    once = dict.fromkeys(front_end_calls, len(PREPARED_TEXTS))
    assert front_end_calls == once
    assert engine.prepare(texts[-1]) is engine.prepare(texts[1])
    assert engine_stats()["plan_cache"]["misses"] == len(PREPARED_TEXTS)

    # A fingerprint bump re-prepares: fresh analysis and plan, no parse
    # (the shared plan cache still holds the statement).
    stale = engine.prepare(PREPARED_TEXTS[0])
    db.add(Table("u", ["x"], [(1,)]))
    assert engine.prepare(PREPARED_TEXTS[0]) is not stale
    _analyze_execute_label(db, PREPARED_TEXTS)
    assert front_end_calls == {"parse": 3, "analyze": 6, "build_plan": 6}

    # So does a vectorized-default toggle, and the label follows the mode.
    stale = engine.prepare(PREPARED_TEXTS[0])
    previous = set_vectorized_default(False)
    try:
        handle = engine.prepare(PREPARED_TEXTS[0])
        assert handle is not stale
        assert engine.plan_label(PREPARED_TEXTS[0]) == "row"
    finally:
        set_vectorized_default(previous)
    assert engine.prepare(PREPARED_TEXTS[0]) is not handle


def test_threads_preparing_one_text_share_a_handle():
    db = _database()
    engine = engine_for(db)
    workers = 8
    barrier = threading.Barrier(workers, timeout=10)
    results = []

    def prepare():
        barrier.wait()
        for sql in PREPARED_TEXTS:
            handle = engine.prepare(sql)
            results.append((sql, handle, handle.analysis, handle.label))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=prepare) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == workers * len(PREPARED_TEXTS)
    for sql, handle, analysis, label in results:
        assert handle is engine.prepare(sql)
        assert analysis == handle.analysis
        assert label == handle.label
        assert handle.statement == shared_plan_cache().parse(sql)


@pytest.mark.parametrize("bad", [
    "SELECT FROM WHERE",
    "SELECT name FROM t WHERE name = 'unterminated",
])
def test_syntax_error_text_fails_the_same_way_every_time(bad):
    db = _database()
    with pytest.raises(SqlError) as oracle:
        Engine(db, naive=True).execute(bad)
    message = str(oracle.value)
    for _ in range(3):
        analysis = analyze_sql(bad, db)
        assert [d.code for d in analysis.errors] == ["SQLA090"]
        assert analysis.errors[0].message == f"syntax error: {message}"
        with pytest.raises(type(oracle.value)) as raised:
            engine_for(db).execute(bad)
        assert str(raised.value) == message
        assert engine_for(db).plan_label(bad) == "row"
    assert engine_for(db).prepare(bad).error == message


# -- table memoization --------------------------------------------------------

def test_columns_memoized():
    table = Table("t", ["a", "b"], [(1, 2)])
    assert table.columns() is not None
    assert table._columns_cache is not None
    again = table.columns()
    assert [c.name for c in again] == ["a", "b"]


def test_unique_column_values_memoized_and_isolated():
    table = Table("t", ["a"], [(3,), (1,), (3,), (None,)])
    first = table.unique_column_values("a")
    second = table.unique_column_values("a")
    assert first == second
    assert first is not second          # callers get their own list
    first.append("tampered")
    assert table.unique_column_values("a") == second


def test_equality_rows_matches_compare_semantics():
    table = Table("t", ["a"], [(1,), ("1",), (2.0,), (None,), ("x",)])
    # compare_values treats 1 and '1' as equal numbers; the index must too.
    assert table.equality_rows("a", 1) == [0, 1]
    assert table.equality_rows("a", "2") == [2]
    assert table.equality_rows("a", "x") == [4]
    assert table.equality_rows("a", "absent") == []
    # NULL probes and NULL cells never match.
    assert table.equality_rows("a", None) is None


def test_equality_rows_bails_on_nan():
    table = Table("t", ["a"], [(1.0,), (math.nan,)])
    assert table.equality_rows("a", 1.0) is None
    clean = Table("t", ["a"], [(1.0,)])
    assert clean.equality_rows("a", math.nan) is None
