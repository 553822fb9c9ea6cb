"""Differential tests: the default engine vs ``naive=True``.

The optimization contract is byte-identical behaviour — every plan-cache
hit, pushed predicate, indexed scan, hash join, bound sub-query and
vectorized batch plan must produce exactly the rows (and exactly the
errors) of the original parse-per-call interpreter. The property tests
drive both arms over a query family chosen to hit the interesting
strategy boundaries: NULL join keys, LEFT joins with pushable WHERE
conjuncts, OR-connected predicates (not splittable), and grouped
aggregates. A second family targets the vectorized path's soundness
gates specifically: NaN/inf columns, mixed-type columns, NULL-heavy and
empty tables, GROUP BY over all-NULL keys, FROM-less selects,
uncorrelated sub-queries (including ones that raise only where the
interpreter would reach them) and global aggregates over empty
relations.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, Engine, QueryResultCache, Table
from repro.sqlengine.errors import SqlError
from repro.sqlengine.planner import STRATEGY_COUNTERS

_KEYS = st.one_of(st.none(), st.integers(0, 4))
_CATS = ("red", "green", "blue")


@st.composite
def databases(draw):
    left_rows = draw(st.lists(
        st.tuples(_KEYS, st.sampled_from(_CATS), st.integers(-10, 10)),
        min_size=0, max_size=12,
    ))
    right_rows = draw(st.lists(
        st.tuples(_KEYS, st.integers(0, 100)),
        min_size=0, max_size=12,
    ))
    db = Database("diff")
    db.add(Table("l", ["k", "cat", "v"], left_rows))
    db.add(Table("r", ["k", "w"], right_rows))
    return db


_JOIN_QUERIES = (
    # INNER hash join; NULL keys on either side must never match.
    "SELECT l.k, cat, w FROM l JOIN r ON l.k = r.k ORDER BY w, cat",
    # LEFT join with a pushable single-table WHERE conjunct on the left.
    "SELECT cat, w FROM l LEFT JOIN r ON l.k = r.k "
    "WHERE v > 0 ORDER BY cat, w",
    # LEFT join where the predicate targets the padded (right) side —
    # must NOT be pushed below the join (it would drop padded rows).
    "SELECT cat, w FROM l LEFT JOIN r ON l.k = r.k "
    "WHERE w IS NULL ORDER BY cat",
    # OR across tables: not splittable, stays a residual filter.
    "SELECT cat, w FROM l JOIN r ON l.k = r.k "
    "WHERE v > 5 OR w < 50 ORDER BY cat, w",
    # Equality probe eligible for an indexed scan.
    "SELECT v FROM l WHERE cat = 'red' ORDER BY v",
    # Grouped aggregate with HAVING over the join.
    "SELECT cat, COUNT(*), SUM(w) FROM l JOIN r ON l.k = r.k "
    "GROUP BY cat HAVING COUNT(*) > 1 ORDER BY cat",
    # Cross join (comma syntax) with a join predicate in WHERE.
    "SELECT cat, w FROM l, r WHERE l.k = r.k AND v >= 0 ORDER BY cat, w",
    # Plain aggregates over an empty-able group.
    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM l WHERE v > 3",
)


def _run(engine, sql):
    try:
        result = engine.execute(sql)
    except SqlError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, result.rows)


@given(databases(), st.sampled_from(_JOIN_QUERIES))
@settings(max_examples=120, deadline=None)
def test_optimized_matches_naive(db, sql):
    naive = _run(Engine(db, naive=True), sql)
    optimized_engine = Engine(db, result_cache=QueryResultCache(32))
    assert _run(optimized_engine, sql) == naive
    # Second execution answers from the result cache — still identical.
    assert _run(optimized_engine, sql) == naive


@given(databases())
@settings(max_examples=60, deadline=None)
def test_null_join_keys_never_match(db):
    sql = "SELECT l.k, r.k FROM l JOIN r ON l.k = r.k"
    naive = _run(Engine(db, naive=True), sql)
    optimized = _run(Engine(db, result_cache=None), sql)
    assert optimized == naive
    if naive[0] == "ok":
        assert all(k is not None for row in naive[2] for k in row)


def _correlated_db():
    db = Database("corr")
    db.add(Table("emp", ["dept", "salary"],
                 [("a", 10), ("a", 30), ("b", 20), ("b", 40)]))
    db.add(Table("dept", ["dept", "cap"], [("a", 25), ("b", 35)]))
    return db


CORRELATED = (
    "SELECT d.dept, (SELECT COUNT(*) FROM emp e "
    "WHERE e.dept = d.dept AND e.salary > d.cap) FROM dept d "
    "ORDER BY d.dept"
)


def test_correlated_subquery_matches_naive():
    db = _correlated_db()
    naive = _run(Engine(db, naive=True), CORRELATED)
    assert _run(Engine(db, result_cache=QueryResultCache(32)), CORRELATED) \
        == naive
    assert naive[0] == "ok"
    assert naive[2] == [("a", 1), ("b", 1)]


def test_correlated_subquery_bypasses_result_cache():
    db = _correlated_db()
    cache = QueryResultCache(32)
    engine = Engine(db, result_cache=cache)
    engine.execute(CORRELATED)
    # Only the top-level statement lands in the cache; the inner query,
    # evaluated once per outer row, never consults it.
    assert len(cache) == 1
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 0
    engine.execute(CORRELATED)
    assert cache.stats()["hits"] == 1


def test_unknown_column_error_matches_naive():
    db = _correlated_db()
    sql = "SELECT nope FROM emp"
    naive = _run(Engine(db, naive=True), sql)
    optimized = _run(Engine(db, result_cache=None), sql)
    assert naive[0] == "error"
    assert optimized == naive


def test_division_by_zero_error_matches_naive():
    db = Database("dz")
    db.add(Table("t", ["a", "b"], [(1, 0)]))
    sql = "SELECT a / b FROM t"
    naive = _run(Engine(db, naive=True), sql)
    optimized = _run(Engine(db, result_cache=None), sql)
    assert naive[0] == "error"
    assert optimized == naive


# -- vectorized path ----------------------------------------------------------
#
# These drive the vectorized batch plans against the naive oracle AND a
# default engine with vectorization off (the interpreter behind the
# caches). Comparisons go through repr() so NaN cells (which are !=
# themselves) still compare, and so -0.0 vs 0.0 divergence would be
# caught rather than masked.

_NAN = float("nan")
_INF = float("inf")

_NUMS = st.one_of(st.none(), st.integers(-5, 5))
_FLOATS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from((0.5, -2.25, 1e15, _NAN, _INF, -_INF)),
)
_MIXED = st.one_of(
    st.none(), st.integers(-3, 3), st.booleans(),
    st.sampled_from(("x", "7", "", "y z")), st.just(_NAN),
)
_TEXTS = st.one_of(st.none(), st.sampled_from(("ab", "c", "", "zz")))


@st.composite
def vectorized_databases(draw):
    v_rows = draw(st.lists(
        st.tuples(_NUMS, _FLOATS, _MIXED, _TEXTS), min_size=0, max_size=14,
    ))
    j_rows = draw(st.lists(
        st.tuples(_FLOATS, st.integers(0, 50)), min_size=0, max_size=10,
    ))
    db = Database("vecdiff")
    db.add(Table("v", ["num", "fnum", "mix", "txt"], v_rows))
    db.add(Table("j", ["k", "w"], j_rows))
    return db


_VECTOR_QUERIES = (
    # Numeric scan + arithmetic (inf/NaN columns force the row path; the
    # classes are per-database, so both outcomes are exercised).
    "SELECT num, num + 1, num * 2 FROM v WHERE num > 0 ORDER BY 1, 2",
    # Mixed-type column in predicates: only compare_values semantics work.
    "SELECT mix FROM v WHERE mix = 7",
    # NULL-heavy grouping; an all-NULL txt column makes one NULL group.
    "SELECT txt, COUNT(*), COUNT(txt), SUM(num) FROM v "
    "GROUP BY txt ORDER BY 2 DESC, 1",
    # GROUP BY over a mixed column (bools, NaN, numeric strings).
    "SELECT COUNT(*) FROM v GROUP BY mix ORDER BY 1",
    # Global aggregates, empty-relation fallback included.
    "SELECT COUNT(*), SUM(num), AVG(num), MIN(txt), MAX(fnum) FROM v",
    "SELECT COUNT(*), MIN(num) FROM v WHERE num > 100",
    # DISTINCT + aggregate arguments.
    "SELECT COUNT(DISTINCT num), COUNT(DISTINCT txt) FROM v",
    # Join on a float column: NaN keys defeat hashing at runtime and must
    # fall back identically (the padded LEFT variant too).
    "SELECT num, w FROM v JOIN j ON v.fnum = j.k ORDER BY 1, 2",
    "SELECT num, w FROM v LEFT JOIN j ON v.fnum = j.k ORDER BY 1, 2",
    # IN / BETWEEN / CASE / IS NULL over nullable numerics.
    "SELECT num FROM v WHERE num IN (1, 2, NULL) OR num BETWEEN -2 AND -1",
    "SELECT CASE WHEN num > 0 THEN txt WHEN num IS NULL THEN 'n' END "
    "FROM v ORDER BY 1",
    # HAVING over a computed aggregate.
    "SELECT txt, SUM(num) FROM v GROUP BY txt "
    "HAVING COUNT(*) >= 1 ORDER BY 1",
    # SUM over a non-numeric column raises only where a group reaches it.
    "SELECT num, SUM(txt) FROM v GROUP BY num ORDER BY 1",
    "SELECT SUM(mix), COUNT(*) FROM v WHERE num > 0",
    "SELECT CASE WHEN COUNT(*) > 2 THEN SUM(txt) END FROM v",
    "SELECT num, SUM(mix) + SUM(txt) FROM v GROUP BY num ORDER BY 1",
    # FROM-less selects: one row, no columns.
    "SELECT 1, 'a' || 'b', NULL, 7 / 2",
    "SELECT 2 * 3 WHERE 1 = 0",
    "SELECT COUNT(*), SUM(4), MAX('x') WHERE 1 = 1",
    # Uncorrelated scalar sub-queries, bound into the plan.
    "SELECT num, txt FROM v WHERE num = (SELECT MAX(num) FROM v) ORDER BY 2",
    "SELECT num - (SELECT MIN(fnum) FROM v) FROM v ORDER BY 1",
    "SELECT ((SELECT COUNT(num) FROM v WHERE num > 0) * 100) "
    "/ (SELECT COUNT(num) FROM v)",
    # Uncorrelated IN and EXISTS sub-queries (NULL and NaN candidates).
    "SELECT num FROM v WHERE num IN (SELECT k FROM j) ORDER BY 1",
    "SELECT w FROM j WHERE k NOT IN (SELECT num FROM v) ORDER BY 1",
    "SELECT txt FROM v WHERE mix IN (SELECT w FROM j) ORDER BY 1",
    "SELECT COUNT(*) FROM v WHERE EXISTS (SELECT w FROM j WHERE w > 25)",
    "SELECT num FROM v WHERE NOT EXISTS (SELECT 1 FROM j WHERE k = 1) "
    "ORDER BY 1",
    # A multi-row scalar sub-query raises only when it is evaluated:
    # never under an empty outer relation (num is at most 5) ...
    "SELECT (SELECT w FROM j) FROM v WHERE num > 100",
    "SELECT (SELECT w FROM j) FROM v",
    # ... nor on the false side of an AND.
    "SELECT num FROM v WHERE num > 100 AND num = (SELECT w FROM j)",
    "SELECT num FROM v WHERE num > 3 AND num = (SELECT w FROM j)",
    # Sub-query divisors equal to 0 (w never exceeds 50) or NULL, also
    # where the interpreter never reaches them.
    "SELECT num / (SELECT COUNT(*) FROM j WHERE w > 100) FROM v",
    "SELECT num % (SELECT MIN(w) FROM j) FROM v ORDER BY 1",
    "SELECT CASE WHEN COALESCE(num, 0) > 100 "
    "THEN num / (SELECT COUNT(*) FROM j WHERE w > 100) END FROM v",
    # A sub-query that raises, evaluated nowhere.
    "SELECT num FROM v WHERE COALESCE(num, 0) > 100 "
    "AND num = (SELECT SUM(txt) FROM v)",
    # Global aggregates over an empty relation, without bare columns ...
    "SELECT COUNT(*), SUM(num), AVG(fnum), MAX(txt) FROM v WHERE num > 100",
    "SELECT COUNT(*) + 1, SUM(num) * 2 FROM v WHERE num > 100 "
    "HAVING COUNT(*) = 0 ORDER BY 1",
    # ... and with them (bare columns over an empty group raise lazily).
    "SELECT txt, COUNT(*) FROM v WHERE num > 100",
    "SELECT COUNT(*) FROM v WHERE num > 100 ORDER BY txt",
)


def _run_repr(engine, sql):
    try:
        result = engine.execute(sql)
    except SqlError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, repr(result.rows))


@given(vectorized_databases(), st.sampled_from(_VECTOR_QUERIES))
@settings(max_examples=400, deadline=None)
def test_vectorized_matches_naive(db, sql):
    naive = _run_repr(Engine(db, naive=True), sql)
    vectorized = Engine(db, vectorized=True, result_cache=None)
    interpreted = Engine(db, vectorized=False, result_cache=None)
    assert _run_repr(vectorized, sql) == naive
    assert _run_repr(interpreted, sql) == naive
    # Replay through the (possibly runtime-disabled) memoized plan.
    assert _run_repr(vectorized, sql) == naive


def test_vectorized_path_actually_engages():
    db = Database("engage")
    db.add(Table("t", ["a", "b"], [(1, 2.0), (2, 3.5), (3, None)]))
    engine = Engine(db, vectorized=True, result_cache=None)
    before = STRATEGY_COUNTERS.snapshot()
    engine.execute("SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a")
    after = STRATEGY_COUNTERS.snapshot()
    assert after["vectorized_executions"] == before["vectorized_executions"] + 1


def test_nan_join_key_disables_plan_permanently():
    db = Database("nanjoin")
    db.add(Table("l", ["k"], [(math.nan,), (1.0,)]))
    db.add(Table("r", ["k", "w"], [(1.0, 10)]))
    engine = Engine(db, vectorized=True, result_cache=None)
    naive = _run_repr(Engine(db, naive=True),
                      "SELECT l.k, w FROM l JOIN r ON l.k = r.k")
    before = STRATEGY_COUNTERS.snapshot()
    sql = "SELECT l.k, w FROM l JOIN r ON l.k = r.k"
    assert _run_repr(engine, sql) == naive
    assert _run_repr(engine, sql) == naive
    after = STRATEGY_COUNTERS.snapshot()
    # First call trips the runtime fallback; the second skips the plan
    # without re-running it (the disable is permanent).
    assert (after["vectorized_runtime_fallbacks"]
            == before["vectorized_runtime_fallbacks"] + 2)
    assert after["vectorized_executions"] == before["vectorized_executions"]


def test_subqueries_stay_on_the_row_path():
    db = _correlated_db()
    engine = Engine(db, vectorized=True, result_cache=None)
    before = STRATEGY_COUNTERS.snapshot()
    engine.execute(CORRELATED)
    after = STRATEGY_COUNTERS.snapshot()
    assert after["vectorized_executions"] == before["vectorized_executions"]
    assert after["vectorized_ineligible"] > before["vectorized_ineligible"]


def _paper_db():
    db = Database("paper")
    db.add(Table("t", ["c", "a", "b", "x"], [
        ("one", 1, 5.5, 10), ("two", 2, 7.25, None), ("three", 3, 7.25, 4),
        (None, 4, 1.0, 2),
    ]))
    return db


PAPER_SHAPES = (
    # A percentage claim: a FROM-less ratio of two COUNT sub-queries.
    "SELECT ((SELECT COUNT(c) FROM t WHERE b > 5) * 100) "
    "/ (SELECT COUNT(c) FROM t)",
    # Algorithm 9: a constant replaced by a sub-query.
    "SELECT a FROM t WHERE b = (SELECT MAX(b) FROM t)",
    # A global aggregate whose filter matches nothing.
    "SELECT SUM(x) FROM t WHERE a > 100",
)


@pytest.mark.parametrize("sql", PAPER_SHAPES)
def test_paper_shapes_run_vectorized(sql):
    db = _paper_db()
    engine = Engine(db, result_cache=None)
    before = STRATEGY_COUNTERS.snapshot()
    assert _run_repr(engine, sql) == _run_repr(Engine(db, naive=True), sql)
    after = STRATEGY_COUNTERS.snapshot()
    assert engine.plan_label(sql).startswith("vectorized/")
    for name in ("vectorized_ineligible", "vectorized_runtime_fallbacks"):
        assert after[name] == before[name], name


@pytest.mark.parametrize("sql", (
    "SELECT SUM(txt) FROM v",
    "SELECT SUM(txt) FROM v WHERE num > 100",
    "SELECT SUM(mix) + SUM(txt) FROM v",
    "SELECT num, SUM(mix), SUM(txt) FROM v GROUP BY num ORDER BY 1",
    "SELECT SUM(txt) FROM v HAVING COUNT(*) > 100",
    "SELECT CASE WHEN COUNT(*) > 100 THEN SUM(txt) END FROM v",
    "SELECT COUNT(*) > 100 AND SUM(txt) > 0 FROM v",
))
def test_raising_aggregates_match_naive(sql):
    # SUM over text raises: the plan may raise only the oracle's error,
    # at the same group, and only where the oracle evaluates the SUM.
    db = Database("raising")
    db.add(Table("v", ["num", "mix", "txt"],
                 [(1, "7", "ab"), (2, "x", None), (2, None, "c")]))
    naive = _run_repr(Engine(db, naive=True), sql)
    assert _run_repr(Engine(db, result_cache=None), sql) == naive


def test_group_by_all_null_keys():
    db = Database("allnull")
    db.add(Table("t", ["g", "x"], [(None, None), (None, None), (None, 3)]))
    sql = "SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x) FROM t GROUP BY g"
    naive = _run_repr(Engine(db, naive=True), sql)
    assert _run_repr(Engine(db, vectorized=True, result_cache=None), sql) \
        == naive
    assert naive[0] == "ok"


def test_empty_table_vectorized():
    db = Database("emptyv")
    db.add(Table("t", ["a", "b"], []))
    for sql in (
        "SELECT a, b FROM t",
        "SELECT a FROM t WHERE a > 0 ORDER BY b",
        "SELECT a, COUNT(*) FROM t GROUP BY a",
        "SELECT COUNT(*), SUM(a) FROM t",
    ):
        naive = _run_repr(Engine(db, naive=True), sql)
        assert _run_repr(Engine(db, vectorized=True, result_cache=None), sql) \
            == naive
