"""Unit tests for the cost-based optimizer (repro.sqlengine.optimizer).

The decisions below are pinned against *seeded* statistics so a change in
the cost model that flips a plan shows up as a test diff, not a silent
performance regression.
"""

from repro.sqlengine import Database, Engine, Table
from repro.sqlengine.optimizer import (
    DEFAULT_SELECTIVITY,
    OPTIMIZER_COUNTERS,
    Estimator,
    choose_build_side,
    order_conjuncts,
    plan_scan,
)
from repro.sqlengine.parser import parse_select
from repro.sqlengine.stats import ColumnStats


def _stats(name="c", rows=100, nulls=0, distinct=10, klass="num",
           minimum=0, maximum=100):
    return ColumnStats(
        name=name, row_count=rows, null_count=nulls,
        distinct_count=distinct, value_class=klass,
        minimum=minimum if klass == "num" else None,
        maximum=maximum if klass == "num" else None,
    )


def _estimator(by_name):
    return Estimator(lambda ref: by_name.get(ref.name.lower()))


def _where(sql):
    return parse_select(f"SELECT 1 FROM t WHERE {sql}").where


# -- selectivity --------------------------------------------------------------

def test_equality_is_one_over_distinct():
    est = _estimator({"c": _stats(distinct=20)})
    assert est.selectivity(_where("c = 5")) == 1 / 20


def test_equality_against_null_literal_is_zero():
    est = _estimator({"c": _stats()})
    assert est.selectivity(_where("c = NULL")) == 0.0


def test_range_uses_covered_fraction():
    est = _estimator({"c": _stats(minimum=0, maximum=100)})
    assert est.selectivity(_where("c < 25")) == 0.25
    assert est.selectivity(_where("c > 25")) == 0.75
    # Column on the right flips the comparison.
    assert est.selectivity(_where("25 > c")) == 0.25


def test_is_null_uses_exact_null_fraction():
    est = _estimator({"c": _stats(rows=100, nulls=30)})
    assert est.selectivity(_where("c IS NULL")) == 0.3
    assert est.selectivity(_where("c IS NOT NULL")) == 0.7


def test_in_list_scales_with_items():
    est = _estimator({"c": _stats(distinct=10)})
    assert est.selectivity(_where("c IN (1, 2, 3)")) == 0.3


def test_and_or_combinators():
    est = _estimator({"c": _stats(distinct=10), "d": _stats(distinct=4)})
    assert est.selectivity(_where("c = 1 AND d = 2")) == 0.1 * 0.25
    expected = 0.1 + 0.25 - 0.1 * 0.25
    assert abs(est.selectivity(_where("c = 1 OR d = 2")) - expected) < 1e-12


def test_unresolved_column_falls_back_to_default():
    est = _estimator({})
    assert est.selectivity(_where("c = 1")) == DEFAULT_SELECTIVITY


def test_between_uses_span_fraction():
    est = _estimator({"c": _stats(minimum=0, maximum=100)})
    assert est.selectivity(_where("c BETWEEN 10 AND 30")) == 0.2


# -- conjunct ordering and access paths --------------------------------------

def test_conjuncts_ordered_most_selective_first():
    est = _estimator({
        "a": _stats(name="a", distinct=2),     # sel 0.5
        "b": _stats(name="b", distinct=100),   # sel 0.01
    })
    conjuncts = [_where("a = 1"), _where("b = 2")]
    ordered = order_conjuncts(conjuncts, est)
    assert [index for index, _ in ordered] == [1, 0]
    assert ordered[0][1] == 0.01


def test_ties_keep_input_order():
    est = _estimator({"a": _stats(name="a"), "b": _stats(name="b")})
    ordered = order_conjuncts([_where("a = 1"), _where("b = 2")], est)
    assert [index for index, _ in ordered] == [0, 1]


def test_probe_taken_when_equality_most_selective():
    est = _estimator({
        "a": _stats(name="a", distinct=1000),
        "b": _stats(name="b", rows=100, nulls=50),
    })
    conjuncts = [_where("b IS NULL"), _where("a = 7")]
    choice = plan_scan(1000, conjuncts, est, probe_candidates=[1])
    assert choice.access == "index_probe"
    assert choice.ordered[0] == 1
    assert choice.estimated_rows == 1000 * (1 / 1000) * 0.5


def test_probe_declined_when_mask_is_more_selective():
    est = _estimator({
        "a": _stats(name="a", distinct=2),          # equality sel 0.5
        "b": _stats(name="b", rows=100, nulls=1),   # IS NULL sel 0.01
    })
    conjuncts = [_where("a = 1"), _where("b IS NULL")]
    choice = plan_scan(1000, conjuncts, est, probe_candidates=[0])
    assert choice.access == "scan"
    assert choice.ordered[0] == 1


# -- join planning ------------------------------------------------------------

def test_build_side_prefers_smaller_input():
    assert choose_build_side("INNER", 1000.0, 10.0) == "right"
    assert choose_build_side("INNER", 10.0, 1000.0) == "left"
    # Ties keep the status-quo right build.
    assert choose_build_side("INNER", 50.0, 50.0) == "right"


def test_left_joins_always_build_right():
    assert choose_build_side("LEFT", 10.0, 1000.0) == "right"


def test_join_rows_divides_by_larger_distinct():
    est = _estimator({})
    key = (_stats(distinct=10), _stats(distinct=40))
    assert est.join_rows(100.0, 200.0, [key]) == 100.0 * 200.0 / 40


def test_seeded_build_side_decision_end_to_end():
    """A small-left/large-right INNER join plans a left-side build."""
    db = Database("sides")
    db.add(Table("small", ["k"], [(i,) for i in range(3)]))
    db.add(Table("large", ["k", "w"], [(i % 50, i) for i in range(400)]))
    engine = Engine(db, vectorized=True, result_cache=None)
    before = OPTIMIZER_COUNTERS.snapshot()
    naive_rows = Engine(db, naive=True).execute(
        "SELECT small.k, w FROM small JOIN large ON small.k = large.k"
    ).rows
    rows = engine.execute(
        "SELECT small.k, w FROM small JOIN large ON small.k = large.k"
    ).rows
    after = OPTIMIZER_COUNTERS.snapshot()
    assert after["build_side_left"] == before["build_side_left"] + 1
    assert after["hash_joins_planned"] == before["hash_joins_planned"] + 1
    assert rows == naive_rows  # the build-side swap must not reorder output


def test_plan_summary_records_decisions():
    db = Database("summary")
    db.add(Table("t", ["a", "b"], [(i, i * 2) for i in range(20)]))
    engine = Engine(db, vectorized=True, result_cache=None)
    sql = "SELECT b FROM t WHERE a = 3 AND b > 10"
    engine.execute(sql)
    label = engine.plan_label(sql)
    assert label.startswith("vectorized/plain")
    assert "t:index_probe" in label


def test_row_path_plans_counted():
    db = Database("rowpath")
    db.add(Table("t", ["a"], [(1,)]))
    engine = Engine(db, vectorized=True, result_cache=None)
    # A correlated sub-query (o.a reaches the outer row) stays off the
    # vectorized path; an uncorrelated one is bound into the plan.
    sql = "SELECT (SELECT MAX(a) FROM t WHERE a = o.a) FROM t o"
    before = OPTIMIZER_COUNTERS.snapshot()
    engine.execute(sql)
    after = OPTIMIZER_COUNTERS.snapshot()
    assert after["plans_row_path"] > before["plans_row_path"]
    assert engine.plan_label(sql) == "row"
    assert engine.plan_label(
        "SELECT (SELECT MAX(a) FROM t) FROM t").startswith("vectorized/")
