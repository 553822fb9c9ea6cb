"""Cost-based planning decisions for the vectorized execution path.

The optimizer is deliberately *decision-only*: it consumes exact
statistics (:mod:`repro.sqlengine.stats`) plus the analyzer's statically
resolved column references, and produces choices — it never touches
data. The vectorized compiler (:mod:`repro.sqlengine.vectorized`)
executes whatever is chosen here, and the interpreter remains the
fallback for anything the vectorized path declines.

Decisions made, in plan order:

* **Access path** per scan: answer one ``col = literal`` conjunct from
  the table's lazy equality index (``index_probe``) when that conjunct
  is estimated to be the most selective one, else a vectorized
  selection-mask scan.
* **Conjunct order** per filter site: estimated selectivity ascending,
  original position as the deterministic tie-break. Reordering is
  semantically free because only conjuncts the vectorized compiler
  proves *total* (unable to raise over this data) ever reach it.
* **Hash-join build side** per INNER equi-join: build on the estimated
  smaller input. A left-side build probes in right order, so the
  executor restores output order by sorting (left, right) index pairs;
  LEFT joins always build on the right (padding and order come for
  free there).

Selectivity estimation follows the classic System-R recipe, except the
inputs are exact (tables are immutable, so row counts, distinct counts,
null fractions, and min/max cost one profiling pass, ever):

* ``col = literal`` → ``1 / distinct``
* range predicates against a numeric column → covered fraction of
  ``[min, max]``
* ``IS [NOT] NULL`` → the (exact) null fraction
* ``IN (…)`` → ``len(items) / distinct``, ``AND``/``OR``/``NOT`` →
  the usual independence combinators, everything else → 1/3.

Every decision is tallied in :data:`OPTIMIZER_COUNTERS`, surfaced as
``engine_stats()["optimizer"]`` and ``cedar_sql_optimizer_total``
metrics, and echoed into the per-plan summary string that the executor
attaches to ``sql_execute`` spans.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from . import ast_nodes as ast
from .stats import ColumnStats

DEFAULT_SELECTIVITY = 1 / 3
_RANGE_OPS = ("<", "<=", ">", ">=")

#: Resolves a column reference to that column's statistics, or None when
#: the reference cannot be resolved to a profiled base-table column
#: (computed columns, the padded side of a LEFT join, ...).
StatsResolver = Callable[[ast.ColumnRef], "ColumnStats | None"]


class OptimizerCounters:
    """Process-wide tallies of cost-based decisions (not executions)."""

    _NAMES = (
        "plans_vectorized",
        "plans_row_path",
        "index_probes_chosen",
        "scans_chosen",
        "conjuncts_reordered",
        "build_side_left",
        "build_side_right",
        "hash_joins_planned",
        "cross_joins_planned",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self._NAMES, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._NAMES, 0)


OPTIMIZER_COUNTERS = OptimizerCounters()


def _literal_number(expr: ast.Expression) -> int | float | None:
    if isinstance(expr, ast.Literal) and isinstance(
        expr.value, (int, float)
    ) and not isinstance(expr.value, bool):
        return expr.value
    return None


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


class Estimator:
    """Selectivity and cardinality estimates over exact column stats."""

    def __init__(self, resolve: StatsResolver) -> None:
        self._resolve = resolve

    # -- selectivity ------------------------------------------------------

    def selectivity(self, expr: ast.Expression) -> float:
        """Estimated fraction of rows satisfying ``expr`` (in ``[0, 1]``)."""
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return _clamp(1.0 - self.selectivity(expr.operand))
        if isinstance(expr, ast.IsNullExpr):
            return self._is_null(expr)
        if isinstance(expr, ast.InExpr):
            return self._in_list(expr)
        if isinstance(expr, ast.BetweenExpr):
            return self._between(expr)
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return 0.0
            return 1.0 if bool(expr.value) else 0.0
        return DEFAULT_SELECTIVITY

    def _binary(self, expr: ast.BinaryOp) -> float:
        if expr.op == "AND":
            return _clamp(
                self.selectivity(expr.left) * self.selectivity(expr.right)
            )
        if expr.op == "OR":
            a = self.selectivity(expr.left)
            b = self.selectivity(expr.right)
            return _clamp(a + b - a * b)
        if expr.op == "=":
            return self._equality(expr)
        if expr.op == "<>":
            return _clamp(1.0 - self._equality(expr))
        if expr.op in _RANGE_OPS:
            return self._range(expr)
        return DEFAULT_SELECTIVITY

    def _column_stats(self, expr: ast.Expression) -> ColumnStats | None:
        if isinstance(expr, ast.ColumnRef):
            return self._resolve(expr)
        return None

    def _equality(self, expr: ast.BinaryOp) -> float:
        for column, other in (
            (expr.left, expr.right), (expr.right, expr.left)
        ):
            stats = self._column_stats(column)
            if stats is None:
                continue
            if isinstance(other, ast.Literal) and other.value is None:
                return 0.0  # ``col = NULL`` never matches
            if stats.non_null_count == 0:
                return 0.0
            if stats.distinct_count > 0:
                return _clamp(1.0 / stats.distinct_count)
        return DEFAULT_SELECTIVITY

    def _range(self, expr: ast.BinaryOp) -> float:
        stats = self._column_stats(expr.left)
        bound = _literal_number(expr.right)
        op = expr.op
        if stats is None:
            stats = self._column_stats(expr.right)
            bound = _literal_number(expr.left)
            # Flip the comparison so the column sits on the left.
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if (
            stats is None or bound is None or stats.value_class != "num"
            or stats.minimum is None or stats.maximum is None
        ):
            return DEFAULT_SELECTIVITY
        low, high = stats.minimum, stats.maximum
        if high == low:
            matches = (
                (op in ("<", "<=") and (low < bound or (op == "<=" and low == bound)))
                or (op in (">", ">=") and (low > bound or (op == ">=" and low == bound)))
            )
            return 1.0 if matches else 0.0
        if op in ("<", "<="):
            fraction = (bound - low) / (high - low)
        else:
            fraction = (high - bound) / (high - low)
        return _clamp(fraction)

    def _is_null(self, expr: ast.IsNullExpr) -> float:
        stats = self._column_stats(expr.operand)
        if stats is None:
            return DEFAULT_SELECTIVITY
        fraction = stats.null_fraction
        return _clamp(1.0 - fraction) if expr.negated else _clamp(fraction)

    def _in_list(self, expr: ast.InExpr) -> float:
        stats = self._column_stats(expr.operand)
        if stats is None or stats.distinct_count == 0:
            base = DEFAULT_SELECTIVITY
        else:
            base = _clamp(len(expr.items or ()) / stats.distinct_count)
        return _clamp(1.0 - base) if expr.negated else base

    def _between(self, expr: ast.BetweenExpr) -> float:
        stats = self._column_stats(expr.operand)
        low = _literal_number(expr.low)
        high = _literal_number(expr.high)
        if (
            stats is None or low is None or high is None
            or stats.value_class != "num"
            or stats.minimum is None or stats.maximum is None
        ):
            return _clamp(DEFAULT_SELECTIVITY ** 2) if not expr.negated else (
                _clamp(1.0 - DEFAULT_SELECTIVITY ** 2)
            )
        span = stats.maximum - stats.minimum
        if span == 0:
            inside = low <= stats.minimum <= high
            base = 1.0 if inside else 0.0
        else:
            covered = min(high, stats.maximum) - max(low, stats.minimum)
            base = _clamp(covered / span) if covered > 0 else 0.0
        return _clamp(1.0 - base) if expr.negated else base

    # -- cardinality ------------------------------------------------------

    def join_rows(
        self,
        left_rows: float,
        right_rows: float,
        key_stats: list[tuple["ColumnStats | None", "ColumnStats | None"]],
    ) -> float:
        """Estimated INNER equi-join output cardinality."""
        estimate = left_rows * right_rows
        for left_stats, right_stats in key_stats:
            distinct = max(
                left_stats.distinct_count if left_stats else 0,
                right_stats.distinct_count if right_stats else 0,
                1,
            )
            estimate /= distinct
        return estimate


@dataclass(frozen=True)
class ScanChoice:
    """Access path + conjunct order for one base-table scan."""

    access: str                      # "index_probe" | "scan"
    probe_position: int | None       # index into `ordered` answered by probe
    ordered: tuple[int, ...]         # conjunct evaluation order (input idx)
    selectivities: tuple[float, ...]  # aligned with `ordered`
    estimated_rows: float


def order_conjuncts(
    conjuncts: list[ast.Expression], estimator: Estimator
) -> list[tuple[int, float]]:
    """Evaluation order: selectivity ascending, input order tie-break."""
    scored = [
        (estimator.selectivity(conj), index)
        for index, conj in enumerate(conjuncts)
    ]
    ranked = sorted(scored, key=lambda pair: (pair[0], pair[1]))
    if [index for _, index in ranked] != list(range(len(conjuncts))):
        OPTIMIZER_COUNTERS.bump("conjuncts_reordered")
    return [(index, sel) for sel, index in ranked]


def plan_scan(
    row_count: int,
    conjuncts: list[ast.Expression],
    estimator: Estimator,
    probe_candidates: list[int],
) -> ScanChoice:
    """Choose the access path and conjunct order for one scan.

    ``probe_candidates`` lists input positions of conjuncts the caller
    verified are answerable from the table's equality index
    (``col = literal`` with an indexable value). The probe is taken only
    when the index-answerable conjunct is the one the cost model ranks
    most selective — otherwise an earlier mask already shrank the scan
    below what the probe would return, and positional gathers beat an
    index that no longer aligns with the survivors.
    """
    ordered = order_conjuncts(conjuncts, estimator)
    probe_position: int | None = None
    access = "scan"
    if ordered and probe_candidates:
        first_index, _ = ordered[0]
        if first_index in probe_candidates:
            probe_position = 0
            access = "index_probe"
    if access == "index_probe":
        OPTIMIZER_COUNTERS.bump("index_probes_chosen")
    elif conjuncts:
        OPTIMIZER_COUNTERS.bump("scans_chosen")
    estimated = float(row_count)
    for _, sel in ordered:
        estimated *= sel
    return ScanChoice(
        access=access,
        probe_position=probe_position,
        ordered=tuple(index for index, _ in ordered),
        selectivities=tuple(sel for _, sel in ordered),
        estimated_rows=estimated,
    )


def choose_build_side(
    kind: str, left_estimate: float, right_estimate: float
) -> str:
    """Hash-join build side: the estimated smaller input (INNER only).

    LEFT joins always build right: probing in left order makes padding
    and output order fall out naturally, and the padded side can never
    be the build side anyway. Ties build right (the status quo), so the
    decision is deterministic for equal estimates.
    """
    if kind == "LEFT" or left_estimate >= right_estimate:
        OPTIMIZER_COUNTERS.bump("build_side_right")
        return "right"
    OPTIMIZER_COUNTERS.bump("build_side_left")
    return "left"
