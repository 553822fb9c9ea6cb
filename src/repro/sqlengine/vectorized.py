"""Vectorized (columnar) execution: batch operators over column arrays.

This is the engine's execution path. Each expression compiles into a
*batch operator* that produces a whole column of results in one list
comprehension, and the relational pipeline runs as selection vectors
and index gathers over :meth:`Table.column_array` storage — no row
tuples are materialized until the final projection.

The byte-identity contract with the naive oracle is enforced by refusal:
anything not *provably* equivalent is rejected at plan time
(:class:`VectorizeError`) or at run time (:class:`FallbackNeeded`), and
the executor runs the interpreter (the same tree walk as
``Engine(naive=True)``) instead. The totality judgment is *data-backed*:
tables are immutable and the statistics layer
(:mod:`repro.sqlengine.stats`) records exact per-column value classes,
so e.g. arithmetic or ``SUM`` over a column whose every stored value is
a finite number is provably unable to raise, even though the same
expression over an arbitrary column could. The one deliberate raise is
a lone ``SUM``/``AVG`` over a non-numeric argument that every group
evaluates: the plan raises the interpreter's own error, at the same
group.

Uncorrelated sub-queries are bound at plan time: each one runs once
through :meth:`Engine.execute_subquery` and enters the plan as a
constant, visible to the totality proofs like a literal. A sub-query
that does not raise is a pure function of the database, and plans die
with the database fingerprint, so evaluating it eagerly is
unobservable; one that raises (or a scalar one with several rows)
rejects the plan, leaving the interpreter to raise lazily exactly where
the oracle would. A SELECT without FROM is a one-row relation with no
columns.

Value-class ("klass") lattice carried on every compiled node:

``"num"``
    finite ``int``/``float`` or NULL. Direct Python comparison,
    arithmetic, hashing, ``sum()``/``min()``/``max()`` all agree with
    ``compare_values``/``_numeric_sum``/``_extreme`` on this class.
``"numx"``
    numeric or NULL, NaN/inf possible (the class of arithmetic
    *results*: finite inputs can overflow to inf and inf-inf is NaN).
    Totality still holds, but comparisons must go through
    ``compare_values`` (NaN compares equal to everything there).
``"text"``
    non-numeric-looking ``str`` or NULL; direct string comparison
    agrees with ``compare_values``.
``"bool"``
    ``True``/``False``/NULL — comparison results; selection masks test
    ``is True`` instead of calling ``_truthy``.
``"empty"``
    provably all-NULL; compatible with every specialization (the
    fast loops never reach a non-NULL value).
``"other"``
    anything else; only the generic ``compare_values`` loops are sound.

Plan-level decisions (access path, conjunct order, join build side)
come from the cost-based optimizer (:mod:`repro.sqlengine.optimizer`)
and are recorded both in counters and in the plan's deterministic
``summary`` string, which the executor attaches to ``sql_execute``
spans.
"""

from __future__ import annotations

import math
import operator

from . import ast_nodes as ast
from .analyzer import split_conjuncts
from .errors import ExecutionError, PlanError
from .executor import (
    Engine,
    _expand_select_items,
    _resolve_order_items,
    _sort_key,
)
from .expressions import ColumnInfo, _like_to_regex, _truthy
from .functions import aggregate, call_scalar
from .optimizer import (
    OPTIMIZER_COUNTERS,
    Estimator,
    choose_build_side,
    order_conjuncts,
    plan_scan,
)
from .planner import STRATEGY_COUNTERS
from .stats import ColumnStats, table_stats
from .table import Database, Table
from .values import (
    CASTABLE_TYPES,
    SqlValue,
    cast_value,
    coerce_numeric,
    compare_values,
    equality_key,
    to_text,
)


class VectorizeError(Exception):
    """Statement not vectorizable; the executor runs the interpreter."""


class CompileError(Exception):
    """A column reference that does not resolve to exactly one column."""


class FallbackNeeded(Exception):
    """Data defeated this plan at run time (NaN join keys, or a bare
    column over an empty global group).

    Both triggers are pure functions of the (immutable) table contents,
    so the executor permanently disables the plan for this database
    fingerprint rather than re-attempting every call.
    """


def resolve_column(
    columns: list[ColumnInfo], name: str, table: str | None
) -> int:
    """Resolve a column reference to a unique position, or CompileError.

    Mirrors :meth:`Scope.resolve` matching rules, but treats both misses
    (the evaluator would try outer scopes or raise lazily) and ambiguity
    (the evaluator raises per-row) as "not plannable" so the interpreter
    reproduces the reference behaviour exactly.
    """
    name_lower = name.lower()
    table_lower = table.lower() if table else None
    matches = [
        index
        for index, info in enumerate(columns)
        if info.name == name_lower
        and (table_lower is None or info.table == table_lower)
    ]
    if len(matches) != 1:
        raise CompileError(f"cannot statically resolve column {name!r}")
    return matches[0]


def _div(left_num, right_num):
    if right_num == 0:
        raise ExecutionError("division by zero")
    return left_num / right_num


def _mod(left_num, right_num):
    if right_num == 0:
        raise ExecutionError("modulo by zero")
    return left_num % right_num


_ARITHMETIC_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "%": _mod,
}


# -- value-class lattice ------------------------------------------------------

def _num_ok(klass: str) -> bool:
    """Finite-number-or-NULL guaranteed."""
    return klass in ("num", "empty")


def _numx_ok(klass: str) -> bool:
    """Number-or-NULL guaranteed (NaN/inf possible)."""
    return klass in ("num", "numx", "empty")


def _text_ok(klass: str) -> bool:
    return klass in ("text", "empty")


def _boolish(klass: str) -> bool:
    return klass in ("bool", "empty")


def _lub(klasses: list[str]) -> str:
    """Least upper bound of value classes (for CASE/COALESCE results)."""
    present = [k for k in klasses if k != "empty"]
    if not present:
        return "empty"
    for candidate in ("num", "numx", "text", "bool"):
        check = {"num": _num_ok, "numx": _numx_ok,
                 "text": _text_ok, "bool": _boolish}[candidate]
        if all(check(k) for k in present):
            return candidate
    return "other"


# -- batches ------------------------------------------------------------------

class Const:
    """A compiled-constant column: one value standing for every row."""

    __slots__ = ("value",)

    def __init__(self, value: SqlValue) -> None:
        self.value = value


def _expand(values, n: int) -> list:
    return [values.value] * n if isinstance(values, Const) else values


class Batch:
    """Column metadata plus lazily loaded per-column value arrays.

    Loaders run at most once; a batch column that nothing evaluates is
    never materialized (filtering gathers only the columns the rest of
    the plan touches).
    """

    __slots__ = ("columns", "klasses", "length", "_loaders", "_arrays")

    def __init__(self, columns, klasses, length, loaders) -> None:
        self.columns = columns
        self.klasses = klasses
        self.length = length
        self._loaders = loaders
        self._arrays: list[list | None] = [None] * len(loaders)

    def array(self, position: int) -> list:
        cached = self._arrays[position]
        if cached is None:
            cached = self._loaders[position]()
            self._arrays[position] = cached
        return cached


def scan_batch(table: Table, columns, klasses) -> Batch:
    """A zero-copy batch over a base table's column arrays."""
    loaders = [
        (lambda t=table, i=i: t.column_array(i))
        for i in range(len(columns))
    ]
    return Batch(columns, klasses, len(table), loaders)


def gather_batch(parent: Batch, indices: list[int]) -> Batch:
    """The subset of ``parent`` selected by ``indices`` (lazy per column)."""
    def loader(position: int):
        def load() -> list:
            source = parent.array(position)
            return [source[i] for i in indices]
        return load
    loaders = [loader(p) for p in range(len(parent.columns))]
    return Batch(parent.columns, parent.klasses, len(indices), loaders)


def join_batch(
    left: Batch, right: Batch,
    left_indices: list[int], right_indices: list[int],
) -> Batch:
    """A joined batch from parallel index arrays (-1 right = NULL pad)."""
    def left_loader(position: int):
        def load() -> list:
            source = left.array(position)
            return [source[i] for i in left_indices]
        return load

    def right_loader(position: int):
        def load() -> list:
            source = right.array(position)
            return [source[i] if i >= 0 else None for i in right_indices]
        return load
    loaders = [left_loader(p) for p in range(len(left.columns))]
    loaders += [right_loader(p) for p in range(len(right.columns))]
    return Batch(
        left.columns + right.columns,
        left.klasses + right.klasses,
        len(left_indices),
        loaders,
    )


class _GroupEnv:
    """Evaluation environment for grouped expressions.

    Exposes the representative-row batch (one row per group) through the
    normal ``array`` interface, plus per-group aggregate result arrays
    through ``agg`` slots.
    """

    __slots__ = ("batch", "aggs", "length")

    def __init__(self, batch: Batch, aggs: list[list]) -> None:
        self.batch = batch
        self.aggs = aggs
        self.length = batch.length

    def array(self, position: int) -> list:
        return self.batch.array(position)

    def agg(self, slot: int) -> list:
        return self.aggs[slot]

    def select(self, indices: list[int]) -> "_GroupEnv":
        return _GroupEnv(
            gather_batch(self.batch, indices),
            [[values[i] for i in indices] for values in self.aggs],
        )


# -- compiled batch expressions ----------------------------------------------

class BNode:
    """A compiled batch expression: ``run(env) -> list | Const``."""

    __slots__ = ("run", "klass", "nonzero")

    def __init__(self, run, klass: str, nonzero: bool = False) -> None:
        self.run = run
        self.klass = klass
        self.nonzero = nonzero


class _Schema:
    """Compile-time column environment: metadata plus soundness facts,
    and ``bind`` — the plan's sub-query binder (statement -> result)."""

    __slots__ = ("columns", "klasses", "nonzero", "bind")

    def __init__(self, columns, klasses, nonzero, bind) -> None:
        self.columns = columns
        self.klasses = klasses
        self.nonzero = nonzero
        self.bind = bind

    @classmethod
    def concat(cls, first: "_Schema", second: "_Schema") -> "_Schema":
        return cls(
            first.columns + second.columns,
            first.klasses + second.klasses,
            first.nonzero + second.nonzero,
            first.bind,
        )


def _scan_schema(
    table: Table, alias: str, bind
) -> tuple[_Schema, list[ColumnStats]]:
    stats = table_stats(table)
    columns = [
        ColumnInfo(alias, name.lower(), name) for name in table.column_names
    ]
    per_column = [stats.column(name) for name in table.column_names]
    klasses = [s.value_class for s in per_column]
    nonzero = [
        s.value_class == "empty"
        or (
            s.value_class == "num"
            and s.minimum is not None
            and (s.minimum > 0 or s.maximum < 0)
        )
        for s in per_column
    ]
    return _Schema(columns, klasses, nonzero, bind), per_column


def _selection(node: BNode, env) -> list[int]:
    """Indices of rows where the node is non-NULL truthy."""
    values = node.run(env)
    if isinstance(values, Const):
        value = values.value
        keep = value is not None and _truthy(value)
        return list(range(env.length)) if keep else []
    if _boolish(node.klass):
        return [i for i, v in enumerate(values) if v is True]
    return [
        i for i, v in enumerate(values) if v is not None and _truthy(v)
    ]


def _combine(left: BNode, right: BNode, fn):
    """A NULL-propagating pairwise combinator (the workhorse loop)."""
    def run(env):
        la = left.run(env)
        ra = right.run(env)
        if isinstance(la, Const) and isinstance(ra, Const):
            x, y = la.value, ra.value
            return Const(None if x is None or y is None else fn(x, y))
        if isinstance(ra, Const):
            y = ra.value
            if y is None:
                return Const(None)
            return [None if x is None else fn(x, y) for x in la]
        if isinstance(la, Const):
            x = la.value
            if x is None:
                return Const(None)
            return [None if y is None else fn(x, y) for y in ra]
        return [
            None if x is None or y is None else fn(x, y)
            for x, y in zip(la, ra)
        ]
    return run


_FAST_COMPARE = {
    "=": operator.eq, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
_COMPARE_TESTS = {
    "=": lambda c: c == 0, "<>": lambda c: c != 0,
    "<": lambda c: c < 0, "<=": lambda c: c <= 0,
    ">": lambda c: c > 0, ">=": lambda c: c >= 0,
}


def _compile(node: ast.Expression, schema: _Schema, aggs) -> BNode:
    handler = _BATCH_COMPILERS.get(type(node))
    if handler is None:
        raise VectorizeError(f"unvectorizable node {type(node).__name__}")
    return handler(node, schema, aggs)


def _const_node(value: SqlValue) -> BNode:
    """A constant (literal or bound sub-query value) with its class."""
    if value is None:
        klass = "empty"
    elif isinstance(value, bool):
        klass = "bool"
    elif isinstance(value, (int, float)):
        klass = "num" if _finite_number(value) else "numx"
    elif isinstance(value, str):
        klass = "text" if coerce_numeric(value) is None else "other"
    else:  # pragma: no cover - SqlValue is closed over these types
        klass = "other"
    # NULL divides nothing: the NULL check comes before the zero check.
    nonzero = value is None or isinstance(value, (int, float)) and not (
        isinstance(value, bool)) and value != 0
    return BNode(lambda env: Const(value), klass, nonzero)


def _b_literal(node: ast.Literal, schema, aggs) -> BNode:
    return _const_node(node.value)


def _b_column(node: ast.ColumnRef, schema, aggs) -> BNode:
    try:
        position = resolve_column(schema.columns, node.name, node.table)
    except CompileError as error:
        raise VectorizeError(str(error)) from None
    return BNode(
        lambda env: env.array(position),
        schema.klasses[position],
        schema.nonzero[position],
    )


def _b_unary(node: ast.UnaryOp, schema, aggs) -> BNode:
    operand = _compile(node.operand, schema, aggs)
    if node.op == "NOT":
        def run_not(env):
            values = operand.run(env)
            if isinstance(values, Const):
                value = values.value
                return Const(None if value is None else not _truthy(value))
            return [None if v is None else not _truthy(v) for v in values]
        return BNode(run_not, "bool")
    if node.op == "-":
        if not _numx_ok(operand.klass):
            raise VectorizeError("negation over a non-numeric column")

        def run_neg(env):
            values = operand.run(env)
            if isinstance(values, Const):
                value = values.value
                return Const(None if value is None else -value)
            return [None if v is None else -v for v in values]
        klass = "num" if _num_ok(operand.klass) else "numx"
        return BNode(run_neg, klass, operand.nonzero)
    raise VectorizeError(f"unary operator {node.op}")


def _b_binary(node: ast.BinaryOp, schema, aggs) -> BNode:
    op = node.op
    left = _compile(node.left, schema, aggs)
    right = _compile(node.right, schema, aggs)
    if op in ("AND", "OR"):
        want = op == "AND"

        def run_logic(env):
            la = left.run(env)
            ra = right.run(env)
            n = env.length
            if isinstance(la, Const) and isinstance(ra, Const):
                return Const(_logic3(la.value, ra.value, want))
            la = _expand(la, n)
            ra = _expand(ra, n)
            return [_logic3(x, y, want) for x, y in zip(la, ra)]
        return BNode(run_logic, "bool")
    if op in _FAST_COMPARE:
        both_num = _num_ok(left.klass) and _num_ok(right.klass)
        both_text = _text_ok(left.klass) and _text_ok(right.klass)
        if both_num or both_text:
            fn = _FAST_COMPARE[op]
        else:
            test = _COMPARE_TESTS[op]
            fn = lambda x, y, test=test: test(compare_values(x, y))  # noqa: E731
        return BNode(_combine(left, right, fn), "bool")
    if op == "||":
        return BNode(
            _combine(left, right, lambda x, y: to_text(x) + to_text(y)),
            "other",
        )
    if op in ("+", "-", "*"):
        if not (_numx_ok(left.klass) and _numx_ok(right.klass)):
            raise VectorizeError(f"arithmetic {op} over non-numeric operands")
        # Results are "numx", never "num": finite inputs can overflow to
        # inf, and inf arithmetic can produce NaN further up the tree.
        return BNode(_combine(left, right, _ARITHMETIC_OPS[op]), "numx")
    if op in ("/", "%"):
        if not (_numx_ok(left.klass) and _numx_ok(right.klass)):
            raise VectorizeError(f"arithmetic {op} over non-numeric operands")
        if not right.nonzero:
            raise VectorizeError(f"{op} divisor not provably non-zero")
        return BNode(_combine(left, right, _ARITHMETIC_OPS[op]), "numx")
    raise VectorizeError(f"binary operator {op}")


def _logic3(x, y, want_and: bool):
    """Three-valued AND/OR over raw values, matching the evaluator."""
    if want_and:
        if x is not None and not _truthy(x):
            return False
        if y is not None and not _truthy(y):
            return False
        if x is None or y is None:
            return None
        return True
    if x is not None and _truthy(x):
        return True
    if y is not None and _truthy(y):
        return True
    if x is None or y is None:
        return None
    return False


def _b_function(node: ast.FunctionCall, schema, aggs) -> BNode:
    name = node.name.upper()
    args = [_compile(a, schema, aggs) for a in node.args]
    count = len(args)
    if name in ("LOWER", "UPPER", "TRIM"):
        if count != 1:
            raise VectorizeError(f"{name} arity")
        klass = "other"
    elif name in ("LENGTH", "LEN"):
        if count != 1:
            raise VectorizeError(f"{name} arity")
        klass = "num"
    elif name in ("COALESCE", "IFNULL"):
        if count < 1:
            raise VectorizeError(f"{name} arity")
        klass = _lub([a.klass for a in args])
    elif name == "NULLIF":
        if count != 2:
            raise VectorizeError("NULLIF arity")
        klass = args[0].klass
    elif name == "ABS":
        if count != 1 or not _num_ok(args[0].klass):
            raise VectorizeError("ABS needs a finite numeric argument")
        klass = "num"
    elif name == "ROUND":
        if count not in (1, 2) or not _num_ok(args[0].klass):
            raise VectorizeError("ROUND needs a finite numeric argument")
        if count == 2 and not _literal_finite_number(node.args[1]):
            raise VectorizeError("ROUND digits must be a numeric literal")
        klass = "num"
    elif name in ("SUBSTR", "SUBSTRING"):
        if count not in (2, 3):
            raise VectorizeError(f"{name} arity")
        for extra in node.args[1:]:
            if not _literal_finite_number(extra):
                raise VectorizeError(f"{name} bounds must be numeric literals")
        klass = "other"
    else:
        raise VectorizeError(f"function {name} not provably total")
    nonzero = name in ("COALESCE", "IFNULL", "NULLIF") and all(
        a.nonzero for a in args
    )

    def run(env):
        arrays = [a.run(env) for a in args]
        if all(isinstance(a, Const) for a in arrays):
            return Const(call_scalar(name, [a.value for a in arrays]))
        n = env.length
        expanded = [_expand(a, n) for a in arrays]
        return [call_scalar(name, list(row)) for row in zip(*expanded)]
    return BNode(run, klass, nonzero)


def _finite_number(value: SqlValue) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool)
        or isinstance(value, float) and math.isfinite(value)
    )


def _literal_finite_number(node: ast.Expression) -> bool:
    return isinstance(node, ast.Literal) and _finite_number(node.value)


def _b_aggregate(node: ast.AggregateCall, schema, aggs) -> BNode:
    if aggs is None:
        raise VectorizeError("aggregate in scalar context")
    entry = aggs.get(id(node))  # lint: allow-id-key
    if entry is None:  # pragma: no cover - collection precedes compilation
        raise VectorizeError("aggregate not collected")
    slot, klass = entry
    return BNode(lambda env: env.agg(slot), klass)


def _b_in(node: ast.InExpr, schema, aggs) -> BNode:
    operand = _compile(node.operand, schema, aggs)
    negated = node.negated
    if node.subquery is not None:
        const_values = [row[0] for row in schema.bind(node.subquery).rows]
    elif all(isinstance(item, ast.Literal) for item in node.items or ()):
        const_values = [item.value for item in node.items or ()]
    else:
        return _b_in_items(node, operand, schema, aggs)
    if _num_ok(operand.klass) and all(
        value is None or _finite_number(value) for value in const_values
    ):
        # Numeric operand vs numeric/NULL literals: set membership agrees
        # with compare_values (Python unifies int/float hash equality).
        candidates = frozenset(v for v in const_values if v is not None)
        saw_null = any(v is None for v in const_values)
        miss = None if saw_null else negated

        def run_fast(env):
            values = operand.run(env)
            if isinstance(values, Const):
                v = values.value
                if v is None:
                    return Const(None)
                return Const((not negated) if v in candidates else miss)
            return [
                None if v is None
                else (not negated) if v in candidates else miss
                for v in values
            ]
        return BNode(run_fast, "bool")

    def run_const(env):
        values = operand.run(env)
        if isinstance(values, Const):
            return Const(_in_scalar(values.value, const_values, negated))
        return [_in_scalar(v, const_values, negated) for v in values]
    return BNode(run_const, "bool")


def _b_in_items(node: ast.InExpr, operand: BNode, schema, aggs) -> BNode:
    """``IN`` over a list with non-literal items, evaluated per row."""
    items = [_compile(item, schema, aggs) for item in node.items or ()]
    negated = node.negated

    def run(env):
        values = operand.run(env)
        arrays = [item.run(env) for item in items]
        n = env.length
        if isinstance(values, Const) and all(
            isinstance(a, Const) for a in arrays
        ):
            return Const(
                _in_scalar(values.value, [a.value for a in arrays], negated)
            )
        values = _expand(values, n)
        columns = [_expand(a, n) for a in arrays]
        out = []
        for index, value in enumerate(values):
            out.append(
                _in_scalar(
                    value, [column[index] for column in columns], negated
                )
            )
        return out
    return BNode(run, "bool")


def _in_scalar(value, candidates, negated):
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
            continue
        if compare_values(value, candidate) == 0:
            return not negated
    if saw_null:
        return None
    return negated


def _b_between(node: ast.BetweenExpr, schema, aggs) -> BNode:
    operand = _compile(node.operand, schema, aggs)
    low = _compile(node.low, schema, aggs)
    high = _compile(node.high, schema, aggs)
    negated = node.negated
    fast = (
        _num_ok(operand.klass) and _num_ok(low.klass) and _num_ok(high.klass)
    )

    def inside(value, lo, hi):
        if fast:
            return (lo <= value <= hi) != negated
        return (
            compare_values(value, lo) >= 0 and compare_values(value, hi) <= 0
        ) != negated

    def run(env):
        va = operand.run(env)
        la = low.run(env)
        ha = high.run(env)
        if isinstance(la, Const) and isinstance(ha, Const):
            lo, hi = la.value, ha.value
            if lo is None or hi is None:
                return Const(None)
            if isinstance(va, Const):
                v = va.value
                return Const(None if v is None else inside(v, lo, hi))
            return [None if v is None else inside(v, lo, hi) for v in va]
        n = env.length
        va = _expand(va, n)
        la = _expand(la, n)
        ha = _expand(ha, n)
        return [
            None if v is None or lo is None or hi is None
            else inside(v, lo, hi)
            for v, lo, hi in zip(va, la, ha)
        ]
    return BNode(run, "bool")


def _b_like(node: ast.LikeExpr, schema, aggs) -> BNode:
    operand = _compile(node.operand, schema, aggs)
    negated = node.negated
    if isinstance(node.pattern, ast.Literal) and node.pattern.value is not None:
        regex = _like_to_regex(to_text(node.pattern.value))

        def run_constant(env):
            values = operand.run(env)
            if isinstance(values, Const):
                v = values.value
                return Const(
                    None if v is None
                    else (regex.fullmatch(to_text(v)) is not None) != negated
                )
            return [
                None if v is None
                else (regex.fullmatch(to_text(v)) is not None) != negated
                for v in values
            ]
        return BNode(run_constant, "bool")
    pattern = _compile(node.pattern, schema, aggs)

    def match(value, pattern_value):
        regex = _like_to_regex(to_text(pattern_value))
        return (regex.fullmatch(to_text(value)) is not None) != negated
    return BNode(_combine(operand, pattern, match), "bool")


def _b_is_null(node: ast.IsNullExpr, schema, aggs) -> BNode:
    operand = _compile(node.operand, schema, aggs)
    negated = node.negated

    def run(env):
        values = operand.run(env)
        if isinstance(values, Const):
            return Const((values.value is None) != negated)
        return [(v is None) != negated for v in values]
    return BNode(run, "bool")


def _b_case(node: ast.CaseExpr, schema, aggs) -> BNode:
    branches = [
        (_compile(condition, schema, aggs), _compile(result, schema, aggs))
        for condition, result in node.branches
    ]
    default = (
        _compile(node.default, schema, aggs)
        if node.default is not None else None
    )
    result_klasses = [result.klass for _, result in branches]
    result_klasses.append(default.klass if default is not None else "empty")

    def run(env):
        n = env.length
        conditions = [_expand(c.run(env), n) for c, _ in branches]
        results = [_expand(r.run(env), n) for _, r in branches]
        fallback = (
            _expand(default.run(env), n) if default is not None else None
        )
        out = []
        for i in range(n):
            for condition, result in zip(conditions, results):
                value = condition[i]
                if value is not None and _truthy(value):
                    out.append(result[i])
                    break
            else:
                out.append(fallback[i] if fallback is not None else None)
        return out
    return BNode(run, _lub(result_klasses))


def _b_cast(node: ast.CastExpr, schema, aggs) -> BNode:
    operand = _compile(node.operand, schema, aggs)
    upper = node.type_name.upper()
    if upper not in CASTABLE_TYPES:
        raise VectorizeError(f"unknown cast target {upper}")
    if upper in ("TEXT", "VARCHAR", "STRING"):
        klass = "other"
    elif _num_ok(operand.klass):
        # int()/float()/bool() of a finite number cannot raise.
        klass = "bool" if upper in ("BOOLEAN", "BOOL") else "num"
    else:
        raise VectorizeError(f"CAST to {upper} not provably total")
    type_name = node.type_name

    def run(env):
        values = operand.run(env)
        if isinstance(values, Const):
            return Const(cast_value(values.value, type_name))
        return [cast_value(v, type_name) for v in values]
    return BNode(run, klass)


def _b_star(node: ast.Star, schema, aggs) -> BNode:
    raise VectorizeError("bare '*' outside select-list expansion")


def _b_scalar_subquery(node: ast.ScalarSubquery, schema, aggs) -> BNode:
    rows = schema.bind(node.query).rows
    if len(rows) > 1:
        raise VectorizeError("scalar sub-query returned several rows")
    return _const_node(rows[0][0] if rows else None)


def _b_exists(node: ast.ExistsExpr, schema, aggs) -> BNode:
    found = bool(schema.bind(node.query).rows) != node.negated
    return BNode(lambda env: Const(found), "bool")


_BATCH_COMPILERS = {
    ast.Literal: _b_literal,
    ast.ColumnRef: _b_column,
    ast.Star: _b_star,
    ast.UnaryOp: _b_unary,
    ast.BinaryOp: _b_binary,
    ast.FunctionCall: _b_function,
    ast.AggregateCall: _b_aggregate,
    ast.InExpr: _b_in,
    ast.BetweenExpr: _b_between,
    ast.LikeExpr: _b_like,
    ast.IsNullExpr: _b_is_null,
    ast.CaseExpr: _b_case,
    ast.CastExpr: _b_cast,
    ast.ScalarSubquery: _b_scalar_subquery,
    ast.ExistsExpr: _b_exists,
}


# -- plan structures ----------------------------------------------------------

class _ScanPlan:
    __slots__ = ("table", "schema", "nodes", "probe", "access")

    def __init__(self, table, schema, nodes, probe, access) -> None:
        self.table = table
        self.schema = schema
        self.nodes = nodes          # BNodes in optimizer evaluation order
        self.probe = probe          # (column name, value) answering nodes[0]
        self.access = access


class _JoinPlan:
    __slots__ = ("kind", "pairs", "fast_keys", "residual", "build")

    def __init__(self, kind, pairs, fast_keys, residual, build) -> None:
        self.kind = kind            # "INNER" | "LEFT" | "CROSS"
        self.pairs = pairs          # [(left batch position, right position)]
        self.fast_keys = fast_keys  # raw-value hashing is sound
        self.residual = residual    # BNodes over the combined batch
        self.build = build          # "left" | "right"


class _AggSpec:
    __slots__ = ("slot", "name", "distinct", "arg", "fast")

    def __init__(self, slot, name, distinct, arg, fast) -> None:
        self.slot = slot
        self.name = name
        self.distinct = distinct
        self.arg = arg              # BNode, or None for COUNT(*)
        self.fast = fast


class CompiledSelect:
    """A fully compiled vectorized plan for one SELECT statement.

    ``run()`` produces ``(names, tagged)`` in exactly the shape the
    executor's shared DISTINCT/ORDER BY/LIMIT tail consumes. ``summary``
    is a deterministic description of the chosen plan, computed at build
    time so span annotations are identical whether or not a given
    execution was served from the result cache.
    """

    __slots__ = (
        "statement", "scans", "joins", "where_nodes", "grouped", "names",
        "item_nodes", "order_nodes", "having_node", "group_key_nodes",
        "agg_specs", "bare_columns", "pushed_count", "summary", "disabled",
    )

    def __init__(self) -> None:
        self.disabled = False

    # -- execution --------------------------------------------------------

    def run(self) -> tuple[list[str], list[tuple[tuple, tuple]]]:
        if self.pushed_count:
            STRATEGY_COUNTERS.bump("pushed_predicates", self.pushed_count)
        if not self.scans:
            batch = Batch([], [], 1, [])    # SELECT without FROM: one row
        else:
            batch = self._run_scan(self.scans[0])
        for plan, scan in zip(self.joins, self.scans[1:]):
            batch = self._run_join(plan, batch, self._run_scan(scan))
        for node in self.where_nodes:
            batch = _filter_batch(batch, node)
        if self.grouped:
            names, tagged = self._run_grouped(batch)
        else:
            names, tagged = self._run_plain(batch)
        return names, tagged

    def _run_scan(self, scan: _ScanPlan) -> Batch:
        batch = scan_batch(scan.table, scan.schema.columns, scan.schema.klasses)
        nodes = scan.nodes
        start = 0
        if scan.probe is not None:
            name, value = scan.probe
            positions = scan.table.equality_rows(name, value)
            if positions is not None:
                STRATEGY_COUNTERS.bump("indexed_scans")
                batch = gather_batch(batch, positions)
                start = 1
            # else: the column defeats hashing (NaN); nodes[0] runs as a
            # plain mask below.
        for node in nodes[start:]:
            batch = _filter_batch(batch, node)
        return batch

    def _run_join(self, plan: _JoinPlan, left: Batch, right: Batch) -> Batch:
        if plan.kind == "CROSS":
            STRATEGY_COUNTERS.bump("cross_joins")
            right_range = range(right.length)
            left_indices = [
                i for i in range(left.length) for _ in right_range
            ]
            right_indices = list(right_range) * left.length
            return join_batch(left, right, left_indices, right_indices)
        left_keys = _join_keys(
            left, [lp for lp, _ in plan.pairs], plan.fast_keys
        )
        right_keys = _join_keys(
            right, [rp for _, rp in plan.pairs], plan.fast_keys
        )
        if plan.build == "right":
            buckets: dict = {}
            for index, key in enumerate(right_keys):
                if key is not None:
                    buckets.setdefault(key, []).append(index)
            candidate_l: list[int] = []
            candidate_r: list[int] = []
            for index, key in enumerate(left_keys):
                if key is not None:
                    for match in buckets.get(key, ()):
                        candidate_l.append(index)
                        candidate_r.append(match)
        else:
            # Build on the (estimated smaller) left, probe in right order,
            # then restore the nested-loop output order by sorting the
            # (left, right) index pairs lexicographically. INNER only.
            buckets = {}
            for index, key in enumerate(left_keys):
                if key is not None:
                    buckets.setdefault(key, []).append(index)
            pairs: list[tuple[int, int]] = []
            for index, key in enumerate(right_keys):
                if key is not None:
                    for match in buckets.get(key, ()):
                        pairs.append((match, index))
            pairs.sort()
            candidate_l = [pair[0] for pair in pairs]
            candidate_r = [pair[1] for pair in pairs]
        if plan.residual:
            candidate_batch = join_batch(left, right, candidate_l, candidate_r)
            for node in plan.residual:
                selected = _selection(node, candidate_batch)
                if len(selected) < candidate_batch.length:
                    candidate_l = [candidate_l[i] for i in selected]
                    candidate_r = [candidate_r[i] for i in selected]
                    candidate_batch = gather_batch(candidate_batch, selected)
        if plan.kind == "LEFT":
            out_l: list[int] = []
            out_r: list[int] = []
            cursor = 0
            total = len(candidate_l)
            for index in range(left.length):
                matched = False
                while cursor < total and candidate_l[cursor] == index:
                    out_l.append(index)
                    out_r.append(candidate_r[cursor])
                    matched = True
                    cursor += 1
                if not matched:
                    out_l.append(index)
                    out_r.append(-1)
            candidate_l, candidate_r = out_l, out_r
        STRATEGY_COUNTERS.bump("hash_joins")
        return join_batch(left, right, candidate_l, candidate_r)

    def _run_plain(self, batch: Batch):
        n = batch.length
        item_arrays = [_expand(node.run(batch), n) for node in self.item_nodes]
        # No items (``SELECT *`` without FROM) still yields n empty rows.
        outputs = list(zip(*item_arrays)) if item_arrays else [()] * n
        tagged = _tag(outputs, self.order_nodes, batch, n)
        return self.names, tagged

    def _run_grouped(self, batch: Batch):
        n = batch.length
        if self.group_key_nodes:
            groups = _group_positions(self.group_key_nodes, batch)
        elif n == 0 and self.bare_columns:
            # A bare column over an empty global group resolves outward
            # in the interpreter (or raises there); don't reproduce it.
            raise FallbackNeeded("bare column over an empty global group")
        else:
            groups = [list(range(n))]
        agg_arrays: list[list] = [None] * len(self.agg_specs)  # type: ignore[list-item]
        for spec in self.agg_specs:
            agg_arrays[spec.slot] = _run_aggregate(spec, groups, batch, n)
        # The one possible empty group reads no bare column, so its
        # (lazily gathered) representative row is never loaded.
        representatives = [group[0] if group else 0 for group in groups]
        env = _GroupEnv(gather_batch(batch, representatives), agg_arrays)
        if self.having_node is not None:
            selected = _selection(self.having_node, env)
            if len(selected) < env.length:
                env = env.select(selected)
        count = env.length
        item_arrays = [
            _expand(node.run(env), count) for node in self.item_nodes
        ]
        outputs = list(zip(*item_arrays))
        tagged = _tag(outputs, self.order_nodes, env, count)
        return self.names, tagged


def _filter_batch(batch: Batch, node: BNode) -> Batch:
    selected = _selection(node, batch)
    if len(selected) == batch.length:
        return batch
    return gather_batch(batch, selected)


def _tag(outputs, order_nodes, env, n):
    if not order_nodes:
        empty = ()
        return [(output, empty) for output in outputs]
    key_arrays = []
    for node, descending in order_nodes:
        values = _expand(node.run(env), n)
        key_arrays.append([_sort_key(v, descending) for v in values])
    return list(zip(outputs, zip(*key_arrays)))


def _group_positions(key_nodes: list[BNode], batch: Batch) -> list[list[int]]:
    n = batch.length
    buckets: dict = {}
    if len(key_nodes) == 1:
        # Raw values bucket exactly like the interpreter's 1-tuples: tuple
        # equality is elementwise, and dicts apply the same identity
        # shortcut (NaN groups by object) either way.
        for index, key in enumerate(_expand(key_nodes[0].run(batch), n)):
            buckets.setdefault(key, []).append(index)
    else:
        arrays = [_expand(node.run(batch), n) for node in key_nodes]
        for index, key in enumerate(zip(*arrays)):
            buckets.setdefault(key, []).append(index)
    return list(buckets.values())


def _run_aggregate(spec: _AggSpec, groups, batch: Batch, n: int) -> list:
    if spec.arg is None:
        return [len(group) for group in groups]
    values = _expand(spec.arg.run(batch), n)
    if spec.fast:
        out = []
        name = spec.name
        for group in groups:
            kept = [v for i in group if (v := values[i]) is not None]
            if name == "COUNT":
                out.append(len(kept))
            elif not kept:
                out.append(None)
            elif name == "SUM":
                out.append(sum(kept))
            elif name == "AVG":
                out.append(sum(kept) / len(kept))
            elif name == "MIN":
                out.append(min(kept))
            else:
                out.append(max(kept))
        return out
    return [
        aggregate(spec.name, [values[i] for i in group], spec.distinct)
        for group in groups
    ]


def _join_keys(batch: Batch, positions: list[int], fast: bool) -> list:
    """Per-row join keys; None means "never matches" (NULL key part)."""
    if len(positions) == 1:
        array = batch.array(positions[0])
        if fast:
            return array
        keys = []
        for value in array:
            if value is None:
                keys.append(None)
                continue
            key = equality_key(value)
            if key is None:
                raise FallbackNeeded("NaN join key")
            keys.append(key)
        return keys
    arrays = [batch.array(position) for position in positions]
    keys = []
    for row in zip(*arrays):
        if any(part is None for part in row):
            keys.append(None)
        elif fast:
            keys.append(row)
        else:
            parts = tuple(equality_key(part) for part in row)
            if any(part is None for part in parts):
                raise FallbackNeeded("NaN join key")
            keys.append(parts)
    return keys


# -- plan construction --------------------------------------------------------

def build_plan(statement: ast.SelectStatement, engine: Engine) -> CompiledSelect:
    """Compile a statement into a vectorized plan, or raise VectorizeError.

    Every rejection reason maps onto behaviour only the interpreter can
    reproduce (correlated or raising sub-queries, lazily raised name
    errors, expressions not provably total over this exact data); the
    caller falls back there. ``engine`` runs the uncorrelated
    sub-queries the plan binds as constants.
    """
    database = engine.database

    def bind(query: ast.SelectStatement):
        if engine.subquery_handle(query).key is None:
            raise VectorizeError("correlated sub-query")
        try:
            return engine.execute_subquery(query, [])
        except Exception as error:  # the interpreter raises it lazily
            raise VectorizeError(
                f"sub-query raised {type(error).__name__}") from None

    try:
        plan = _build(statement, database, bind)
    except (VectorizeError, CompileError, PlanError) as error:
        OPTIMIZER_COUNTERS.bump("plans_row_path")
        raise VectorizeError(str(error)) from None
    OPTIMIZER_COUNTERS.bump("plans_vectorized")
    return plan


def _build(
    statement: ast.SelectStatement, database: Database, bind
) -> CompiledSelect:
    refs = [join.table for join in statement.joins]
    if statement.from_table is not None:
        refs.insert(0, statement.from_table)
    tables = [database.table(ref.name) for ref in refs]
    schemas: list[_Schema] = []
    scan_stats: list[list[ColumnStats]] = []
    for ref, table in zip(refs, tables):
        schema, per_column = _scan_schema(
            table, ref.effective_alias().lower(), bind)
        schemas.append(schema)
        scan_stats.append(per_column)
    full = _Schema([], [], [], bind)
    for schema in schemas:
        full = _Schema.concat(full, schema)
    flat_stats = [stats for per_scan in scan_stats for stats in per_scan]

    def resolve_stats(ref: ast.ColumnRef) -> ColumnStats | None:
        try:
            position = resolve_column(full.columns, ref.name, ref.table)
        except CompileError:
            return None
        return flat_stats[position]

    estimator = Estimator(resolve_stats)

    # -- WHERE: split, target, push --------------------------------------
    offsets: list[tuple[int, int]] = []
    start = 0
    for schema in schemas:
        offsets.append((start, start + len(schema.columns)))
        start += len(schema.columns)
    left_padded = {
        index
        for index, join in enumerate(statement.joins, start=1)
        if join.kind == "LEFT"
    }
    conjuncts = split_conjuncts(statement.where)
    pushed: dict[int, list[ast.Expression]] = {}
    residual_where: list[ast.Expression] = []
    for conjunct in conjuncts:
        try:
            target = _single_scan_target(conjunct, full.columns, offsets)
        except CompileError:
            target = None
        if target is not None and target not in left_padded:
            pushed.setdefault(target, []).append(conjunct)
        else:
            residual_where.append(conjunct)

    plan = CompiledSelect()
    plan.statement = statement
    plan.pushed_count = (
        sum(len(v) for v in pushed.values()) if statement.joins else 0
    )

    # -- scans ------------------------------------------------------------
    scans: list[_ScanPlan] = []
    estimates: list[float] = []
    for index, (table, schema) in enumerate(zip(tables, schemas)):
        scan_conjuncts = pushed.get(index, [])
        compiled = [
            _compile(conjunct, schema, None) for conjunct in scan_conjuncts
        ]
        candidates = []
        for position, conjunct in enumerate(scan_conjuncts):
            probe = _index_probe(conjunct)
            if (
                probe is not None
                and probe[1] is not None
                and table.has_column(probe[0].name)
            ):
                candidates.append(position)
        choice = plan_scan(len(table), scan_conjuncts, estimator, candidates)
        ordered_nodes = [compiled[i] for i in choice.ordered]
        probe_info = None
        if choice.access == "index_probe":
            ref, value = _index_probe(scan_conjuncts[choice.ordered[0]])
            probe_info = (ref.name, value)
        scans.append(
            _ScanPlan(table, schema, ordered_nodes, probe_info, choice.access)
        )
        estimates.append(choice.estimated_rows)
    plan.scans = scans

    # -- joins ------------------------------------------------------------
    joins: list[_JoinPlan] = []
    running = estimates[0] if estimates else 1.0
    cumulative = schemas[0] if schemas else full
    for index, join in enumerate(statement.joins, start=1):
        right_schema = schemas[index]
        combined = _Schema.concat(cumulative, right_schema)
        left_width = len(cumulative.columns)
        if join.kind == "CROSS" or join.condition is None:
            OPTIMIZER_COUNTERS.bump("cross_joins_planned")
            joins.append(_JoinPlan("CROSS", [], True, [], "right"))
            running *= estimates[index]
            cumulative = combined
            continue
        equi: list[tuple[int, int]] = []
        residual_nodes: list[BNode] = []
        for conjunct in split_conjuncts(join.condition):
            pair = _equi_pair(conjunct, combined.columns, left_width)
            if pair is not None:
                equi.append((pair[0], pair[1] - left_width))
            else:
                residual_nodes.append(_compile(conjunct, combined, None))
        if not equi:
            raise VectorizeError("join without an equality pair")
        fast = all(
            cumulative.klasses[lp] != "other"
            and right_schema.klasses[rp] != "other"
            for lp, rp in equi
        )
        key_stats = []
        for lp, rp in equi:
            left_info = cumulative.columns[lp]
            right_info = right_schema.columns[rp]
            key_stats.append((
                resolve_stats(ast.ColumnRef(left_info.display, left_info.table)),
                resolve_stats(
                    ast.ColumnRef(right_info.display, right_info.table)
                ),
            ))
        build = choose_build_side(join.kind, running, estimates[index])
        OPTIMIZER_COUNTERS.bump("hash_joins_planned")
        joins.append(_JoinPlan(join.kind, equi, fast, residual_nodes, build))
        running = estimator.join_rows(running, estimates[index], key_stats)
        cumulative = combined
    plan.joins = joins

    # -- residual WHERE ----------------------------------------------------
    ordered_residual = order_conjuncts(residual_where, estimator)
    plan.where_nodes = [
        _compile(residual_where[i], full, None) for i, _ in ordered_residual
    ]

    # -- projection --------------------------------------------------------
    plan.grouped = ast.is_aggregate_query(statement)
    if plan.grouped:
        if any(isinstance(i.expression, ast.Star) for i in statement.items):
            raise VectorizeError("'*' in an aggregate select list")
        items = list(statement.items)
        order_items = _resolve_order_items(statement, items)
        aggs = _collect_aggregates(items, statement.having, order_items)
        specs: list[_AggSpec] = []
        env_map: dict[int, tuple[int, str]] = {}
        for slot, agg_node in enumerate(aggs):
            spec, klass = _compile_aggregate(agg_node, full, slot)
            specs.append(spec)
            env_map[id(agg_node)] = (slot, klass)  # lint: allow-id-key
        plan.agg_specs = specs
        roots = [item.expression for item in items]
        roots += [order.expression for order in order_items]
        _check_raising_aggregates(aggs, specs, statement.having, roots)
        plan.group_key_nodes = [
            _compile(expr, full, None) for expr in statement.group_by
        ]
        plan.item_nodes = [
            _compile(item.expression, full, env_map) for item in items
        ]
        plan.having_node = (
            _compile(statement.having, full, env_map)
            if statement.having is not None else None
        )
        plan.order_nodes = [
            (_compile(order.expression, full, env_map), order.descending)
            for order in order_items
        ]
        plan.bare_columns = _reads_bare_columns(
            roots + [statement.having], aggs)
    else:
        items = _expand_select_items(statement, full.columns)
        order_items = _resolve_order_items(statement, items)
        plan.agg_specs = []
        plan.bare_columns = False
        plan.group_key_nodes = []
        plan.having_node = None
        plan.item_nodes = [
            _compile(item.expression, full, None) for item in items
        ]
        plan.order_nodes = [
            (_compile(order.expression, full, None), order.descending)
            for order in order_items
        ]
    plan.names = [item.output_name() for item in items]
    plan.summary = _summarize(plan)
    return plan


def _single_scan_target(
    conj: ast.Expression,
    all_columns: list[ColumnInfo],
    offsets: list[tuple[int, int]],
) -> int | None:
    """The single scan this conjunct's columns all come from, if any."""
    target: int | None = None
    saw_column = False
    for node in ast.walk_expressions(conj):
        if not isinstance(node, ast.ColumnRef):
            continue
        saw_column = True
        position = resolve_column(all_columns, node.name, node.table)
        scan = next(
            index for index, (start, end) in enumerate(offsets)
            if start <= position < end
        )
        if target is None:
            target = scan
        elif target != scan:
            return None
    return target if saw_column else None


def _index_probe(
    conj: ast.Expression,
) -> tuple[ast.ColumnRef, SqlValue] | None:
    """Match ``col = literal`` / ``literal = col`` for index lookups."""
    if isinstance(conj, ast.BinaryOp) and conj.op == "=":
        if isinstance(conj.left, ast.ColumnRef) and isinstance(
            conj.right, ast.Literal
        ):
            return conj.left, conj.right.value
        if isinstance(conj.right, ast.ColumnRef) and isinstance(
            conj.left, ast.Literal
        ):
            return conj.right, conj.left.value
    return None


def _equi_pair(
    conj: ast.Expression, columns: list[ColumnInfo], left_width: int
) -> tuple[int, int] | None:
    """Match ``left_col = right_col`` across the join boundary."""
    if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
        return None
    if not (isinstance(conj.left, ast.ColumnRef)
            and isinstance(conj.right, ast.ColumnRef)):
        return None
    try:
        a = resolve_column(columns, conj.left.name, conj.left.table)
        b = resolve_column(columns, conj.right.name, conj.right.table)
    except CompileError:
        return None
    if a < left_width <= b:
        return (a, b)
    if b < left_width <= a:
        return (b, a)
    return None


def _collect_aggregates(items, having, order_items) -> list[ast.AggregateCall]:
    roots: list[object] = [item.expression for item in items]
    if having is not None:
        roots.append(having)
    roots.extend(order.expression for order in order_items)
    seen: set[int] = set()
    collected: list[ast.AggregateCall] = []
    for root in roots:
        for node in ast.walk_expressions(root):
            if isinstance(node, ast.AggregateCall) and id(node) not in seen:
                seen.add(id(node))  # lint: allow-id-key
                collected.append(node)
    return collected


def _check_raising_aggregates(aggs, specs, having, roots) -> None:
    """Allow one SUM/AVG over a non-numeric argument, which may raise.

    The plan computes it per group in group order, as the interpreter
    meets it, and raises the interpreter's own error, provided nothing
    else can raise and every group evaluates it: no HAVING, and no AND,
    OR, CASE or IN between it and a select or ORDER BY root (those may
    skip an operand).
    """
    raising = [
        agg for agg, spec in zip(aggs, specs)
        if spec.name in ("SUM", "AVG") and not _numx_ok(spec.arg.klass)
    ]
    if not raising:
        return
    reason = f"{raising[0].name} over a non-numeric column"
    if len(raising) > 1 or having is not None:
        raise VectorizeError(reason)
    target = raising[0]
    for root in roots:
        nodes = list(ast.walk_expressions(root))
        if not any(node is target for node in nodes):
            continue
        guarded = {
            id(inner)  # lint: allow-id-key
            for node in nodes if _may_skip_operands(node)
            for inner in ast.walk_expressions(node) if inner is not node
        }
        if id(target) not in guarded:  # lint: allow-id-key
            return
    raise VectorizeError(reason)


def _may_skip_operands(node: ast.Expression) -> bool:
    return isinstance(node, (ast.CaseExpr, ast.InExpr)) or (
        isinstance(node, ast.BinaryOp) and node.op in ("AND", "OR"))


def _reads_bare_columns(roots, aggs: list[ast.AggregateCall]) -> bool:
    """True when a column is read outside every aggregate argument."""
    inside = {
        id(node)  # lint: allow-id-key
        for agg in aggs for node in ast.walk_expressions(agg.argument)
    }
    return any(
        isinstance(node, ast.ColumnRef)
        and id(node) not in inside  # lint: allow-id-key
        for root in roots for node in ast.walk_expressions(root)
    )


def _compile_aggregate(
    node: ast.AggregateCall, schema: _Schema, slot: int
) -> tuple[_AggSpec, str]:
    name = node.name
    if isinstance(node.argument, ast.Star):
        if name != "COUNT":
            raise VectorizeError(f"{name}(*)")
        return _AggSpec(slot, name, False, None, True), "num"
    argument = _compile(node.argument, schema, None)
    if name == "COUNT":
        klass = "num"
    elif name in ("SUM", "AVG"):
        klass = "numx"      # may raise unless the argument is numeric
    elif name in ("MIN", "MAX"):
        klass = argument.klass
    else:
        raise VectorizeError(f"aggregate {name}")
    fast = not node.distinct and _num_ok(argument.klass)
    return _AggSpec(slot, name, node.distinct, argument, fast), klass


def _summarize(plan: CompiledSelect) -> str:
    scan_bits = []
    for scan in plan.scans:
        bit = f"{scan.table.name}:{scan.access}"
        if scan.nodes:
            bit += f"+{len(scan.nodes)}"
        scan_bits.append(bit)
    parts = [
        "vectorized/" + ("group" if plan.grouped else "plain"),
        "scan=" + (",".join(scan_bits) or "none"),
    ]
    if plan.joins:
        join_bits = []
        for join in plan.joins:
            if join.kind == "CROSS":
                join_bits.append("cross")
            else:
                bit = f"hash:{join.build}"
                if join.residual:
                    bit += f"+{len(join.residual)}"
                join_bits.append(bit)
        parts.append("join=" + ",".join(join_bits))
    if plan.where_nodes:
        parts.append(f"where+{len(plan.where_nodes)}")
    return " ".join(parts)
