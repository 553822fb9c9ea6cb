"""Query executor: binds a parsed SELECT to a database and runs it.

Two executors share one code base:

* the interpreter — nested-loop joins and per-row :class:`Evaluator`
  tree walks. ``Engine(naive=True)`` runs nothing else (and parses per
  call, with no caches): it is the semantic oracle for differential
  tests and benchmarks.
* the vectorized plan (:mod:`repro.sqlengine.vectorized`) — what a
  default engine runs. Each SQL text is parsed, analyzed and planned
  once per engine (:meth:`Engine.prepare`), and finished results can be
  cached per (database fingerprint, normalized SQL) in a
  :class:`~repro.sqlengine.planner.QueryResultCache`.

The vectorized plan is required to be *byte-identical* to the oracle:
same rows, same row order, same errors. A statement it cannot prove
equivalent (correlated sub-queries, unresolved names, expressions that
can raise over this data) has no plan, and a plan the data defeats at
run time is disabled; either way a default engine runs the interpreter,
through its caches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.tracer import MAX_ATTRIBUTE_LENGTH, current_tracer

from . import ast_nodes as ast
from .analyzer import (
    ANALYZER_COUNTERS,
    QueryAnalysis,
    analyze_prepared,
    subquery_is_cacheable,
)
from .errors import EmptyResultError, ExecutionError, PlanError, SqlError
from .expressions import ColumnInfo, Evaluator, GroupContext, Scope, _truthy
from .parser import parse_select
from .planner import (
    DEFAULT_RESULT_CACHE_SIZE,
    PREPARED_COUNTERS,
    PREPARED_TABLE_SIZE,
    STRATEGY_COUNTERS,
    PlanCache,
    QueryResultCache,
    normalize_sql,
    shared_plan_cache,
)
from .table import Database, Table
from .values import SqlValue, to_text


@dataclass
class QueryResult:
    """Rows produced by a query, with display column names."""

    columns: list[str]
    rows: list[tuple[SqlValue, ...]]

    def scalar(self) -> SqlValue:
        """Return the single cell of a single-cell result.

        Raises :class:`EmptyResultError` when the result has no rows (this
        is the error the paper's agent observes for wrong constants, see
        Figure 4) and :class:`ExecutionError` when the result is not a
        single cell.
        """
        if not self.rows:
            raise EmptyResultError()
        if len(self.rows) > 1 or len(self.columns) > 1:
            raise ExecutionError(
                f"expected a single cell, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def first_cell(self) -> SqlValue:
        """Return the top-left cell, raising only on empty results."""
        if not self.rows:
            raise EmptyResultError()
        return self.rows[0][0]

    def copy(self) -> "QueryResult":
        """A defensive copy (rows are shared tuples, the lists are new)."""
        return QueryResult(list(self.columns), list(self.rows))

    def to_text_table(self, limit: int = 20) -> str:
        """Render the result as an aligned text table (for agent prompts)."""
        header = [self.columns]
        body = [[to_text(v) for v in row] for row in self.rows[:limit]]
        table = header + body
        widths = [
            max(len(row[i]) for row in table) for i in range(len(self.columns))
        ]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in table
        ]
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


class _Relation:
    """An intermediate relation: column metadata plus rows."""

    def __init__(self, columns: list[ColumnInfo],
                 rows: list[tuple[SqlValue, ...]]):
        self.columns = columns
        self.rows = rows


_UNSET = object()

#: Process-wide default for engines constructed with ``vectorized=None``.
#: Live (engines consult it per call through the ``vectorized`` property),
#: so toggling it also affects engines already cached via ``engine_for``.
VECTORIZED_DEFAULT = True


#: Part of every prepared-handle table's validity tag, beside the database
#: fingerprint; bumped by :func:`set_vectorized_default` (plan labels
#: follow the live mode) and :func:`invalidate_prepared`.
_PREPARED_EPOCH = 0


def invalidate_prepared() -> None:
    """Drop every engine's prepared handles (they re-prepare lazily)."""
    global _PREPARED_EPOCH
    _PREPARED_EPOCH += 1


def set_vectorized_default(enabled: bool) -> bool:
    """Set the process-wide vectorized default; returns the old value."""
    global VECTORIZED_DEFAULT
    previous = VECTORIZED_DEFAULT
    VECTORIZED_DEFAULT = bool(enabled)
    invalidate_prepared()
    return previous


def _clip_sql(sql: str) -> str:
    """Clip SQL text to the tracer's attribute bound (``Tracer.leaf``
    trusts callers to pre-clip; a single length check here keeps the
    traced hot path from paying a generic per-attribute loop)."""
    if len(sql) > MAX_ATTRIBUTE_LENGTH:
        return sql[: MAX_ATTRIBUTE_LENGTH - 1] + "…"
    return sql


_UNBUILT = object()


class Prepared:
    """One SQL text prepared against one engine's database.

    Carries the normalized ``key`` (also the result-cache key) and the
    parsed ``statement`` — None, with the parse ``error`` message, when
    the text does not parse — and builds the analysis, vectorized plan
    and plan label once each, on first use. Valid only for the database
    state and vectorized mode it was prepared under. Subquery handles
    have no text; their ``key`` is None unless the result is cacheable.
    """

    __slots__ = ("engine", "sql", "key", "statement", "error",
                 "_analysis", "_plan", "_label")

    def __init__(self, engine: "Engine", sql: str | None, key: str | None,
                 statement: ast.SelectStatement | None,
                 error: str | None = None) -> None:
        self.engine, self.sql, self.key = engine, sql, key
        self.statement, self.error = statement, error
        self._analysis: QueryAnalysis | None = None
        self._plan = _UNBUILT
        self._label: str | None = None

    @property
    def analysis(self) -> QueryAnalysis:
        """The static analysis against the engine's database."""
        if self._analysis is None:
            self._analysis = analyze_prepared(
                self.sql, self.statement, self.error, self.engine.database)
        else:
            ANALYZER_COUNTERS.bump("memo_hits")
        return self._analysis

    @property
    def plan(self):
        """The vectorized plan (None: interpreter); its soundness facts
        and bound sub-query values come from the database, hence the
        fingerprint guard."""
        if self._plan is _UNBUILT:
            # Imported lazily: vectorized.py reuses this module's planning
            # helpers, so a top-level import would be circular.
            from . import vectorized as vec

            try:
                self._plan = vec.build_plan(self.statement, self.engine)
            except vec.VectorizeError:
                self._plan = None
        return self._plan

    @property
    def label(self) -> str:
        """See :meth:`Engine.plan_label` (which answers naive engines)."""
        if self._label is None:
            plan = (self.plan if self.statement is not None
                    and self.engine.vectorized else None)
            self._label = plan.summary if plan is not None else "row"
        return self._label


class Engine:
    """Executes SELECT statements against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        *,
        naive: bool = False,
        vectorized: "bool | None" = None,
        plan_cache: "PlanCache | None | object" = _UNSET,
        result_cache: QueryResultCache | None = None,
    ) -> None:
        self.database = database
        self._evaluator = Evaluator(self)
        self.naive = naive
        self._vectorized_opt = vectorized
        if naive:
            self.plan_cache: PlanCache | None = None
            self.result_cache: QueryResultCache | None = None
        else:
            self.plan_cache = (
                shared_plan_cache() if plan_cache is _UNSET else plan_cache
            )  # type: ignore[assignment]
            self.result_cache = result_cache
        # Raw and normalized SQL text (and id() of a nested statement) ->
        # Prepared, valid for the (fingerprint, epoch) tag it was filled
        # under; oldest out first.
        self._prepared: dict[str | int, Prepared] = {}
        self._prepared_tag: tuple = ()
        self._prepared_lock = threading.Lock()

    @property
    def vectorized(self) -> bool:
        """Whether this engine attempts the vectorized path (live value)."""
        if self.naive:
            return False
        if self._vectorized_opt is None:
            return VECTORIZED_DEFAULT
        return self._vectorized_opt

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute SQL text (consulting the caches, if any).

        When a tracer is active, one pre-timed ``sql_execute`` leaf span
        is recorded per call (the :meth:`Tracer.record` fast path — no
        stack operations). Cache hit/miss status is deliberately *not*
        an attribute: the shared plan/result caches are process-warm
        state, and span trees must be identical run over run.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return self._execute_text(sql)
        start = tracer.clock()
        try:
            result = self._execute_text(sql)
        except Exception as error:
            tracer.leaf(
                "sql", "sql_execute", start, tracer.clock(),
                {"sql": _clip_sql(sql), "error": type(error).__name__},
                status="error",
            )
            raise
        tracer.leaf(
            "sql", "sql_execute", start, tracer.clock(),
            {"sql": sql if len(sql) <= MAX_ATTRIBUTE_LENGTH
             else _clip_sql(sql),
             "rows": len(result.rows), "plan": self.plan_label(sql)},
        )
        return result

    def prepare(self, sql: str) -> Prepared:
        """The handle for ``sql``: one per text and normalized text.

        Only a miss on both parses (through :attr:`plan_cache`, if any);
        a parse error is kept on the handle, not raised. The table is
        dropped when the database fingerprint or the vectorized epoch
        moves, so no handle outlives the schema, statistics or mode it
        was built against.
        """
        tag = (self.database.fingerprint(), _PREPARED_EPOCH)
        table = self._prepared
        with self._prepared_lock:
            if self._prepared_tag != tag:
                table.clear()
                self._prepared_tag = tag
            handle = table.get(sql)
        if handle is not None:
            PREPARED_COUNTERS.bump("hits")
            return handle
        key = normalize_sql(sql)
        handle = table.get(key)
        PREPARED_COUNTERS.bump("misses" if handle is None else "hits")
        if handle is None:
            try:
                handle = Prepared(self, sql, key, (
                    self.plan_cache.parse(sql, key)
                    if self.plan_cache is not None else parse_select(sql)))
            except SqlError as error:
                handle = Prepared(self, sql, key, None, str(error))
        return self._keep(tag, handle, key, sql)

    def _keep(self, tag: tuple, handle: Prepared, *keys) -> Prepared:
        """Enter ``handle`` under ``keys`` unless the table has moved on;
        a racing thread's handle entered first under ``keys[0]`` wins."""
        table = self._prepared
        evicted = 0
        with self._prepared_lock:
            if self._prepared_tag == tag:
                handle = table.setdefault(keys[0], handle)
                for key in keys[1:]:
                    table[key] = handle
                while len(table) > PREPARED_TABLE_SIZE:
                    del table[next(iter(table))]
                    evicted += 1
        if evicted:
            PREPARED_COUNTERS.bump("evictions", evicted)
        return handle

    def plan_label(self, sql: str) -> str:
        """A deterministic description of this engine's plan for ``sql``.

        ``"naive"`` for oracle engines, the vectorized plan's summary
        string when one compiles, else ``"row"``. The label describes the
        *chosen* plan, not any particular execution: it is identical on
        cold runs, result-cache hits, and after a runtime fallback, so
        span trees stay deterministic. Never raises (any failure while
        planning here simply reports ``"row"`` — the actual execution
        surfaces the real error). Read off the prepared handle.
        """
        if self.naive:
            return "naive"
        try:
            return self.prepare(sql).label
        except Exception:
            return "row"

    def _execute_text(self, sql: str) -> QueryResult:
        if self.naive:
            STRATEGY_COUNTERS.bump("naive_executions")
            return self.execute_statement(parse_select(sql), [])
        handle = self.prepare(sql)
        statement = handle.statement
        if statement is None:
            parse_select(sql)   # raises a fresh error; handles share none
        if self.result_cache is None:
            return self.execute_statement(statement, [], handle)
        # ``database=`` lets the cache derive a content-based stable key
        # for its persistent tier; the L1 key stays the cheap
        # process-local fingerprint pair.
        cache_key = (self.database.fingerprint(), handle.key)
        cached = self.result_cache.get(cache_key, database=self.database)
        if cached is not None:
            STRATEGY_COUNTERS.bump("result_cache_hits")
            return cached
        STRATEGY_COUNTERS.bump("result_cache_misses")
        result = self.execute_statement(statement, [], handle)
        self.result_cache.put(cache_key, result, database=self.database)
        return result

    def execute_scalar(self, sql: str) -> SqlValue:
        """Execute SQL text expected to produce a single cell."""
        return self.execute(sql).scalar()

    def execute_subquery(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope]
    ) -> QueryResult:
        """Execute a nested statement, consulting the result cache when safe.

        The analyzer proves which subqueries are pure functions of the
        database; those hit the shared result cache, while correlated
        ones (whose results depend on the outer row) bypass it —
        explicitly, with counters. The statement's handle sits in the
        prepared table under its id(), kept alive by the handle itself.
        """
        if self.naive:
            return self.execute_statement(statement, outer_scopes)
        handle = self.subquery_handle(statement)
        if self.result_cache is None:
            return self.execute_statement(statement, outer_scopes, handle)
        if handle.key is None:
            STRATEGY_COUNTERS.bump("subquery_cache_bypasses")
            return self.execute_statement(statement, outer_scopes, handle)
        cache_key = (self.database.fingerprint(), handle.key)
        cached = self.result_cache.get(cache_key, database=self.database)
        if cached is not None:
            STRATEGY_COUNTERS.bump("subquery_cache_hits")
            return cached
        STRATEGY_COUNTERS.bump("subquery_cache_misses")
        result = self.execute_statement(statement, outer_scopes, handle)
        self.result_cache.put(cache_key, result, database=self.database)
        return result

    def subquery_handle(self, statement: ast.SelectStatement) -> Prepared:
        """The nested statement's handle; its ``key`` is None when the
        statement is correlated (or otherwise not cacheable)."""
        handle = self._prepared.get(id(statement))  # lint: allow-id-key
        if handle is None or handle.statement is not statement:
            cacheable = subquery_is_cacheable(statement, self.database)
            key = normalize_sql(statement.to_sql()) if cacheable else None
            handle = self._keep(self._prepared_tag,
                                Prepared(self, None, key, statement),
                                id(statement))  # lint: allow-id-key
        return handle

    def execute_statement(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope],
        handle: Prepared | None = None,
    ) -> QueryResult:
        """Execute a parsed statement; ``outer_scopes`` enables correlation.

        ``handle`` (the statement's prepared handle) supplies the
        vectorized plan; without one, or without a usable plan, the
        interpreter runs. Subqueries re-enter here with live scopes.
        """
        attempt = (
            self._vectorized_attempt(handle)
            if handle is not None and self.vectorized else None
        )
        if attempt is not None:
            names, tagged = attempt
        else:
            relation = self._build_from(statement, outer_scopes)
            if statement.where is not None:
                relation = self._filter(relation, statement.where, outer_scopes)
            names, tagged = self._project(statement, relation, outer_scopes)
        if statement.distinct:
            tagged = _dedupe_tagged(tagged)
        if statement.order_by:
            tagged.sort(key=lambda pair: pair[1])
        rows = [row for row, _ in tagged]
        if statement.offset is not None:
            rows = rows[statement.offset:]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return QueryResult(names, rows)

    def _project(
        self,
        statement: ast.SelectStatement,
        relation: "_Relation",
        outer_scopes: list[Scope],
    ) -> tuple[list[str], list[tuple[tuple[SqlValue, ...], tuple]]]:
        if ast.is_aggregate_query(statement):
            return self._execute_grouped(statement, relation, outer_scopes)
        return self._execute_plain(statement, relation, outer_scopes)

    # -- vectorized path -----------------------------------------------------

    def _vectorized_attempt(self, handle: Prepared):
        """Run the vectorized plan if one exists; None: interpret.

        A :class:`~repro.sqlengine.vectorized.FallbackNeeded` escape
        disables the plan permanently (its triggers depend only on the
        immutable table contents, so retrying can never succeed).
        """
        plan = handle.plan
        if plan is None:
            STRATEGY_COUNTERS.bump("vectorized_ineligible")
            return None
        if plan.disabled:
            STRATEGY_COUNTERS.bump("vectorized_runtime_fallbacks")
            return None
        from .vectorized import FallbackNeeded

        try:
            names, tagged = plan.run()
        except FallbackNeeded:
            plan.disabled = True
            STRATEGY_COUNTERS.bump("vectorized_runtime_fallbacks")
            return None
        except SqlError:    # the oracle's own error, raised by the plan
            STRATEGY_COUNTERS.bump("vectorized_executions")
            raise
        STRATEGY_COUNTERS.bump("vectorized_executions")
        return names, tagged

    # -- interpreter: FROM and WHERE ---------------------------------------

    def _build_from(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope]
    ) -> _Relation:
        if statement.from_table is None:
            return _Relation([], [()])
        relation = self._scan(statement.from_table)
        for join in statement.joins:
            right = self._scan(join.table)
            relation = self._join(relation, right, join, outer_scopes)
        return relation

    def _scan(self, ref: ast.TableRef) -> _Relation:
        table: Table = self.database.table(ref.name)
        alias = ref.effective_alias().lower()
        columns = [
            ColumnInfo(alias, name.lower(), name) for name in table.column_names
        ]
        return _Relation(columns, list(table.rows))

    def _join(
        self,
        left: _Relation,
        right: _Relation,
        join: ast.Join,
        outer_scopes: list[Scope],
    ) -> _Relation:
        columns = left.columns + right.columns
        rows: list[tuple[SqlValue, ...]] = []
        null_right = (None,) * len(right.columns)
        for left_row in left.rows:
            matched = False
            for right_row in right.rows:
                combined = left_row + right_row
                if join.kind == "CROSS" or join.condition is None:
                    keep = True
                else:
                    scope = Scope(columns, combined)
                    value = self._evaluator.evaluate(
                        join.condition, [scope] + outer_scopes
                    )
                    keep = value is not None and _truthy(value)
                if keep:
                    matched = True
                    rows.append(combined)
            if join.kind == "LEFT" and not matched:
                rows.append(left_row + null_right)
        return _Relation(columns, rows)

    def _filter(
        self,
        relation: _Relation,
        condition: ast.Expression,
        outer_scopes: list[Scope],
    ) -> _Relation:
        kept: list[tuple[SqlValue, ...]] = []
        for row in relation.rows:
            scope = Scope(relation.columns, row)
            value = self._evaluator.evaluate(condition, [scope] + outer_scopes)
            if value is not None and _truthy(value):
                kept.append(row)
        return _Relation(relation.columns, kept)

    # -- projection --------------------------------------------------------

    def _execute_plain(
        self,
        statement: ast.SelectStatement,
        relation: _Relation,
        outer_scopes: list[Scope],
    ) -> tuple[list[str], list[tuple[tuple[SqlValue, ...], tuple]]]:
        items = _expand_select_items(statement, relation.columns)
        order_items = _resolve_order_items(statement, items)
        names = [item.output_name() for item in items]
        tagged: list[tuple[tuple[SqlValue, ...], tuple]] = []
        for row in relation.rows:
            scopes = [Scope(relation.columns, row)] + outer_scopes
            output = tuple(
                self._evaluator.evaluate(item.expression, scopes)
                for item in items
            )
            keys = tuple(
                _sort_key(
                    self._evaluator.evaluate(order.expression, scopes),
                    order.descending,
                )
                for order in order_items
            )
            tagged.append((output, keys))
        return names, tagged

    def _execute_grouped(
        self,
        statement: ast.SelectStatement,
        relation: _Relation,
        outer_scopes: list[Scope],
    ) -> tuple[list[str], list[tuple[tuple[SqlValue, ...], tuple]]]:
        if any(isinstance(i.expression, ast.Star) for i in statement.items):
            raise PlanError("'*' cannot appear in an aggregate select list")
        items = list(statement.items)
        order_items = _resolve_order_items(statement, items)
        groups = self._group_rows(statement, relation, outer_scopes)
        names = [item.output_name() for item in items]
        tagged: list[tuple[tuple[SqlValue, ...], tuple]] = []
        for group_rows in groups:
            context = GroupContext(relation.columns, group_rows)
            representative = (
                [Scope(relation.columns, group_rows[0])] if group_rows else []
            )
            scopes = representative + outer_scopes
            if statement.having is not None:
                value = self._evaluator.evaluate(
                    statement.having, scopes, context
                )
                if value is None or not _truthy(value):
                    continue
            output = tuple(
                self._evaluator.evaluate(item.expression, scopes, context)
                for item in items
            )
            keys = tuple(
                _sort_key(
                    self._evaluator.evaluate(order.expression, scopes, context),
                    order.descending,
                )
                for order in order_items
            )
            tagged.append((output, keys))
        return names, tagged

    def _group_rows(
        self,
        statement: ast.SelectStatement,
        relation: _Relation,
        outer_scopes: list[Scope],
    ) -> list[list[tuple[SqlValue, ...]]]:
        if not statement.group_by:
            # A single group covering the whole relation (global aggregate).
            return [relation.rows]
        buckets: dict[tuple[SqlValue, ...], list[tuple[SqlValue, ...]]] = {}
        for row in relation.rows:
            scopes = [Scope(relation.columns, row)] + outer_scopes
            key = tuple(
                self._evaluator.evaluate(expr, scopes)
                for expr in statement.group_by
            )
            buckets.setdefault(key, []).append(row)
        return list(buckets.values())


# -- per-database engine registry --------------------------------------------

_ENGINE_LOCK = threading.Lock()


def engine_for(
    database: Database,
    result_cache: "QueryResultCache | None | object" = _UNSET,
) -> Engine:
    """The shared optimized engine for a database (one per Database).

    The engine is cached as an attribute on the Database itself rather
    than in a weakref-keyed registry: the engine holds a strong reference
    back to its database, so a WeakKeyDictionary entry would never be
    collected, while an attribute forms a simple cycle the garbage
    collector already handles. Pass ``result_cache`` to rebind the
    engine's result cache (``None`` disables it); omit it to leave the
    current cache — a private per-database one by default — in place.
    """
    engine = getattr(database, "_cached_engine", None)
    if engine is None:
        with _ENGINE_LOCK:
            engine = getattr(database, "_cached_engine", None)
            if engine is None:
                engine = Engine(
                    database,
                    result_cache=QueryResultCache(DEFAULT_RESULT_CACHE_SIZE),
                )
                database._cached_engine = engine
    if result_cache is not _UNSET and engine.result_cache is not result_cache:
        engine.result_cache = result_cache  # type: ignore[assignment]
    return engine


# -- planning helpers --------------------------------------------------------


def _expand_select_items(
    statement: ast.SelectStatement, columns: list[ColumnInfo]
) -> list[ast.SelectItem]:
    """Expand ``*`` / ``table.*`` select items against resolved columns.

    Module-level (statement + column metadata only) so the vectorized
    compiler shares the exact expansion — including the error for an
    unknown ``table.*`` — with the interpreter.
    """
    expanded: list[ast.SelectItem] = []
    for item in statement.items:
        if isinstance(item.expression, ast.Star):
            table = item.expression.table
            table_lower = table.lower() if table else None
            selected = [
                info
                for info in columns
                if table_lower is None or info.table == table_lower
            ]
            if table_lower is not None and not selected:
                raise PlanError(f"unknown table in {table}.*")
            for info in selected:
                expanded.append(
                    ast.SelectItem(
                        ast.ColumnRef(info.display, info.table), info.display
                    )
                )
        else:
            expanded.append(item)
    return expanded


def _resolve_order_items(
    statement: ast.SelectStatement, items: list[ast.SelectItem]
) -> list[ast.OrderItem]:
    """Resolve ORDER BY aliases and 1-based ordinals to expressions."""
    aliases = {
        item.alias.lower(): item.expression
        for item in items
        if item.alias
    }
    resolved: list[ast.OrderItem] = []
    for order in statement.order_by:
        expression = order.expression
        if isinstance(expression, ast.Literal) and isinstance(
            expression.value, int
        ):
            position = expression.value - 1
            if not 0 <= position < len(items):
                raise PlanError(
                    f"ORDER BY position {expression.value} out of range"
                )
            expression = items[position].expression
        elif (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.name.lower() in aliases
        ):
            expression = aliases[expression.name.lower()]
        resolved.append(ast.OrderItem(expression, order.descending))
    return resolved


def _dedupe_tagged(
    tagged: list[tuple[tuple[SqlValue, ...], tuple]]
) -> list[tuple[tuple[SqlValue, ...], tuple]]:
    seen: set[tuple[SqlValue, ...]] = set()
    unique: list[tuple[tuple[SqlValue, ...], tuple]] = []
    for output, keys in tagged:
        if output not in seen:
            seen.add(output)
            unique.append((output, keys))
    return unique


_TYPE_RANK = {bool: 1, int: 2, float: 2, str: 3}


def _sort_key(value: SqlValue, descending: bool):
    """Build a totally-ordered sort key.

    NULLs sort after non-NULL values in ascending order and before them in
    descending order (both reduce to "NULLs are largest").
    """
    if value is None:
        return (0, 0, 0) if descending else (1, 0, 0)
    rank = _TYPE_RANK.get(type(value), 4)
    key: object = int(value) if isinstance(value, bool) else value
    if descending:
        if isinstance(key, (int, float)):
            return (0, rank, -key)
        return (0, rank, _Reversed(key))
    return (0, rank, key)


class _Reversed:
    """Wrapper inverting comparisons, for descending string sorts."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.value)
