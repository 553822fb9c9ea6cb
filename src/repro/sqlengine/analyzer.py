"""Static semantic analysis of SELECT statements against a schema catalog.

The analyzer walks a parsed (prepared) statement against the
:class:`~repro.sqlengine.table.Database` schema and emits structured
:class:`Diagnostic` records with stable ``SQLAxxx`` codes, plus a
per-query :class:`QueryAnalysis` verdict: inferred result type and
column list, a single-cell fact, and purity/cacheability facts (which
subqueries are correlated and therefore must bypass the result cache).

Severity model — the hard contract is differential: **any query the
naive interpreter executes successfully must produce zero analyzer
errors** (warnings are unrestricted). The naive engine resolves names
and types lazily, once per evaluated row, so ``SELECT nope FROM t``
*succeeds* when ``t`` is empty. A diagnostic is therefore an ``error``
only when both hold:

* the offending expression is *guaranteed to be evaluated* when the
  query runs (tracked through relation non-emptiness proofs and the
  evaluator's exact short-circuit rules), and
* evaluating it is *guaranteed to raise* (an unresolvable column, an
  arithmetic operand that is a provably non-NULL non-numeric value,
  a bad function arity, ...).

Everything else — suspicious but data-dependent — is a ``warning``.
A few checks are eager in the executor (unknown tables, ``ORDER BY``
ordinals out of range, ``*`` in an aggregate select list, unknown
``t.*`` qualifiers) and are errors whenever the statement itself is
guaranteed to run.

This module also owns :func:`split_conjuncts` (shared with the
vectorized planner) and the :func:`subquery_is_cacheable` verdict that
drives the engine's result-cache bypass for correlated subqueries and
decides which sub-queries a vectorized plan binds as constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import ast_nodes as ast
from .functions import SCALAR_FUNCTION_NAMES
from .table import Database, Table
from .values import CASTABLE_TYPES, coerce_numeric

ERROR = "error"
WARNING = "warning"

#: Stable diagnostic codes and their one-line meanings (see docs/analyzer.md).
DIAGNOSTIC_CODES = {
    "SQLA001": "unknown column",
    "SQLA002": "unknown table",
    "SQLA003": "ambiguous column reference",
    "SQLA010": "type mismatch in comparison or arithmetic",
    "SQLA011": "bad function name, arity, or argument type",
    "SQLA012": "unknown CAST target type",
    "SQLA013": "ORDER BY position out of range",
    "SQLA020": "aggregate used outside an aggregate context",
    "SQLA021": "bare column not covered by GROUP BY",
    "SQLA022": "'*' in an aggregate select list",
    "SQLA030": "result is not a single cell",
    "SQLA031": "result type cannot match the claim type",
    "SQLA040": "cartesian join without an equi-join condition",
    "SQLA041": "literal not found in the column's value domain",
    "SQLA090": "syntax error",
}

#: (min, max) argument counts per scalar function; None means unbounded.
#: Mirrors the ``_require_args`` calls in :mod:`repro.sqlengine.functions`
#: (IFNULL aliases COALESCE, so it genuinely accepts a single argument).
_FUNCTION_ARITY: dict[str, tuple[int, int | None]] = {
    "ABS": (1, 1),
    "ROUND": (1, 2),
    "LOWER": (1, 1),
    "UPPER": (1, 1),
    "LENGTH": (1, 1),
    "LEN": (1, 1),
    "COALESCE": (1, None),
    "IFNULL": (1, None),
    "NULLIF": (2, 2),
    "SUBSTR": (2, 3),
    "SUBSTRING": (2, 3),
    "TRIM": (1, 1),
}

_NUMERIC_TYPES = frozenset(("INTEGER", "REAL", "NUMERIC"))

_CAST_RESULT_TYPES = {
    "INTEGER": "INTEGER", "INT": "INTEGER", "BIGINT": "INTEGER",
    "REAL": "REAL", "FLOAT": "REAL", "DOUBLE": "REAL",
    "TEXT": "TEXT", "VARCHAR": "TEXT", "STRING": "TEXT",
    "BOOLEAN": "BOOLEAN", "BOOL": "BOOLEAN",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, and a rendered message."""

    code: str
    severity: str
    message: str

    def render(self) -> str:
        return f"{self.code} {self.message}"


@dataclass(frozen=True)
class QueryAnalysis:
    """The per-query verdict record produced by :func:`analyze_sql`."""

    sql: str
    statement: ast.SelectStatement | None
    diagnostics: tuple[Diagnostic, ...]
    #: Output column names, or None when unknowable (parse failure, or an
    #: unknown table making ``*`` expansion impossible).
    result_columns: tuple[str, ...] | None
    #: Inferred type of the first output column (the claim-bearing cell).
    result_type: str
    #: True when the query provably returns exactly one row and column,
    #: False when it provably does not (≥ 2 columns), None when unknown.
    single_cell: bool | None
    #: True when every name resolved and no subquery anywhere in the
    #: statement is correlated — the result is a pure function of the
    #: database, safe for text-keyed result caching at any level.
    cacheable: bool
    correlated_subqueries: int
    uncorrelated_subqueries: int

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def ok(self) -> bool:
        """True when the query carries no error-severity diagnostics."""
        return not self.errors


def render_diagnostics(diagnostics) -> str:
    """Render diagnostics as one semicolon-joined line (for feedback)."""
    return "; ".join(d.render() for d in diagnostics)


def shape_diagnostics(
    analysis: QueryAnalysis,
    *,
    expect_single_cell: bool = True,
    claim_numeric: bool | None = None,
) -> tuple[Diagnostic, ...]:
    """Claim-context checks layered on top of a generic analysis.

    ``SQLA030``: the query provably does not return a single cell (its
    select list has more than one column). ``SQLA031``: the inferred type
    of the result cell can never satisfy the claim's type — a numeric
    claim against a provably BOOLEAN or NULL result (``coerce_numeric``
    rejects both, so CorrectQuery must fail). These live outside the
    claim-agnostic memoized core because they depend on the claim.
    """
    if analysis.statement is None:
        return ()
    found: list[Diagnostic] = []
    if expect_single_cell and analysis.result_columns is not None \
            and len(analysis.result_columns) != 1:
        found.append(Diagnostic(
            "SQLA030", ERROR,
            f"result is not a single cell: the query returns "
            f"{len(analysis.result_columns)} columns",
        ))
    if claim_numeric and analysis.result_type in ("BOOLEAN", "NULL"):
        found.append(Diagnostic(
            "SQLA031", ERROR,
            f"result type {analysis.result_type} can never match a "
            f"numeric claim",
        ))
    return tuple(found)


# -- process-wide counters ----------------------------------------------------


class AnalyzerCounters:
    """Thread-safe counters surfaced through ``engine_stats()``."""

    _FIELDS = (
        "queries_analyzed",
        "rejected_pre_execution",
        "errors",
        "warnings",
        "memo_hits",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self._FIELDS, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._FIELDS, 0)


ANALYZER_COUNTERS = AnalyzerCounters()


def record_rejection() -> None:
    """Callers invoke this when an analysis verdict stops an execution."""
    ANALYZER_COUNTERS.bump("rejected_pre_execution")


# -- entry points -------------------------------------------------------------


def analyze_sql(sql: str, database: Database) -> QueryAnalysis:
    """Analyze SQL text against a database schema (memoized).

    The analysis lives on the text's handle in the database's shared
    engine (:meth:`~repro.sqlengine.executor.Engine.prepare`): it walks
    the statement that engine executes, and a database mutation drops
    it with the handle, so schema-dependent verdicts never go stale.
    """
    # Imported lazily: the executor imports this module at load time.
    from .executor import engine_for

    return engine_for(database).prepare(sql).analysis


def analyze_prepared(sql: str, statement: ast.SelectStatement | None,
                     error: str | None, database: Database) -> QueryAnalysis:
    """Analyze one prepared text: its statement, or its parse ``error``."""
    if statement is None:
        diagnostic = Diagnostic("SQLA090", ERROR, f"syntax error: {error}")
        analysis = QueryAnalysis(
            sql=sql, statement=None, diagnostics=(diagnostic,),
            result_columns=None, result_type="UNKNOWN", single_cell=None,
            cacheable=False, correlated_subqueries=0,
            uncorrelated_subqueries=0,
        )
    else:
        analysis = analyze_statement(sql, statement, database)
    ANALYZER_COUNTERS.bump("queries_analyzed")
    if analysis.errors:
        ANALYZER_COUNTERS.bump("errors", len(analysis.errors))
    if analysis.warnings:
        ANALYZER_COUNTERS.bump("warnings", len(analysis.warnings))
    return analysis


def reset_analyzer() -> None:
    """Zero the counters and drop memoized analyses (test/bench hook)."""
    from .executor import invalidate_prepared

    ANALYZER_COUNTERS.reset()
    invalidate_prepared()


def analyze_statement(
    sql: str, statement: ast.SelectStatement, database: Database
) -> QueryAnalysis:
    """Analyze an already-parsed statement (uncached)."""
    walker = _Walker(database)
    facts = walker.statement(statement, outer=(), certain=True)
    seen: set[tuple[str, str, str]] = set()
    unique: list[Diagnostic] = []
    for diagnostic in walker.diagnostics:
        key = (diagnostic.code, diagnostic.severity, diagnostic.message)
        if key not in seen:
            seen.add(key)
            unique.append(diagnostic)
    names = None if facts.out_names is None else tuple(facts.out_names)
    single_cell: bool | None = None
    if names is not None and len(names) != 1:
        single_cell = False
    elif names is not None and facts.single_row:
        single_cell = True
    cacheable = (
        facts.resolved
        and walker.correlated == 0
        and walker.unresolved_count == 0
    )
    return QueryAnalysis(
        sql=sql, statement=statement, diagnostics=tuple(unique),
        result_columns=names, result_type=facts.first_type,
        single_cell=single_cell, cacheable=cacheable,
        correlated_subqueries=walker.correlated,
        uncorrelated_subqueries=walker.uncorrelated,
    )


def subquery_is_cacheable(
    statement: ast.SelectStatement, database: Database
) -> bool:
    """True when a subquery's result is a pure function of the database.

    The engine consults this before letting a subquery use the text-keyed
    result cache: a statement qualifies only when every column reference
    (at any nesting depth) resolves unambiguously *within the statement's
    own scope chain* against known tables. Anything that escapes outward
    (correlation), fails to resolve, or touches an unknown table is
    reported non-cacheable, which preserves the bypass convention the
    differential tests pin down.
    """
    walker = _Walker(database)
    facts = walker.statement(statement, outer=(), certain=False)
    return (
        facts.resolved
        and walker.unresolved_count == 0
        and walker.correlated == 0
    )


# -- static scopes ------------------------------------------------------------


@dataclass(frozen=True)
class _Col:
    alias: str | None      # lower-cased table alias within the relation
    name: str              # lower-cased column name
    display: str           # original-cased name (output headers)
    type: str              # INTEGER / REAL / TEXT / UNKNOWN
    nullable: bool
    table: Table | None    # base table, for domain checks
    column: str | None     # original column name in the base table
    scan: int              # index of the scan that produced this column


class _StScope:
    """Static analogue of the evaluator's :class:`Scope` (metadata only)."""

    def __init__(self, cols: list[_Col], complete: bool) -> None:
        self.cols = cols
        self.complete = complete

    def matches(self, name: str, table: str | None) -> list[_Col]:
        name_lower = name.lower()
        table_lower = table.lower() if table else None
        return [
            col for col in self.cols
            if col.name == name_lower
            and (table_lower is None or col.alias == table_lower)
        ]


@dataclass(frozen=True)
class _Inferred:
    """Statically inferred facts about one expression's value."""

    type: str = "UNKNOWN"
    nullable: bool = True
    value: object = None        # literal constant, when statically known
    has_value: bool = False


_BOOL = _Inferred("BOOLEAN")
_UNKNOWN = _Inferred("UNKNOWN")


@dataclass(frozen=True)
class _Env:
    """Evaluation-context facts threaded through the expression walk."""

    scopes: tuple[_StScope, ...]   # innermost first; outer scopes follow
    certain: bool                  # guaranteed evaluated if the query runs
    clause: str                    # for messages: WHERE, select list, ...
    aggregates_ok: bool = False
    in_aggregate: bool = False
    group_certain: bool = False    # the current group provably has rows

    def uncertain(self) -> "_Env":
        if not self.certain:
            return self
        return _Env(self.scopes, False, self.clause, self.aggregates_ok,
                    self.in_aggregate, self.group_certain)


@dataclass
class _StmtFacts:
    """What a statement walk learned, for enclosing expressions."""

    out_names: list[str] | None
    first_type: str
    single_row: bool
    resolved: bool


class _Walker:
    """Walks statements and expressions, accumulating diagnostics."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.diagnostics: list[Diagnostic] = []
        self.correlated = 0
        self.uncorrelated = 0
        #: Bumped whenever a reference failed to resolve (or resolution
        #: was suppressed by an unknown table) — poisons cacheability.
        self.unresolved_count = 0
        #: ids of the scope objects each successful resolution landed in,
        #: in walk order — the correlation detector for subqueries.
        self.resolution_log: list[int] = []

    def emit(self, code: str, message: str, *, error: bool) -> None:
        severity = ERROR if error else WARNING
        self.diagnostics.append(Diagnostic(code, severity, message))

    # -- statements -------------------------------------------------------

    def statement(
        self,
        stmt: ast.SelectStatement,
        outer: tuple[_StScope, ...],
        certain: bool,
    ) -> _StmtFacts:
        cols, complete, relation_nonempty = \
            self._analyze_from(stmt, outer, certain)
        own = _StScope(cols, complete)
        chain = (own,) + outer
        if not complete:
            self.unresolved_count += 1
            # The FROM clause raises before anything below evaluates.
            relation_nonempty = False

        filtered_nonempty = relation_nonempty and stmt.where is None
        if stmt.where is not None:
            self._expr(stmt.where, _Env(
                scopes=chain, certain=certain and relation_nonempty,
                clause="WHERE",
            ))
            self._domain_lints(stmt, own, complete)

        if ast.is_aggregate_query(stmt):
            facts = self._grouped(
                stmt, chain, certain, complete, filtered_nonempty
            )
        else:
            facts = self._plain(
                stmt, own, chain, certain, complete, filtered_nonempty
            )
        if stmt.limit == 0:
            facts.single_row = False
        return facts

    def _analyze_from(
        self,
        stmt: ast.SelectStatement,
        outer: tuple[_StScope, ...],
        certain: bool,
    ) -> tuple[list[_Col], bool, bool]:
        if stmt.from_table is None:
            # No FROM: the executor supplies one empty-tuple row, so the
            # select list is always evaluated exactly once.
            return [], True, True
        refs: list[tuple[str, ast.TableRef, ast.Join | None]] = [
            ("FROM", stmt.from_table, None)
        ]
        for join in stmt.joins:
            refs.append((join.kind, join.table, join))
        cols: list[_Col] = []
        complete = True
        scan_nonempty: list[bool] = []
        for index, (kind, ref, _join) in enumerate(refs):
            alias = ref.effective_alias().lower()
            if not self.database.has_table(ref.name):
                self.emit(
                    "SQLA002", f"unknown table {ref.name!r}", error=certain,
                )
                complete = False
                scan_nonempty.append(False)
                continue
            table = self.database.table(ref.name)
            padded = kind == "LEFT"
            type_names = {
                column.name: column.type_name for column in table.columns()
            }
            for name in table.column_names:
                cols.append(_Col(
                    alias=alias, name=name.lower(), display=name,
                    type=type_names.get(name, "UNKNOWN"),
                    nullable=padded or table.column_has_nulls(name),
                    table=table, column=name, scan=index,
                ))
            scan_nonempty.append(len(table.rows) > 0)
        # Non-emptiness proof, folded left to right over the join chain.
        prefix_nonempty = complete and bool(scan_nonempty) and scan_nonempty[0]
        prefix_cols: list[_Col] = [c for c in cols if c.scan == 0]
        for index, (kind, _ref, join) in enumerate(refs):
            if index == 0 or join is None:
                continue
            right_cols = [c for c in cols if c.scan == index]
            if join.condition is not None:
                # The ON condition sees the columns accumulated so far
                # plus the joined table's, once per candidate pair — it
                # is guaranteed to run only when both sides have rows.
                on_scope = _StScope(prefix_cols + right_cols, complete)
                on_certain = (
                    certain and complete and prefix_nonempty
                    and scan_nonempty[index]
                )
                self._expr(join.condition, _Env(
                    scopes=(on_scope,) + outer, certain=on_certain,
                    clause="JOIN ON",
                ))
            if kind == "LEFT":
                pass  # left rows survive (padded), proof unchanged
            elif kind == "CROSS" or join.condition is None:
                prefix_nonempty = prefix_nonempty and scan_nonempty[index]
            else:
                prefix_nonempty = False  # INNER matches are data-dependent
            prefix_cols.extend(right_cols)
        self._cartesian_lints(stmt, refs, cols, complete)
        return cols, complete, complete and prefix_nonempty

    def _plain(
        self,
        stmt: ast.SelectStatement,
        own: _StScope,
        chain: tuple[_StScope, ...],
        certain: bool,
        complete: bool,
        filtered_nonempty: bool,
    ) -> _StmtFacts:
        items_certain = certain and filtered_nonempty
        out_names: list[str] | None = [] if complete else None
        out_types: list[_Inferred] = []
        expanded_count = 0
        for item in stmt.items:
            if isinstance(item.expression, ast.Star):
                qualifier = item.expression.table
                lower = qualifier.lower() if qualifier else None
                selected = [
                    col for col in own.cols
                    if lower is None or col.alias == lower
                ]
                if complete and lower is not None and not selected:
                    # _expand_select_items raises eagerly, before any row loop.
                    self.emit(
                        "SQLA002", f"unknown table in {qualifier}.*",
                        error=certain,
                    )
                    out_names = None
                    continue
                if out_names is not None:
                    out_names.extend(col.display for col in selected)
                out_types.extend(
                    _Inferred(col.type, col.nullable) for col in selected
                )
                expanded_count += len(selected)
            else:
                inferred = self._expr(item.expression, _Env(
                    scopes=chain, certain=items_certain,
                    clause="the select list",
                ))
                if out_names is not None:
                    out_names.append(item.output_name())
                out_types.append(inferred)
                expanded_count += 1
        self._order_by(
            stmt, stmt.items, expanded_count if complete else None,
            chain, items_certain, certain, aggregates_ok=False,
            group_certain=False,
        )
        first = out_types[0] if out_types else _UNKNOWN
        single_row = (
            stmt.from_table is None
            and not stmt.joins
            and stmt.where is None
            and (stmt.limit is None or stmt.limit >= 1)
            and not stmt.offset
        )
        return _StmtFacts(
            out_names=out_names, first_type=first.type,
            single_row=single_row, resolved=complete,
        )

    def _grouped(
        self,
        stmt: ast.SelectStatement,
        chain: tuple[_StScope, ...],
        certain: bool,
        complete: bool,
        filtered_nonempty: bool,
    ) -> _StmtFacts:
        star_items = any(
            isinstance(item.expression, ast.Star) for item in stmt.items
        )
        if star_items:
            # _execute_grouped raises eagerly, before grouping starts.
            self.emit(
                "SQLA022",
                "'*' cannot appear in an aggregate select list",
                error=certain,
            )
        # GROUP BY keys are evaluated per pre-group row, without a group
        # context, so aggregates there raise (once per evaluated row).
        gb_certain = certain and filtered_nonempty
        for expression in stmt.group_by:
            self._expr(expression, _Env(
                scopes=chain, certain=gb_certain, clause="GROUP BY",
            ))
        if stmt.group_by:
            groups_exist = filtered_nonempty
            group_certain = True       # every GROUP BY bucket has rows
        else:
            groups_exist = True        # global aggregate: always one group
            group_certain = filtered_nonempty
        if stmt.having is not None:
            self._expr(stmt.having, _Env(
                scopes=chain, certain=certain and groups_exist,
                clause="HAVING", aggregates_ok=True,
                group_certain=group_certain,
            ))
        # HAVING runs before the select list and can filter out every
        # group, so items are guaranteed-evaluated only without HAVING.
        items_certain = certain and groups_exist and stmt.having is None
        out_names: list[str] | None = None if star_items else []
        out_types: list[_Inferred] = []
        for item in stmt.items:
            if isinstance(item.expression, ast.Star):
                continue
            inferred = self._expr(item.expression, _Env(
                scopes=chain, certain=items_certain,
                clause="the select list", aggregates_ok=True,
                group_certain=group_certain,
            ))
            if out_names is not None:
                out_names.append(item.output_name())
            out_types.append(inferred)
        self._order_by(
            stmt, stmt.items, len(stmt.items), chain, items_certain,
            certain, aggregates_ok=True, group_certain=group_certain,
        )
        self._group_coverage_lints(stmt, chain)
        first = out_types[0] if out_types else _UNKNOWN
        single_row = (
            not stmt.group_by
            and stmt.having is None
            and (stmt.limit is None or stmt.limit >= 1)
            and not stmt.offset
        )
        return _StmtFacts(
            out_names=out_names, first_type=first.type,
            single_row=single_row, resolved=complete,
        )

    def _order_by(
        self,
        stmt: ast.SelectStatement,
        items: tuple[ast.SelectItem, ...],
        item_count: int | None,
        chain: tuple[_StScope, ...],
        row_certain: bool,
        stmt_certain: bool,
        *,
        aggregates_ok: bool,
        group_certain: bool,
    ) -> None:
        """Mirror ``_resolve_order_items``: ordinals and aliases resolve
        eagerly, before any row or group is evaluated."""
        aliases = {item.alias.lower() for item in items if item.alias}
        for order in stmt.order_by:
            expression = order.expression
            if isinstance(expression, ast.Literal) \
                    and isinstance(expression.value, int) \
                    and not isinstance(expression.value, bool):
                position = expression.value - 1
                if item_count is not None \
                        and not 0 <= position < item_count:
                    self.emit(
                        "SQLA013",
                        f"ORDER BY position {expression.value} "
                        f"out of range",
                        error=stmt_certain,
                    )
                continue  # the referenced item is walked as a select item
            if isinstance(expression, ast.ColumnRef) \
                    and expression.table is None \
                    and expression.name.lower() in aliases:
                continue  # alias: the aliased expression is a select item
            self._expr(expression, _Env(
                scopes=chain, certain=row_certain, clause="ORDER BY",
                aggregates_ok=aggregates_ok, group_certain=group_certain,
            ))

    # -- statement-level lints -------------------------------------------

    def _cartesian_lints(
        self,
        stmt: ast.SelectStatement,
        refs: list[tuple[str, ast.TableRef, ast.Join | None]],
        cols: list[_Col],
        complete: bool,
    ) -> None:
        """SQLA040: flag conditionless joins with no WHERE equi-join."""
        if not complete or len(refs) < 2:
            return
        conjuncts = split_conjuncts(stmt.where)
        scope = _StScope(cols, complete)
        for index, (_kind, ref, join) in enumerate(refs):
            if join is None or join.condition is not None:
                continue
            if not self._has_equi_condition(conjuncts, scope, index):
                self.emit(
                    "SQLA040",
                    f"cartesian join with table "
                    f"{ref.effective_alias()!r} has no equi-join "
                    f"condition",
                    error=False,
                )

    def _has_equi_condition(
        self,
        conjuncts: list[ast.Expression],
        scope: _StScope,
        scan: int,
    ) -> bool:
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op == "="):
                continue
            sides = (conjunct.left, conjunct.right)
            if not all(isinstance(side, ast.ColumnRef) for side in sides):
                continue
            resolved = []
            for side in sides:
                matches = scope.matches(side.name, side.table)
                if len(matches) != 1:
                    break
                resolved.append(matches[0])
            if len(resolved) != 2:
                continue
            scans = {col.scan for col in resolved}
            if scan in scans and len(scans) == 2:
                return True
        return False

    def _domain_lints(
        self, stmt: ast.SelectStatement, own: _StScope, complete: bool
    ) -> None:
        """SQLA041: ``col = literal`` where the literal is not in the data.

        This is the static face of the paper's Figure 4 trap: the agent
        writes ``country = 'United States'`` while the table stores
        ``'USA'``. The query is valid and runs — it just selects nothing
        — so this can only ever be a warning.
        """
        if not complete:
            return
        for conjunct in split_conjuncts(stmt.where):
            if not (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op == "="):
                continue
            column_side, literal_side = conjunct.left, conjunct.right
            if isinstance(column_side, ast.Literal):
                column_side, literal_side = literal_side, column_side
            if not (isinstance(column_side, ast.ColumnRef)
                    and isinstance(literal_side, ast.Literal)):
                continue
            value = literal_side.value
            if value is None:
                continue
            matches = own.matches(column_side.name, column_side.table)
            if len(matches) != 1:
                continue
            col = matches[0]
            if col.table is None or col.column is None \
                    or not col.table.rows:
                continue
            rows = col.table.equality_rows(col.column, value)
            if rows == []:
                self.emit(
                    "SQLA041",
                    f"literal {value!r} never occurs in column "
                    f"{col.display!r} of table {col.table.name!r}",
                    error=False,
                )

    def _group_coverage_lints(
        self, stmt: ast.SelectStatement, chain: tuple[_StScope, ...]
    ) -> None:
        """SQLA021: bare columns the grouping does not pin down.

        The naive engine evaluates them against an arbitrary
        representative row of each group, so this is always a warning —
        a determinism smell, not a guaranteed failure.
        """
        own = chain[0]
        grouped_keys: set[tuple[str | None, str]] = set()
        for expression in stmt.group_by:
            if isinstance(expression, ast.ColumnRef):
                matches = own.matches(expression.name, expression.table)
                if len(matches) == 1:
                    grouped_keys.add((matches[0].alias, matches[0].name))
        candidates: list[tuple[str, ast.Expression]] = [
            ("the select list", item.expression) for item in stmt.items
        ]
        if stmt.having is not None:
            candidates.append(("HAVING", stmt.having))
        candidates.extend(
            ("ORDER BY", order.expression) for order in stmt.order_by
        )
        aliases = {item.alias.lower() for item in stmt.items if item.alias}
        for clause, root in candidates:
            for node in _bare_columns(root):
                if clause == "ORDER BY" and node.table is None \
                        and node.name.lower() in aliases:
                    continue
                matches = own.matches(node.name, node.table)
                if len(matches) != 1:
                    continue
                col = matches[0]
                if (col.alias, col.name) in grouped_keys:
                    continue
                label = "GROUP BY" if stmt.group_by else "an aggregate"
                self.emit(
                    "SQLA021",
                    f"bare column {node.name!r} in {clause} is not "
                    f"covered by {label} (an arbitrary group row "
                    f"decides its value)",
                    error=False,
                )

    # -- expressions ------------------------------------------------------

    def _expr(self, node: ast.Expression, env: _Env) -> _Inferred:
        if isinstance(node, ast.Literal):
            return _Inferred(
                _literal_type(node.value), node.value is None,
                node.value, True,
            )
        if isinstance(node, ast.ColumnRef):
            return self._column(node, env)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node, env)
        if isinstance(node, ast.BinaryOp):
            return self._binary(node, env)
        if isinstance(node, ast.FunctionCall):
            return self._function(node, env)
        if isinstance(node, ast.AggregateCall):
            return self._aggregate(node, env)
        if isinstance(node, ast.InExpr):
            return self._in(node, env)
        if isinstance(node, ast.BetweenExpr):
            for part in (node.operand, node.low, node.high):
                self._expr(part, env)
            return _BOOL
        if isinstance(node, ast.LikeExpr):
            self._expr(node.operand, env)
            self._expr(node.pattern, env)
            return _BOOL
        if isinstance(node, ast.IsNullExpr):
            self._expr(node.operand, env)
            return _Inferred("BOOLEAN", nullable=False)
        if isinstance(node, ast.CaseExpr):
            return self._case(node, env)
        if isinstance(node, ast.CastExpr):
            return self._cast(node, env)
        if isinstance(node, ast.ScalarSubquery):
            facts = self._substatement(node.query, env, env.certain)
            return _Inferred(facts.first_type, True)
        if isinstance(node, ast.ExistsExpr):
            self._substatement(node.query, env, env.certain)
            return _Inferred("BOOLEAN", nullable=False)
        return _UNKNOWN

    def _substatement(
        self, query: ast.SelectStatement, env: _Env, certain: bool
    ) -> _StmtFacts:
        """Walk a subquery, classifying it correlated or uncorrelated.

        A subquery is correlated iff any successful column resolution
        inside it (at any nesting depth) landed in one of the *enclosing*
        scopes — exactly the scope objects alive in ``env.scopes`` now.
        """
        outer_ids = {id(scope) for scope in env.scopes}  # lint: allow-id-key
        mark = len(self.resolution_log)
        unresolved_before = self.unresolved_count
        facts = self.statement(query, env.scopes, certain)
        escaped = any(
            scope_id in outer_ids
            for scope_id in self.resolution_log[mark:]
        )
        if escaped:
            self.correlated += 1
        elif facts.resolved and self.unresolved_count == unresolved_before:
            self.uncorrelated += 1
        return facts

    def _column(self, node: ast.ColumnRef, env: _Env) -> _Inferred:
        qualifier = f"{node.table}." if node.table else ""
        for scope in env.scopes:
            matches = scope.matches(node.name, node.table)
            if len(matches) > 1:
                # Scope.resolve raises before looking further out.
                self.emit(
                    "SQLA003",
                    f"ambiguous column reference {node.name!r}",
                    error=env.certain,
                )
                self.unresolved_count += 1
                return _UNKNOWN
            if len(matches) == 1:
                col = matches[0]
                self.resolution_log.append(id(scope))
                return _Inferred(col.type, col.nullable)
            if not scope.complete:
                # An unknown table hides this scope's true columns; the
                # query errors on the FROM clause anyway, so stay quiet.
                self.unresolved_count += 1
                return _UNKNOWN
        self.emit(
            "SQLA001",
            f"unknown column {qualifier}{node.name!r}",
            error=env.certain,
        )
        self.unresolved_count += 1
        return _UNKNOWN

    def _unary(self, node: ast.UnaryOp, env: _Env) -> _Inferred:
        operand = self._expr(node.operand, env)
        if node.op.upper() == "NOT":
            return _Inferred("BOOLEAN", operand.nullable)
        if node.op == "-":
            if _provably_non_numeric(operand):
                self.emit(
                    "SQLA010",
                    f"cannot negate a provably non-numeric value "
                    f"in {env.clause}",
                    error=env.certain,
                )
            return _Inferred(
                operand.type if operand.type in ("INTEGER", "REAL")
                else "NUMERIC",
                operand.nullable,
            )
        return _UNKNOWN

    def _binary(self, node: ast.BinaryOp, env: _Env) -> _Inferred:
        op = node.op.upper()
        if op in ("AND", "OR"):
            self._expr(node.left, env)
            # The right side is skipped when the left decides the result.
            self._expr(node.right, env.uncertain())
            return _BOOL
        left = self._expr(node.left, env)
        right = self._expr(node.right, env)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            self._comparison_lint(left, right, env)
            return _Inferred("BOOLEAN", left.nullable or right.nullable)
        if op == "||":
            return _Inferred("TEXT", left.nullable or right.nullable)
        # Arithmetic. The evaluator short-circuits NULL operands to NULL
        # *before* the numeric check, so a raise is guaranteed only when
        # both operands are provably non-NULL and one provably fails
        # numeric coercion.
        both_non_null = not left.nullable and not right.nullable
        for side in (left, right):
            if _provably_non_numeric(side):
                self.emit(
                    "SQLA010",
                    f"arithmetic {op} on a provably non-numeric value "
                    f"in {env.clause}",
                    error=env.certain and both_non_null,
                )
        if op in ("/", "%") and right.has_value and right.value is not None \
                and coerce_numeric(right.value) == 0:
            left_coerces = left.has_value and left.value is not None \
                and coerce_numeric(left.value) is not None
            self.emit(
                "SQLA010",
                f"division by zero in {env.clause}",
                error=env.certain and both_non_null and left_coerces,
            )
        nullable = left.nullable or right.nullable
        if op == "/":
            return _Inferred("REAL", nullable)
        if left.type == "INTEGER" and right.type == "INTEGER":
            return _Inferred("INTEGER", nullable)
        if "REAL" in (left.type, right.type):
            return _Inferred("REAL", nullable)
        return _Inferred("NUMERIC", nullable)

    def _comparison_lint(
        self, left: _Inferred, right: _Inferred, env: _Env
    ) -> None:
        """SQLA010 (warning): a numeric value against a non-numeric string.

        ``compare_values`` never raises — it falls back to text ordering —
        so this is legal but almost always a mistranslation; flag it
        without ever blocking execution.
        """
        for numeric_side, other in ((left, right), (right, left)):
            if numeric_side.type not in _NUMERIC_TYPES:
                continue
            if (
                other.has_value
                and isinstance(other.value, str)
                and coerce_numeric(other.value) is None
            ):
                self.emit(
                    "SQLA010",
                    f"comparison mixes a numeric value with the "
                    f"non-numeric string {other.value!r} in {env.clause}",
                    error=False,
                )
                return

    def _function(self, node: ast.FunctionCall, env: _Env) -> _Inferred:
        inferred = [self._expr(arg, env) for arg in node.args]
        name = node.name.upper()
        if name not in SCALAR_FUNCTION_NAMES:
            self.emit(
                "SQLA011", f"unknown function {name}", error=env.certain,
            )
            return _UNKNOWN
        minimum, maximum = _FUNCTION_ARITY[name]
        count = len(node.args)
        if count < minimum or (maximum is not None and count > maximum):
            bound = "or more" if maximum is None else f"to {maximum}"
            self.emit(
                "SQLA011",
                f"{name} expects {minimum} {bound} arguments, got {count}",
                error=env.certain,
            )
            return _UNKNOWN
        if name in ("ABS", "ROUND") and inferred \
                and _provably_non_numeric(inferred[0]):
            self.emit(
                "SQLA011",
                f"{name} requires a numeric argument",
                error=env.certain,
            )
        if name in ("SUBSTR", "SUBSTRING") and len(inferred) >= 2 \
                and not inferred[0].nullable:
            for argument in inferred[1:]:
                if argument.has_value and argument.value is not None \
                        and coerce_numeric(argument.value) is None:
                    self.emit(
                        "SQLA011",
                        f"{name} position arguments must be numbers",
                        error=env.certain,
                    )
        return _FUNCTION_RESULTS.get(name, _UNKNOWN)

    def _aggregate(self, node: ast.AggregateCall, env: _Env) -> _Inferred:
        name = node.name.upper()
        if not env.aggregates_ok or env.in_aggregate:
            # The evaluator raises whenever the node is reached without a
            # group context (WHERE, GROUP BY, JOIN ON, nested arguments,
            # or a non-aggregate query's ORDER BY).
            self.emit(
                "SQLA020",
                f"aggregate {name} is not allowed in {env.clause}",
                error=env.certain,
            )
        if isinstance(node.argument, ast.Star):
            if name != "COUNT":
                # Raised as soon as the node is evaluated with a group,
                # before any group rows are consulted.
                self.emit(
                    "SQLA011", f"{name}(*) is not valid",
                    error=env.certain and env.aggregates_ok
                    and not env.in_aggregate,
                )
            return _Inferred("INTEGER", nullable=False)
        argument_env = _Env(
            scopes=env.scopes,
            certain=env.certain and env.group_certain,
            clause=f"the argument of {name}",
            aggregates_ok=False,
            in_aggregate=True,
            group_certain=env.group_certain,
        )
        argument = self._expr(node.argument, argument_env)
        if name in ("SUM", "AVG") and _provably_non_numeric(argument):
            self.emit(
                "SQLA010",
                f"{name} over a provably non-numeric value",
                error=argument_env.certain and env.aggregates_ok
                and not env.in_aggregate,
            )
        if name == "COUNT":
            return _Inferred("INTEGER", nullable=False)
        if name == "AVG":
            return _Inferred("REAL")
        if name == "SUM":
            if argument.type in ("INTEGER", "REAL"):
                return _Inferred(argument.type)
            return _Inferred("NUMERIC")
        return _Inferred(argument.type)  # MIN / MAX

    def _in(self, node: ast.InExpr, env: _Env) -> _Inferred:
        operand = self._expr(node.operand, env)
        # A NULL operand short-circuits before the items or subquery are
        # touched, so they are guaranteed-evaluated only when the operand
        # provably is not NULL.
        inner_env = env if not operand.nullable else env.uncertain()
        if node.subquery is not None:
            self._substatement(node.subquery, env, inner_env.certain)
        for item in node.items or ():
            self._expr(item, inner_env)
        return _BOOL

    def _case(self, node: ast.CaseExpr, env: _Env) -> _Inferred:
        lazy = env.uncertain()
        result_types: list[_Inferred] = []
        for position, (condition, result) in enumerate(node.branches):
            # Only the first WHEN condition is unconditionally evaluated.
            self._expr(condition, env if position == 0 else lazy)
            result_types.append(self._expr(result, lazy))
        if node.default is not None:
            result_types.append(self._expr(node.default, lazy))
        return _Inferred(_lub(result_types))

    def _cast(self, node: ast.CastExpr, env: _Env) -> _Inferred:
        operand = self._expr(node.operand, env)
        upper = node.type_name.upper()
        if upper not in CASTABLE_TYPES:
            # cast_value raises on an unknown target even for NULL input.
            self.emit(
                "SQLA012",
                f"unknown cast target type: {node.type_name}",
                error=env.certain,
            )
            return _UNKNOWN
        return _Inferred(
            _CAST_RESULT_TYPES.get(upper, "UNKNOWN"), operand.nullable
        )


# -- helpers ------------------------------------------------------------------


_FUNCTION_RESULTS = {
    "ABS": _Inferred("NUMERIC"),
    "ROUND": _Inferred("NUMERIC"),
    "LOWER": _Inferred("TEXT"),
    "UPPER": _Inferred("TEXT"),
    "LENGTH": _Inferred("INTEGER"),
    "LEN": _Inferred("INTEGER"),
    "COALESCE": _UNKNOWN,
    "IFNULL": _UNKNOWN,
    "NULLIF": _UNKNOWN,
    "SUBSTR": _Inferred("TEXT"),
    "SUBSTRING": _Inferred("TEXT"),
    "TRIM": _Inferred("TEXT"),
}


def _literal_type(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "BOOLEAN"
    if isinstance(value, int):
        return "INTEGER"
    if isinstance(value, float):
        return "REAL"
    return "TEXT"


def _provably_non_numeric(inferred: _Inferred) -> bool:
    """True when ``coerce_numeric`` is guaranteed to reject a non-NULL
    value of this expression. TEXT never qualifies (numeric strings
    coerce); BOOLEAN qualifies only when provably non-NULL. Implies the
    value is provably non-NULL."""
    if inferred.has_value:
        return (
            inferred.value is not None
            and coerce_numeric(inferred.value) is None
        )
    return inferred.type == "BOOLEAN" and not inferred.nullable


def _lub(types: list[_Inferred]) -> str:
    names = {t.type for t in types if t.type != "NULL"}
    if not names:
        return "NULL"
    if len(names) == 1:
        return next(iter(names))
    if names <= _NUMERIC_TYPES:
        return "NUMERIC"
    return "UNKNOWN"


def _bare_columns(root: ast.Expression):
    """Yield ColumnRef nodes not nested inside an aggregate argument."""
    stack: list[object] = [root]
    while stack:
        node = stack.pop()
        if node is None or isinstance(node, ast.AggregateCall):
            continue
        if isinstance(node, ast.ColumnRef):
            yield node
        elif isinstance(node, ast.UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, ast.BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.FunctionCall):
            stack.extend(node.args)
        elif isinstance(node, ast.InExpr):
            stack.append(node.operand)
            stack.extend(node.items or ())
        elif isinstance(node, ast.BetweenExpr):
            stack.extend((node.operand, node.low, node.high))
        elif isinstance(node, ast.LikeExpr):
            stack.extend((node.operand, node.pattern))
        elif isinstance(node, ast.IsNullExpr):
            stack.append(node.operand)
        elif isinstance(node, ast.CaseExpr):
            for condition, result in node.branches:
                stack.extend((condition, result))
            if node.default is not None:
                stack.append(node.default)
        elif isinstance(node, ast.CastExpr):
            stack.append(node.operand)


# -- conjuncts ----------------------------------------------------------------


def split_conjuncts(node: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a WHERE/ON tree into its top-level AND conjuncts."""
    if node is None:
        return []
    if isinstance(node, ast.BinaryOp) and node.op == "AND":
        return split_conjuncts(node.left) + split_conjuncts(node.right)
    return [node]
