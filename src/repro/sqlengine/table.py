"""In-memory relational tables and databases.

A :class:`Table` is a named set of columns over a fixed row count; a
:class:`Database` is a case-insensitive collection of tables. These are the
storage substrate under the SQL executor and are also used directly by the
dataset generators and by the agent's ``unique_column_values`` tool.

Storage is *columnar*: a table holds one value array per column, which is
what the vectorized executor scans, filters, and aggregates over without
ever materializing row tuples. The classic ``rows`` tuple view survives as
a memoized compatibility property — the interpreter (and with it the
naive oracle engine), prompt rendering, and every pre-columnar caller
keep working unchanged. Whichever representation a table was *constructed*
from is stored as-is; the other is pivoted lazily on first use, so a
table that only ever feeds the vectorized path never pays for row tuples
and a table that only feeds prompts never pays for column arrays.

Column arrays are an implementation detail of :mod:`repro.sqlengine`:
outside the engine (and its tests) only the rows-view API may be used —
``tools/check_invariants.py`` enforces this.

Tables are immutable once constructed, which lets them memoize derived
views that used to be recomputed on every prompt render or tool call:
inferred column types, first-seen-order distinct values, per-column
statistics, and lazy equality indexes used by the optimized executor for
``col = literal`` scans. Databases are mutable (``add`` replaces tables)
and therefore carry a ``fingerprint()`` — a (creation token, mutation
version) pair — that the query-result cache keys on so stale results can
never be served.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterable, Sequence
from copy import deepcopy
from dataclasses import dataclass, field

from .errors import PlanError
from .values import SqlValue, equality_key, infer_column_type


@dataclass(frozen=True)
class Column:
    """A column with a name and an inferred display type."""

    name: str
    type_name: str = "TEXT"


#: Sentinel stored in the equality-index cache when a column contains NaN
#: (whose SQL comparison semantics cannot be represented by hashing).
_UNINDEXABLE = object()


class Table:
    """An immutable, ordered collection of rows with named columns."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[SqlValue]],
    ) -> None:
        self.name = name
        self.column_names = [str(c) for c in columns]
        lowered = [c.lower() for c in self.column_names]
        if len(set(lowered)) != len(lowered):
            raise PlanError(f"duplicate column names in table {name!r}")
        width = len(self.column_names)
        # Fast path: a list whose elements are already tuples is adopted
        # without the tuple-by-tuple copy the old constructor always paid
        # (dataset generators build exactly this shape).
        if isinstance(rows, list) and all(type(r) is tuple for r in rows):
            row_list: list[tuple[SqlValue, ...]] = rows
        else:
            row_list = [tuple(row) for row in rows]
        for row_tuple in row_list:
            if len(row_tuple) != width:
                raise PlanError(
                    f"row width {len(row_tuple)} does not match "
                    f"{width} columns in table {name!r}"
                )
        self._rows: list[tuple[SqlValue, ...]] | None = row_list
        self._arrays: list[list[SqlValue]] | None = None
        self._row_count = len(row_list)
        self._finish_init()

    def _finish_init(self) -> None:
        self._index = {
            c.lower(): i for i, c in enumerate(self.column_names)
        }
        self._columns_cache: tuple[Column, ...] | None = None
        self._unique_cache: dict[str, tuple[SqlValue, ...]] = {}
        self._equality_indexes: dict[str, object] = {}
        self._null_cache: dict[str, bool] = {}
        self._content_fingerprint: str | None = None
        self._stats_cache: object | None = None

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Sequence[str],
        arrays: Sequence[Sequence[SqlValue]],
    ) -> "Table":
        """Build a table directly from column value arrays.

        Skips the row pivot entirely: generators that naturally produce
        one list per column (and the vectorized engine, whose
        intermediate results already live column-wise) store their arrays
        as-is. The ``rows`` tuple view is pivoted lazily if anything ever
        asks for it.
        """
        table = cls.__new__(cls)
        table.name = name
        table.column_names = [str(c) for c in columns]
        lowered = [c.lower() for c in table.column_names]
        if len(set(lowered)) != len(lowered):
            raise PlanError(f"duplicate column names in table {name!r}")
        column_arrays = [list(a) for a in arrays]
        if len(column_arrays) != len(table.column_names):
            raise PlanError(
                f"{len(column_arrays)} arrays do not match "
                f"{len(table.column_names)} columns in table {name!r}"
            )
        lengths = {len(a) for a in column_arrays}
        if len(lengths) > 1:
            raise PlanError(
                f"column arrays of unequal length in table {name!r}"
            )
        table._rows = None
        table._arrays = column_arrays
        table._row_count = lengths.pop() if lengths else 0
        table._finish_init()
        return table

    @property
    def rows(self) -> list[tuple[SqlValue, ...]]:
        """Row tuples, in order (memoized compatibility view).

        Tables built from rows keep their original list; tables built
        from columns pivot once, on first access.
        """
        if self._rows is None:
            assert self._arrays is not None
            self._rows = (
                list(zip(*self._arrays)) if self._row_count else []
            )
        return self._rows

    def column_array(self, position: int) -> list[SqlValue]:
        """One column's values as a flat array (internal to sqlengine).

        This is the vectorized executor's scan primitive: batch operators
        iterate these arrays directly instead of indexing row tuples.
        Callers must treat the returned list as read-only — it is the
        table's storage, not a copy. Code outside ``repro/sqlengine``
        must use the rows-view API instead (enforced by
        ``tools/check_invariants.py``).
        """
        if self._arrays is None:
            assert self._rows is not None
            self._arrays = [
                list(column) for column in zip(*self._rows)
            ] if self._rows else [[] for _ in self.column_names]
        return self._arrays[position]

    def __len__(self) -> int:
        return self._row_count

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, {len(self.column_names)} cols, "
            f"{self._row_count} rows)"
        )

    def has_column(self, name: str) -> bool:
        """Return True when a column with this (case-insensitive) name exists."""
        return name.lower() in self._index

    def column_position(self, name: str) -> int:
        """Return the positional index of a column, raising on misses."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise PlanError(
                f"no column {name!r} in table {self.name!r} "
                f"(columns: {', '.join(self.column_names)})"
            ) from None

    def column_values(self, name: str) -> list[SqlValue]:
        """Return all values of one column, in row order (a fresh list)."""
        return list(self.column_array(self.column_position(name)))

    def unique_column_values(self, name: str) -> list[SqlValue]:
        """Return distinct values of one column, preserving first-seen order.

        This backs the agent's ``unique_column_values`` tool (Section 5.3),
        which lets the LLM discover the exact constants stored in the data
        (e.g. ``'USA'`` rather than ``'United States'``). Memoized: the tool
        is called repeatedly for the same column across agent retries.
        """
        key = name.lower()
        cached = self._unique_cache.get(key)
        if cached is None:
            seen: set[SqlValue] = set()
            unique: list[SqlValue] = []
            for value in self.column_array(self.column_position(name)):
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            cached = tuple(unique)
            self._unique_cache[key] = cached
        return list(cached)

    def column_has_nulls(self, name: str) -> bool:
        """True when any stored value of the column is NULL (memoized).

        The static analyzer uses this nullability fact to decide whether
        an expression over the column is provably non-NULL — the
        evaluator short-circuits NULLs before most type checks, so only
        provably non-NULL operands can make a type error certain.
        """
        key = name.lower()
        cached = self._null_cache.get(key)
        if cached is None:
            array = self.column_array(self.column_position(name))
            cached = any(value is None for value in array)
            self._null_cache[key] = cached
        return cached

    def columns(self) -> list[Column]:
        """Return columns with inferred display types (memoized)."""
        if self._columns_cache is None:
            self._columns_cache = tuple(
                Column(name, infer_column_type(self.column_values(name)))
                for name in self.column_names
            )
        return list(self._columns_cache)

    def equality_rows(self, name: str, value: SqlValue) -> list[int] | None:
        """Row indices (ascending) whose ``name`` column SQL-equals ``value``.

        Backed by a lazily built per-column hash index whose keys follow
        :func:`equality_key`, i.e. exactly the equality classes of
        ``compare_values``. Returns None when the index cannot honour those
        semantics (NaN in the column or in the probe value) — callers must
        then fall back to a plain predicate scan. NULLs never match.
        """
        key = name.lower()
        index = self._equality_indexes.get(key)
        if index is None:
            array = self.column_array(self.column_position(name))
            built: dict[tuple, list[int]] = {}
            for i, cell in enumerate(array):
                if cell is None:
                    continue
                cell_key = equality_key(cell)
                if cell_key is None:
                    built = None  # type: ignore[assignment]
                    break
                built.setdefault(cell_key, []).append(i)
            index = built if built is not None else _UNINDEXABLE
            self._equality_indexes[key] = index
        if index is _UNINDEXABLE:
            return None
        probe = equality_key(value)
        if probe is None:
            return None
        return index.get(probe, [])  # type: ignore[union-attr]

    def head(self, limit: int = 3) -> list[tuple[SqlValue, ...]]:
        """Return the first ``limit`` rows (used for prompt samples)."""
        return self.rows[:limit]

    def content_fingerprint(self) -> str:
        """A sha256 over name, columns, and rows (memoized).

        Unlike :meth:`Database.fingerprint`, this depends only on the
        stored data: two processes that build identical tables compute
        identical fingerprints, which is what lets the persistent
        query-result cache serve across restarts. JSON's float rendering
        round-trips exactly, so the hash distinguishes every distinct
        ``SqlValue``. Tables are immutable, so one hash per table.
        """
        if self._content_fingerprint is None:
            payload = json.dumps(
                [self.name, self.column_names,
                 [list(row) for row in self.rows]],
                separators=(",", ":"), ensure_ascii=False,
            )
            self._content_fingerprint = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()
        return self._content_fingerprint


#: Process-unique creation tokens for Database fingerprints. ``id()`` is
#: unsuitable (addresses are recycled, which would let a dead database's
#: cached results leak into a new one); a monotone counter is not.
_DATABASE_TOKENS = itertools.count(1)


@dataclass
class Database:
    """A named set of tables with case-insensitive lookup."""

    name: str = "db"
    _tables: dict[str, Table] = field(default_factory=dict)
    _token: int = field(
        default_factory=lambda: next(_DATABASE_TOKENS),
        repr=False,
        compare=False,
    )
    _version: int = field(default=0, repr=False, compare=False)
    _content_fp: str | None = field(default=None, repr=False, compare=False)
    _content_fp_version: int = field(
        default=-1, repr=False, compare=False,
    )

    def add(self, table: Table) -> None:
        """Register a table, replacing any same-named table."""
        self._tables[table.name.lower()] = table
        self._version += 1

    def fingerprint(self) -> tuple[int, int]:
        """A (token, version) pair identifying this exact database state.

        The token is unique per constructed Database; the version bumps on
        every ``add``. Query-result cache entries key on the fingerprint,
        so mutating the database silently invalidates them.
        """
        return (self._token, self._version)

    def content_fingerprint(self) -> str:
        """A content hash of every table, stable across processes.

        This is the persistent cache's key ingredient: where
        :meth:`fingerprint` identifies *this object's* state (its token
        restarts with the process), the content fingerprint is equal for
        any two databases holding identical data — including one rebuilt
        by a seeded generator in a fresh process. Memoized per
        ``_version``, so mutation invalidates it exactly like the cheap
        fingerprint. The database *name* is deliberately excluded: query
        results depend only on the data.
        """
        if self._content_fp is None or self._content_fp_version != (
            self._version
        ):
            hasher = hashlib.sha256()
            for key in sorted(self._tables):
                hasher.update(
                    self._tables[key].content_fingerprint().encode("ascii")
                )
            self._content_fp = hasher.hexdigest()
            self._content_fp_version = self._version
        return self._content_fp

    def __deepcopy__(self, memo: dict) -> "Database":
        # A copy must get its own token: it starts identical but mutates
        # independently, and sharing (token, version) coordinates would let
        # the two databases poison each other's cached query results.
        clone = Database(self.name)
        memo[id(self)] = clone  # lint: allow-id-key (deepcopy protocol)
        clone._tables = {
            key: deepcopy(table, memo) for key, table in self._tables.items()
        }
        clone._version = self._version
        return clone

    def table(self, name: str) -> Table:
        """Look up a table by name, raising :class:`PlanError` on misses."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise PlanError(
                f"no table {name!r} in database {self.name!r} "
                f"(tables: {', '.join(sorted(self._tables))})"
            ) from None

    def has_table(self, name: str) -> bool:
        """Return True when the database contains this table."""
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        """Return the original-cased table names, sorted."""
        return sorted(t.name for t in self._tables.values())

    def tables(self) -> list[Table]:
        """Return all tables, sorted by name."""
        return [self._tables[k] for k in sorted(self._tables)]

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.has_table(name)
