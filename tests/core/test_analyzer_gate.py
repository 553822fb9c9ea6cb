"""The static analyzer gate through the verification layers.

Covers the non-engine halves of the analyzer tentpole: CorrectQuery
rejecting statically invalid candidates without executing them, the
agent's querying tool returning rendered diagnostics as observations,
Algorithm 9's reconstruction validation, and the report counters.
"""

from repro.core.claims import Claim, Span
from repro.core.plausibility import assess_query, static_rejection
from repro.core.reconstruction import reconstruct
from repro.core.reports import _engine_line
from repro.agents.tools import DatabaseQueryingTool, format_tool_error
from repro.sqlengine import (
    ANALYZER_COUNTERS,
    Database,
    Table,
    reset_engine_stats,
)
from repro.sqlengine.errors import (
    EmptyResultError,
    ExecutionError,
    PlanError,
)
from repro.sqlengine.planner import STRATEGY_COUNTERS


def _db() -> Database:
    db = Database("gate")
    db.add(Table("t", ["name", "amount"],
                 [("alpha", 5), ("beta", 7), ("gamma", 7)]))
    return db


def _claim(sentence="Row alpha stores 5 units.", span=Span(3, 3)):
    return Claim(sentence, span, "ctx", "c1")


class TestAssessQueryGate:
    def test_invalid_query_rejected_without_execution(self):
        reset_engine_stats()
        assessment = assess_query(
            "SELECT missing FROM t", _claim(), _db()
        )
        assert not assessment.executable
        assert not assessment.plausible
        assert "SQLA001" in assessment.error
        snapshot = ANALYZER_COUNTERS.snapshot()
        assert snapshot["rejected_pre_execution"] == 1
        # No execution strategies fired: the engine never saw the query.
        strategies = STRATEGY_COUNTERS.snapshot()
        for name in ("vectorized_executions", "vectorized_ineligible",
                     "vectorized_runtime_fallbacks", "result_cache_hits",
                     "result_cache_misses"):
            assert strategies[name] == 0, name

    def test_shape_mismatch_short_circuits_correct_query(self):
        # Two columns can never be Definition 2.4's single cell.
        assessment = assess_query(
            "SELECT name, amount FROM t", _claim(), _db()
        )
        assert not assessment.executable
        assert "SQLA030" in assessment.error

    def test_type_mismatch_short_circuits_numeric_claim(self):
        assessment = assess_query(
            "SELECT amount > 0 FROM t", _claim(), _db()
        )
        assert not assessment.executable
        assert "SQLA031" in assessment.error

    def test_boolean_result_allowed_for_textual_claim(self):
        claim = _claim("The flag reads yes today.", Span(3, 3))
        assert not claim.is_numeric
        assessment = assess_query(
            "SELECT amount > 0 FROM t", claim, _db()
        )
        assert assessment.executable   # SQLA031 only guards numeric claims

    def test_valid_query_still_assessed_normally(self):
        assessment = assess_query(
            "SELECT amount FROM t WHERE name = 'alpha'", _claim(), _db()
        )
        assert assessment.executable
        assert assessment.plausible
        assert assessment.result == 5

    def test_analyze_false_restores_execution_path(self):
        assessment = assess_query(
            "SELECT missing FROM t", _claim(), _db(), analyze=False
        )
        # Same verdict, discovered the expensive way: by executing.
        assert not assessment.executable
        assert "SQLA" not in (assessment.error or "")

    def test_static_rejection_none_for_sound_query(self):
        assert static_rejection(
            "SELECT amount FROM t WHERE name = 'alpha'", _claim(), _db()
        ) is None


class TestQueryingToolGate:
    def test_tool_returns_rendered_diagnostics(self):
        tool = DatabaseQueryingTool(_db(), 5, "5")
        observation = tool.run("SELECT missing FROM t")
        assert observation.startswith("Error: SQLA001")
        assert tool.queries == ["SELECT missing FROM t"]
        assert tool.results == []      # never executed

    def test_tool_analyze_off_surfaces_runtime_error(self):
        tool = DatabaseQueryingTool(_db(), 5, "5", analyze=False)
        observation = tool.run("SELECT missing FROM t")
        assert observation.startswith("Error: ")
        assert "SQLA" not in observation

    def test_empty_result_observation_is_figure_4_verbatim(self):
        # Statically sound, runs, selects nothing: the analyzer must not
        # intercept the paper's load-bearing empty-result observation.
        tool = DatabaseQueryingTool(_db(), 5, "5")
        observation = tool.run(
            "SELECT amount FROM t WHERE name = 'delta'"
        )
        assert observation == "index 0 is out of bounds for axis 0 with size 0"

    def test_valid_query_keeps_feedback_format(self):
        tool = DatabaseQueryingTool(_db(), 5, "5")
        observation = tool.run("SELECT amount FROM t WHERE name = 'alpha'")
        assert observation == "[5, 'Value is correct']"


class TestFormatToolError:
    def test_empty_result_passes_verbatim(self):
        assert format_tool_error(EmptyResultError()) == (
            "index 0 is out of bounds for axis 0 with size 0"
        )

    def test_sql_errors_get_stable_prefix(self):
        assert format_tool_error(
            PlanError("no table 'x' in database 'db' (tables: t)")
        ) == "Error: no table 'x' in database 'db' (tables: t)"
        assert format_tool_error(
            ExecutionError("division by zero")
        ) == "Error: division by zero"

    def test_foreign_exceptions_reduced_to_type_name(self):
        # Interpreter-authored messages drift across Python versions;
        # only the type name enters the transcript.
        try:
            {}["missing"]
        except KeyError as error:
            assert format_tool_error(error) == "Error: KeyError"


class TestReconstructionGate:
    def test_invalid_intermediate_skipped_without_execution(self):
        reset_engine_stats()
        queries = [
            "SELECT missing FROM t",                       # static error
            "SELECT MAX(amount) FROM t",                   # -> 7
            "SELECT name FROM t WHERE amount = 7 LIMIT 1", # uses the 7
        ]
        merged = reconstruct(queries, _db())
        assert "(SELECT MAX(amount) FROM t)" in merged
        assert ANALYZER_COUNTERS.snapshot()["rejected_pre_execution"] >= 1

    def test_sound_reconstruction_unchanged_by_validation(self):
        queries = [
            "SELECT MAX(amount) FROM t",
            "SELECT name FROM t WHERE amount = 7 LIMIT 1",
        ]
        assert reconstruct(queries, _db()) == (
            "SELECT name FROM t WHERE amount = (SELECT MAX(amount) FROM t) "
            "LIMIT 1"
        )

    def test_corrupted_reconstruction_falls_back_to_final_query(self):
        # The matching constant sits in a LIMIT clause, which this
        # engine's grammar restricts to integer literals; textual
        # substitution corrupts the query, the analyzer catches it, and
        # the agent's own final query wins.
        queries = [
            "SELECT MAX(amount) FROM t",        # -> 7
            "SELECT name FROM t LIMIT 7",       # 7 not substitutable
        ]
        merged = reconstruct(queries, _db())
        assert merged == "SELECT name FROM t LIMIT 7"


class TestReportCounters:
    def test_engine_line_includes_analyzer_segment(self):
        line = _engine_line({
            "plan_cache": {"hits": 3, "misses": 1},
            "strategies": {"result_cache_hits": 0, "result_cache_misses": 2},
            "analyzer": {
                "queries_analyzed": 9,
                "rejected_pre_execution": 2,
                "warnings": 1,
            },
        })
        assert "analyzer 9 analyzed/2 rejected/1 warnings" in line

    def test_engine_line_without_analyzer_stats_unchanged(self):
        line = _engine_line({
            "plan_cache": {"hits": 0, "misses": 0},
            "strategies": {},
        })
        assert "analyzer" not in line
