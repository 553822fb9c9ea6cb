"""Failure modes of simulated claim-to-SQL translation.

When the simulated model fails a success draw it must still answer — with a
*wrong* query, the way real models fail: a similar-but-wrong column, a
mangled constant, the wrong aggregate, a dropped filter, truncated SQL. The
corrupted queries are real SQL run by the real engine, so every downstream
code path (plausibility checks, retries, escalation, agent feedback)
operates on genuine wrong answers rather than sentinel values.
"""

from __future__ import annotations

import dataclasses
import random

from repro.sqlengine import shared_plan_cache
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import SqlError

from .world import ClaimKnowledge


def corrupt_query(
    knowledge: ClaimKnowledge, rng: random.Random
) -> str:
    """Produce a wrong translation of the claim's reference query.

    The corruption kind is drawn at random from the modes applicable to the
    query's shape. Falls back to truncation when a mode cannot apply.
    """
    try:
        statement = shared_plan_cache().parse(knowledge.reference_sql)
    except SqlError:
        return _truncate(knowledge.reference_sql)
    canonical = statement.to_sql()
    nodes = list(_all_expressions(statement))
    aggregates = _aggregate_names(nodes)
    strings = _string_literals(nodes)
    numbers = _numeric_literals(nodes)
    # Failure *kind* depends on how hard the claim is: a model that fails
    # on an easy claim usually fails at the surface (malformed SQL, a
    # mangled constant), whereas semantic confusions (wrong column, wrong
    # aggregate) arise when the claim's phrasing genuinely under-determines
    # the query. Surface failures are harmless to CEDAR (they never pass
    # the plausibility test); semantic ones are the dangerous kind.
    semantic = min(1.0, 0.55 * knowledge.difficulty)
    if knowledge.ambiguous:
        semantic = 1.0
    if knowledge.join_required:
        # Failed join translations break at the structure (wrong join
        # keys, missing bridge tables) and rarely produce a plausible
        # value; they surface as errors the escalation ladder catches.
        semantic *= 0.5
    modes: list[tuple[float, str]] = [(0.28 * semantic, "wrong_column")]
    if aggregates:
        modes.append((0.22 * semantic, "wrong_aggregate"))
    if strings:
        modes.append((0.20, "wrong_string_constant"))
    if numbers:
        modes.append((0.10 * semantic, "wrong_numeric_constant"))
    if _droppable_predicate(statement):
        modes.append((0.12 * semantic, "drop_predicate"))
    modes.append((0.08 + 0.45 * (1.0 - semantic), "malformed"))
    mode = _weighted_choice(modes, rng)
    if mode == "wrong_column":
        return _wrong_column(canonical, nodes, knowledge, rng)
    if mode == "wrong_aggregate":
        return _wrong_aggregate(canonical, aggregates, rng)
    if mode == "wrong_string_constant":
        return _wrong_string_constant(canonical, strings, rng)
    if mode == "wrong_numeric_constant":
        return _wrong_numeric_constant(canonical, numbers, rng)
    if mode == "drop_predicate":
        return _drop_predicate(statement)
    return _truncate(canonical)


def trap_query(knowledge: ClaimKnowledge) -> str:
    """Render the reference query with the lookup trap's wrong constant.

    This is the natural mistake of a model that has never seen the data:
    using the claim's phrasing ('United States') instead of the stored
    constant ('USA'). The resulting query typically returns no rows, which
    is the error the agent observes in Figure 4.
    """
    trap = knowledge.lookup_trap
    if trap is None:
        raise ValueError("claim has no lookup trap")
    right = ast.quote_string(trap.right_constant)
    wrong = ast.quote_string(trap.wrong_constant)
    canonical = shared_plan_cache().parse(knowledge.reference_sql).to_sql()
    if right not in canonical:
        return canonical
    return canonical.replace(right, wrong)


def cheat_query(knowledge: ClaimKnowledge) -> str:
    """Render the Figure 2 cheat: a query returning the claimed value.

    Emitted by the simulated model when the claim value was left visible in
    the prompt (the masking ablation). The query is trivially 'plausible'
    while verifying nothing.
    """
    if knowledge.claim_type == "numeric":
        return f"SELECT {knowledge.claim_value_text.replace(',', '')}"
    return f"SELECT {ast.quote_string(knowledge.claim_value_text)}"


# -- individual corruption modes ------------------------------------------


def _wrong_column(
    canonical: str,
    nodes: list[ast.Expression],
    knowledge: ClaimKnowledge,
    rng: random.Random,
) -> str:
    referenced = sorted(
        {node.name for node in nodes if isinstance(node, ast.ColumnRef)}
    )
    if not referenced:
        return _truncate(canonical)
    victim = rng.choice(referenced)
    alternatives = [c for c in knowledge.columns if c.lower() != victim.lower()]
    if not alternatives:
        return _truncate(canonical)
    replacement = rng.choice(alternatives)
    return canonical.replace(
        ast.quote_identifier(victim), ast.quote_identifier(replacement), 1
    )


#: Plausible-sounding aggregate confusions. Swaps are biased towards
#: scale-changing mistakes (SUM vs AVG differs by the row count), because
#: a wrong aggregate in the same order of magnitude would silently pass
#: the plausibility test — which real models' errors rarely do.
_AGGREGATE_SWAPS = {
    "COUNT": ("SUM",),
    "SUM": ("COUNT", "AVG"),
    "AVG": ("SUM", "COUNT"),
    "MAX": ("SUM", "COUNT"),
    "MIN": ("SUM", "COUNT"),
}


def _wrong_aggregate(
    canonical: str, names: set[str], rng: random.Random
) -> str:
    victim = rng.choice(sorted(names))
    replacement = rng.choice(_AGGREGATE_SWAPS[victim])
    return canonical.replace(f"{victim}(", f"{replacement}(", 1)


def _wrong_string_constant(
    canonical: str, literals: set[str], rng: random.Random
) -> str:
    victim = rng.choice(sorted(literals))
    mangled = _mangle_string(victim, rng)
    return canonical.replace(
        ast.quote_string(victim), ast.quote_string(mangled), 1
    )


def _wrong_numeric_constant(
    canonical: str, literals: set[float | int], rng: random.Random
) -> str:
    victim = rng.choice(sorted(literals, key=repr))
    tweak = rng.choice(("scale", "offset"))
    if tweak == "scale":
        replacement = victim * 10
    else:
        replacement = victim + rng.choice((-1, 1))
    victim_text = ast.Literal(victim).to_sql()
    return canonical.replace(victim_text, ast.Literal(replacement).to_sql(), 1)


def _drop_predicate(statement: ast.SelectStatement) -> str:
    where = statement.where
    assert isinstance(where, ast.BinaryOp) and where.op == "AND"
    return dataclasses.replace(statement, where=where.left).to_sql()


def _truncate(sql: str) -> str:
    return sql[: max(8, len(sql) // 2)]


def _mangle_string(text: str, rng: random.Random) -> str:
    choices = []
    if " " in text:
        choices.append(text.split(" ", 1)[0])  # keep first word only
    choices.append(text + "s")
    choices.append(text.lower())
    if len(text) > 3:
        cut = rng.randrange(1, len(text) - 1)
        choices.append(text[:cut] + text[cut + 1:])  # drop a character
    return rng.choice(choices)


# -- query-shape inspection -------------------------------------------------


def _all_expressions(statement: ast.SelectStatement):
    yield from ast.walk_expressions(statement)
    for subquery in ast.walk_subqueries(statement):
        yield from ast.walk_expressions(subquery)


def _aggregate_names(nodes: list[ast.Expression]) -> set[str]:
    return {
        node.name for node in nodes if isinstance(node, ast.AggregateCall)
    }


def _string_literals(nodes: list[ast.Expression]) -> set[str]:
    return {
        node.value
        for node in nodes
        if isinstance(node, ast.Literal) and isinstance(node.value, str)
    }


def _numeric_literals(nodes: list[ast.Expression]) -> set[float | int]:
    return {
        node.value
        for node in nodes
        if isinstance(node, ast.Literal)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    }


def _droppable_predicate(statement: ast.SelectStatement) -> bool:
    return (
        isinstance(statement.where, ast.BinaryOp)
        and statement.where.op == "AND"
    )


def _weighted_choice(
    weighted: list[tuple[float, str]], rng: random.Random
) -> str:
    total = sum(weight for weight, _ in weighted)
    draw = rng.random() * total
    cumulative = 0.0
    for weight, value in weighted:
        cumulative += weight
        if draw <= cumulative:
            return value
    return weighted[-1][1]
