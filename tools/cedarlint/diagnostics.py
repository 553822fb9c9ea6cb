"""Diagnostic model: stable ``CDL0xx`` codes, severities, rendering.

Code families (mirroring the SQLA convention from
``src/repro/sqlengine/analyzer.py``):

* ``CDL00x`` — analyzer plumbing (unparseable files).
* ``CDL01x`` — determinism: anything that could make two runs of the
  same seed diverge (wall clocks, global RNG state, ``id()`` keys,
  unordered iteration feeding ordered output).
* ``CDL02x`` — concurrency: lock-order inversions, unguarded shared
  mutation, blocking calls on the event loop.
* ``CDL03x`` — layering: module-ownership boundaries (engine
  construction, sqlite, column arrays, the public import surface).

Severity semantics
------------------

``error``    breaks a guarantee the test suite enforces end-to-end
             (byte-identical reports, deadlock freedom, module
             ownership). Errors must be fixed or explicitly pragma'd at
             the site; the baseline never grandfathers them.
``warning``  a hazard pattern that is sometimes deliberate (identity
             keys, unordered iteration). Warnings may live in the
             checked-in baseline, which is only allowed to shrink.

Codes are append-only: a code's meaning never changes, retired codes
are never reused — tests, baselines, and pragmas all key on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"

#: Sort weight: errors first.
_SEVERITY_ORDER = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class CodeInfo:
    """One registered diagnostic code."""

    code: str
    severity: str
    family: str
    summary: str
    #: Legacy ``# lint: allow-<name>`` pragma absorbed by this code
    #: (pre-cedarlint sites keep working unchanged).
    legacy_pragma: str | None = None
    #: False for codes with no legitimate exception: neither pragmas
    #: nor the baseline may silence them.
    suppressible: bool = True


CODES: dict[str, CodeInfo] = {}


def _register(*infos: CodeInfo) -> None:
    for info in infos:
        if info.code in CODES:
            raise ValueError(f"duplicate diagnostic code {info.code}")
        CODES[info.code] = info


_register(
    CodeInfo("CDL001", ERROR, "plumbing",
             "file does not parse (syntax error)", suppressible=False),
    # -- determinism ---------------------------------------------------------
    CodeInfo("CDL010", WARNING, "determinism",
             "wall-clock read in deterministic library code"),
    CodeInfo("CDL011", ERROR, "determinism",
             "random.Random() without a seed",
             legacy_pragma="allow-unseeded"),
    CodeInfo("CDL012", ERROR, "determinism",
             "module-level random.* call mutates the shared global RNG"),
    CodeInfo("CDL013", WARNING, "determinism",
             "id()-derived value used as a mapping key or set element",
             legacy_pragma="allow-id-key"),
    CodeInfo("CDL014", WARNING, "determinism",
             "unordered set iteration feeding ordered output"),
    CodeInfo("CDL015", ERROR, "determinism",
             "clock call or random import inside repro/obs/",
             suppressible=False),
    # -- concurrency ---------------------------------------------------------
    CodeInfo("CDL020", ERROR, "concurrency",
             "potential lock-order inversion (cycle in the "
             "lock-acquisition graph)"),
    CodeInfo("CDL021", WARNING, "concurrency",
             "lock-guarded attribute written without the owning lock"),
    CodeInfo("CDL022", ERROR, "concurrency",
             "blocking call inside an async def body",
             legacy_pragma="allow-blocking"),
    # -- layering ------------------------------------------------------------
    CodeInfo("CDL030", ERROR, "layering",
             "direct Engine() construction outside sqlengine/",
             legacy_pragma="allow-engine"),
    CodeInfo("CDL031", ERROR, "layering",
             "sqlite used outside src/repro/cache/",
             legacy_pragma="allow-sqlite"),
    CodeInfo("CDL032", ERROR, "layering",
             "column arrays accessed outside src/repro/sqlengine/",
             legacy_pragma="allow-column-array"),
    CodeInfo("CDL033", ERROR, "layering",
             "showcased code imports outside the public __all__ surface"),
    CodeInfo("CDL034", ERROR, "layering",
             "cost-ledger history (entries/events) read outside "
             "src/repro/llm/"),
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding, pinned to a repo-relative location.

    ``context`` is the stripped source line — the baseline keys on
    ``(path, code, context)`` so findings survive unrelated line-number
    churn in the same file.
    """

    code: str
    path: str               # repo-relative, posix separators
    line: int
    message: str
    context: str = ""
    severity: str = field(default="")

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(
                self, "severity", CODES[self.code].severity
            )

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.code, self.message)

    @property
    def severity_rank(self) -> int:
        return _SEVERITY_ORDER.get(self.severity, 9)

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.code} "
                f"[{self.severity}] {self.message}")

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
        }


def code_table() -> list[CodeInfo]:
    """Every registered code, sorted — ``--list-codes`` and the docs."""
    return [CODES[code] for code in sorted(CODES)]
