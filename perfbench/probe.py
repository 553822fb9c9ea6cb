"""Layer probe: spans around each layer's public entry points.

The probe times the program from outside. ``install()`` replaces the
public functions the layers call each other through with wrappers that
record one span per call, and ``uninstall()`` puts the originals back.
Nothing in ``src/`` changes. A span is::

    (span_id, parent_id, name, job, phase, t0, t1, cpu0, cpu1, ok)

``name`` is ``<layer>.<operation>``; ``parent_id`` links to the
enclosing span on the same thread (0 for a root); ``job`` is the job the
span belongs to, inherited from the parent or set by the workload with
:meth:`Probe.context`; ``cpu`` is thread CPU time, so self times stay
meaningful when worker threads block on each other.

Where a caller binds a function by name (``analyze_sql`` and
``text_similarity`` are imported into the modules that use them), the
wrapper is installed on that module's binding; calls inside the SQL
engine itself go through bindings the probe cannot reach, and the
engine's exported counters (``engine_stats()``) cover them instead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

#: (owner import path, attribute, span name). Owners are classes or
#: modules; a class attribute wraps every instance.
TARGETS = [
    ("repro.core.pipeline:MultiStageVerifier", "verify_documents",
     "core.verify"),
    ("repro.core.oneshot:OneShotMethod", "translate", "core.translate"),
    ("repro.core.pipeline", "assess_query", "core.assess"),
    ("repro.core.agent_method:AgentMethod", "translate", "agents.translate"),
    ("repro.llm.simulated:SimulatedLLM", "complete", "llm.complete"),
    ("repro.sqlengine.executor:Engine", "execute", "sql.execute"),
    ("repro.core.plausibility", "analyze_sql", "sql.analyze"),
    ("repro.core.oneshot", "analyze_sql", "sql.analyze"),
    ("repro.agents.tools", "analyze_sql", "sql.analyze"),
    ("repro.core.plausibility", "text_similarity", "embed.similarity"),
    ("repro.agents.tools", "text_similarity", "embed.similarity"),
]


def _resolve(path: str):
    import importlib

    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


class Probe:
    """Collects spans in memory; writes them out with :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Probe":
        for owner_path, attribute, name in TARGETS:
            owner = _resolve(owner_path)
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original, own))
            setattr(owner, attribute, self.wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    def _open(self) -> tuple:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        job = getattr(local, "job", None)
        if stack:
            parent, parent_job = stack[-1]
            job = job or parent_job
        else:
            parent = 0
        span_id = next(self._ids)
        stack.append((span_id, job))
        return (span_id, parent, job, getattr(local, "phase", None),
                perf_counter(), thread_time())

    def _close(self, opened: tuple, name: str, ok: bool) -> None:
        cpu1 = thread_time()
        t1 = perf_counter()
        self._local.stack.pop()
        span_id, parent, job, phase, t0, cpu0 = opened
        self.spans.append((span_id, parent, name, job, phase,
                           t0, t1, cpu0, cpu1, ok))

    def wrap(self, name: str, function):
        """``function`` with a span recorded around every call."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            opened = self._open()
            ok = False
            try:
                result = function(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(opened, name, ok)

        return wrapper

    # -- attribution ---------------------------------------------------------

    @contextlib.contextmanager
    def context(self, job: str | None = None, phase: str | None = None):
        """Attribute spans opened on this thread to ``job``/``phase``."""
        local = self._local
        saved = (getattr(local, "job", None), getattr(local, "phase", None))
        local.job, local.phase = job, phase
        try:
            yield
        finally:
            local.job, local.phase = saved

    def attribute(self, job: str | None) -> None:
        """Attribute spans opened from now on, on this thread, to ``job``."""
        self._local.job = job

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        opened = self._open()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(opened, name, ok)

    def record(self, name: str, job: str | None, t0: float, t1: float,
               parent: int = 0) -> int:
        """Add a span measured elsewhere (event timestamps, HTTP calls)."""
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, job, None, t0, t1,
                           0.0, 0.0, True))
        return span_id

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        return summarize(self.spans)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "job", "phase", "t0", "t1",
                "cpu0", "cpu1", "ok")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def load_spans(path: Path, id_offset: int = 0) -> list[tuple]:
    """Spans written by :meth:`Probe.dump`, back in tuple form.

    ``id_offset`` is added to span and parent ids, so spans loaded from
    several processes (each numbering from 1) keep distinct ids.
    """
    spans = []
    with open(path) as handle:
        for line in handle:
            span_id, parent, *rest = json.loads(line).values()
            spans.append((span_id + id_offset,
                          parent + id_offset if parent else 0, *rest))
    return spans


def summarize(spans: list[tuple]) -> dict:
    """Per-name totals: calls, wall and CPU time, self CPU, failures.

    Self CPU is the span's thread CPU minus that of its children.
    ``agent_llm_calls``
    counts ``llm.complete`` spans with an ``agents.*`` ancestor;
    ``<name>@profile`` totals cover spans opened in the ``profile``
    phase. Spans of the ``input`` phase (the benchmark generating its
    inputs) are left out.
    """
    by_id = {span[0]: span for span in spans}
    child_cpu: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            child_cpu[span[1]] += span[8] - span[7]
    names: dict[str, Counter] = defaultdict(Counter)
    agent_llm_calls = 0
    for span in spans:
        span_id, parent, name, _job, phase, t0, t1, c0, c1, ok = span
        if phase == "input":
            continue
        totals = names[f"{name}@profile" if phase == "profile" else name]
        totals["self_cpu"] += (c1 - c0) - child_cpu.get(span_id, 0.0)
        totals["calls"] += 1
        totals["wall"] += t1 - t0
        totals["cpu"] += c1 - c0
        totals["failed"] += 0 if ok else 1
        if name == "llm.complete":
            ancestor = by_id.get(parent)
            while ancestor is not None:
                if ancestor[2].startswith("agents."):
                    agent_llm_calls += 1
                    break
                ancestor = by_id.get(ancestor[1])
    result = {name: dict(totals) for name, totals in names.items()}
    result["agent_llm_calls"] = agent_llm_calls
    return result


class NullProbe:
    """Stands in for :class:`Probe` in untraced runs: records nothing."""

    def context(self, job: str | None = None, phase: str | None = None):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def attribute(self, job: str | None) -> None:
        pass
