"""Span tracing from outside the package, by wrapping honeysim's functions.

Each wrapper replaces a function at the place its caller looks it up (for
example ``honeysim.engine.attacker_step``, which ``run_episode`` reads from
the engine module's globals), so the package itself is unchanged. A wrapper
records a span (name, start, end, parent span, cell) and counts at the same
boundary. Spans stay in memory, grouped by phase, and are written once at the
end. A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the root's
duration exactly.

The catalog lookups (``AttackGraph.ids``, ``get``, ``__contains__``) run tens
of times per epoch and take well under a microsecond, so they are counted
without spans; their time stays in the caller's self time.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import gzip
import logging
from time import perf_counter_ns
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cells: list[str] = [""]
        self.spans_by_phase: dict[str, list] = {}
        self.counts_by_phase: dict[str, collections.Counter] = {}
        self._spans: list = []
        self._counts: collections.Counter = collections.Counter()
        self._stack: list[list[int]] = []
        self._cell = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str):
        """Collect the spans and counts of the enclosed calls under ``name``."""
        self._spans = self.spans_by_phase.setdefault(name, [])
        self._counts = self.counts_by_phase.setdefault(name, collections.Counter())
        try:
            yield
        finally:
            self._spans = []
            self._counts = collections.Counter()

    def count(self, key: str, n: int = 1) -> None:
        self._counts[key] += n

    def set_cell(self, cell_name: Optional[str]) -> None:
        if cell_name is None:
            self._cell = 0
            return
        self.cells.append(cell_name)
        self._cell = len(self.cells) - 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args, kwargs)`` runs before the span opens and
        ``after(args, kwargs, result)`` after it closes, so their cost lands
        in the parent's self time, not in this span.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            spans = tracer._spans
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            spans.append(None)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name_id, start, end, parent, tracer._cell, duration - frame[1])
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by its wrapped form until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def patch_counter(self, owner: type, attr: str, key: str) -> None:
        """Count calls of a method or property getter without a span."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        tracer = self
        if isinstance(original, property):
            getter = original.fget

            def counted_property(obj):
                tracer._counts[key] += 1
                return getter(obj)

            setattr(owner, attr, property(counted_property))
            return

        def counted(*args, **kwargs):
            tracer._counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["phase", "index", "name", "start_ns", "end_ns", "parent", "cell", "self_ns"])
            for phase, spans in self.spans_by_phase.items():
                for index, (name_id, start, end, parent, cell, self_ns) in enumerate(spans):
                    out.writerow([phase, index, self.names[name_id], start, end, parent, self.cells[cell], self_ns])
                    written += 1
        return written


class CountingHandler(logging.Handler):
    """Counts log records by logger, level and message template."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(level=logging.NOTSET)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.count(f"log:{record.name}:{record.levelname}:{record.msg}")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of honeysim that the benchmark reports on."""
    from honeysim import catalog, cli, engine, harness, llm, metrics, policies

    t = tracer

    def enter_cell(args, kwargs):
        t.set_cell(args[0].name)

    def leave_cell(args, kwargs, result):
        t.set_cell(None)

    def count_alerts(args, kwargs, result):
        t.count("telemetry.alerts", len(result))

    def count_turn(args, kwargs, result):
        turn = result[3]
        t.count("llm.turns")
        t.count("llm.fallbacks", int(turn.fallback_used))
        t.count("llm.prompt_chars", len(turn.prompt))
        t.count("llm.response_chars", len(turn.raw_response))

    def count_records_held(args, kwargs, result=None):
        t.count("metrics.records_held", sum(len(r.records) for r in args[1]))

    # harness: per-cell work, file I/O, summaries; the roots are called directly
    t.patch(harness, "execute_matrix", "harness.execute_matrix")
    t.patch(harness, "replay_out_dir", "harness.replay_out_dir")
    t.patch(harness, "run_cell", "harness.run_cell", before=enter_cell, after=leave_cell)
    t.patch(harness, "write_cell", "harness.write_cell")
    t.patch(harness, "write_summaries", "harness.write_summaries", before=count_records_held)
    t.patch(harness, "run_simulation", "engine.run_simulation")
    t.patch(harness, "records_to_jsonl", "engine.records_to_jsonl")
    t.patch(harness, "records_from_jsonl", "engine.records_from_jsonl")
    t.patch(harness, "aggregate", "metrics.aggregate")
    t.patch(harness, "deployment_config", "catalog.deployment_config")
    t.patch(harness, "builtin_template", "llm.builtin_template")
    t.patch(harness, "load_replay_file", "llm.load_replay_file")
    # cli: what `honeysim validate` does after import
    t.patch(cli, "load_run_file", "harness.load_run_file")
    t.patch(cli, "validate_matrix", "harness.validate_matrix")
    t.patch(cli, "expand_matrix", "harness.expand_matrix")
    # engine: the epoch loop
    t.patch(engine, "run_episode", "engine.run_episode")
    t.patch(engine, "attacker_step", "attackers.attacker_step")
    t.patch(engine, "synthesize_alerts", "telemetry.synthesize_alerts", after=count_alerts)
    t.patch(engine, "aggregate_epoch", "telemetry.aggregate_epoch")
    t.patch(engine, "policy_decide", "policies.policy_decide")
    # policies
    t.patch(policies, "update_belief", "policies.update_belief")
    t.patch(policies, "clamp_decision", "policies.clamp_decision")
    t.patch(policies, "summarize_for_prompt", "telemetry.summarize_for_prompt")
    for cls in (policies.OraclePolicy, policies.RandomPolicy, policies.ReactivePolicy, policies.StaticPolicy):
        t.patch(cls, "decide", "policies.decide")
    # llm: one model turn
    t.patch(llm.LlmPolicy, "decide", "llm.LlmPolicy.decide")
    t.patch(llm, "llm_decide", "llm.llm_decide", after=count_turn)
    t.patch(llm, "build_prompt", "llm.build_prompt")
    t.patch(llm, "parse_response", "llm.parse_response")
    t.patch(llm, "summarize_for_prompt", "telemetry.summarize_for_prompt")
    t.patch(llm, "builtin_template", "llm.builtin_template")
    t.patch(llm.ScriptedMockBackend, "complete", "llm.backend.complete")
    # metrics
    t.patch(metrics, "run_metrics", "metrics.run_metrics")
    # catalog lookups: counts only
    t.patch_counter(catalog.AttackGraph, "ids", "catalog.ids")
    t.patch_counter(catalog.AttackGraph, "get", "catalog.get")
    t.patch_counter(catalog.AttackGraph, "__contains__", "catalog.contains")

    handler = CountingHandler(t)
    for name in list(logging.Logger.manager.loggerDict):
        if name.startswith("honeysim."):
            logging.getLogger(name).addHandler(handler)
