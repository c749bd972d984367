"""Per-layer metrics of one traced iteration, computed from its spans and counts.

Names are ``<layer>.<what>``, where a layer is a module of ``src/honeysim``.
Unless a name says otherwise, a metric covers the ``run`` phase
(``execute_matrix``); ``replay`` and ``validate`` metrics say so in their
name. ``us_per_call`` is the mean inclusive duration of a span, ``self``
excludes the span's wrapped children. A layer that does not run on a
workload reports zero calls and zero time.
"""

from __future__ import annotations

import collections
import statistics

# the modules whose functions run under execute_matrix
RUN_LAYERS = ("attackers", "catalog", "engine", "harness", "llm", "metrics", "policies", "telemetry")
ROOT_SPAN = "harness.execute_matrix"


class PhaseStats:
    """Calls, inclusive and self nanoseconds per span name within one phase."""

    def __init__(self, tracer, phase: str) -> None:
        self.spans = tracer.spans_by_phase.get(phase, [])
        self.counts = tracer.counts_by_phase.get(phase, collections.Counter())
        self.calls: collections.Counter = collections.Counter()
        self.total_ns: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        self.self_by_span: dict[str, list[int]] = collections.defaultdict(list)
        for name_id, start, end, _parent, _cell, self_ns in self.spans:
            name = tracer.names[name_id]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += self_ns
            self.self_by_span[name].append(self_ns)

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def us_per_call(self, name: str) -> float:
        return self.total_ns[name] / self.calls[name] / 1e3 if self.calls[name] else 0.0

    def self_us_per_call(self, name: str) -> float:
        return self.self_ns[name] / self.calls[name] / 1e3 if self.calls[name] else 0.0

    def log_count(self, logger: str, level: str = "WARNING", exclude: str = "") -> int:
        prefix = f"log:{logger}:{level}:"
        return sum(
            n
            for key, n in self.counts.items()
            if key.startswith(prefix) and not (exclude and key[len(prefix) :].startswith(exclude))
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_us(values: list[int], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] / 1e3
    return statistics.quantiles(values, n=100)[pct - 1] / 1e3


def from_trace(tracer, iteration: dict) -> dict:
    """Per-layer metrics plus the self-time identity check of one traced iteration."""
    run = PhaseStats(tracer, "run")
    replay = PhaseStats(tracer, "replay")
    validate = PhaseStats(tracer, "validate")
    epochs = run.calls["attackers.attacker_step"]
    turns = run.counts["llm.turns"]
    m: dict[str, float] = {}

    m["cli.validate_s"] = validate.total_s("cli.validate")
    m["harness.load_config_s"] = validate.total_s("harness.load_run_file")
    m["harness.validate_matrix_s"] = validate.total_s("harness.validate_matrix")

    m["harness.run_cell.self_s"] = run.self_s("harness.run_cell")
    m["harness.run_cell.p50_us"] = _percentile_us(run.self_by_span["harness.run_cell"], 50)
    m["harness.run_cell.p95_us"] = _percentile_us(run.self_by_span["harness.run_cell"], 95)
    m["harness.write_cell.self_s"] = run.self_s("harness.write_cell")
    m["harness.bytes_written"] = iteration["bytes_written"]
    m["harness.write_summaries_s"] = run.total_s("harness.write_summaries")
    m["harness.replay_read_s"] = replay.self_s("harness.replay_out_dir")

    m["engine.episodes"] = run.calls["engine.run_episode"]
    m["engine.epochs"] = epochs
    m["engine.run_episode.self_us_per_epoch"] = _ratio(run.self_ns["engine.run_episode"] / 1e3, epochs)
    m["engine.records_to_jsonl_s"] = run.total_s("engine.records_to_jsonl")
    m["engine.records_from_jsonl_s"] = replay.total_s("engine.records_from_jsonl")

    m["attackers.attacker_step.us_per_call"] = run.us_per_call("attackers.attacker_step")

    m["telemetry.alerts"] = run.counts["telemetry.alerts"]
    m["telemetry.alerts_per_epoch"] = _ratio(run.counts["telemetry.alerts"], epochs)
    m["telemetry.synthesize_alerts.us_per_call"] = run.us_per_call("telemetry.synthesize_alerts")
    m["telemetry.aggregate_epoch.us_per_call"] = run.us_per_call("telemetry.aggregate_epoch")
    m["telemetry.summarize_for_prompt.calls"] = run.calls["telemetry.summarize_for_prompt"]
    m["telemetry.summarize_for_prompt.us_per_call"] = run.us_per_call("telemetry.summarize_for_prompt")

    m["policies.update_belief.us_per_call"] = run.us_per_call("policies.update_belief")
    # the decide method of whichever policy runs, baseline or model-backed
    decides = run.calls["policies.decide"] + run.calls["llm.LlmPolicy.decide"]
    decide_ns = run.total_ns["policies.decide"] + run.total_ns["llm.LlmPolicy.decide"]
    m["policies.decide.us_per_call"] = _ratio(decide_ns / 1e3, decides)
    m["policies.policy_decide.self_us"] = run.self_us_per_call("policies.policy_decide")
    m["policies.clamp_decision.us_per_call"] = run.us_per_call("policies.clamp_decision")
    m["policies.clamp_warnings"] = run.log_count("honeysim.policies")

    for key in ("ids", "get", "contains"):
        m[f"catalog.{key}.calls_per_epoch"] = _ratio(run.counts[f"catalog.{key}"], epochs)
    m["catalog.deployment_config.calls"] = run.calls["catalog.deployment_config"]

    m["llm.turns"] = turns
    m["llm.fallback_rate"] = _ratio(run.counts["llm.fallbacks"], turns)
    m["llm.parse_failures"] = run.counts["llm.parse_response.raised.ResponseParseError"]
    m["llm.parse_warnings"] = run.log_count("honeysim.llm", exclude="model turn failed")
    m["llm.prompt_chars_mean"] = _ratio(run.counts["llm.prompt_chars"], turns)
    m["llm.response_chars_mean"] = _ratio(run.counts["llm.response_chars"], turns)
    m["llm.build_prompt.calls"] = run.calls["llm.build_prompt"]
    m["llm.build_prompt.us_per_call"] = run.us_per_call("llm.build_prompt")
    m["llm.parse_response.us_per_call"] = run.us_per_call("llm.parse_response")
    m["llm.llm_decide.self_us"] = run.self_us_per_call("llm.llm_decide")
    m["llm.turn_log_s"] = run.self_s("llm.LlmPolicy.decide")
    m["llm.builtin_template.calls"] = run.calls["llm.builtin_template"]
    m["llm.load_replay_file.calls"] = run.calls["llm.load_replay_file"]

    m["metrics.run_metrics.calls"] = run.calls["metrics.run_metrics"]
    m["metrics.aggregate_s"] = run.total_s("metrics.aggregate")
    m["metrics.records_held"] = run.counts["metrics.records_held"]

    # Where the traced run went: each layer's self time, plus what no wrapped
    # span covers, adds up to the traced run_s.
    by_layer = collections.Counter()
    for name, ns in run.self_ns.items():
        if name != ROOT_SPAN:
            by_layer[name.split(".", 1)[0]] += ns
    for layer in RUN_LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer] / 1e9
    m["trace.run_s"] = iteration["run_s"]
    m["trace.remainder_s"] = iteration["run_s"] - sum(by_layer.values()) / 1e9
    m["trace.spans"] = len(run.spans) + len(replay.spans) + len(validate.spans)

    # self times partition the root span exactly, or the spans did not nest
    iteration["self_times_add_up"] = (
        run.calls[ROOT_SPAN] == 1 and sum(run.self_ns.values()) == run.total_ns[ROOT_SPAN]
    )
    return m
