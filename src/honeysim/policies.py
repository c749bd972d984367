"""Defender side: exposure decisions, stage predictions, belief tracking.

A policy turns one epoch's observation (plus the belief it keeps, if it reads
one) into the exposure set for the next epoch and a prediction of how far the
attack has progressed. Deterministic baselines live here; the model-backed
policy is in ``honeysim.llm``. ``policy_decide`` folds the epoch's alerts into
the policy's belief, and whatever the policy returns, it enforces the exposure
budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional

from .attackers import COMPLETED
from .catalog import STAGE_LABELS, AttackGraph, AttackStage, HoneynetConfig
from .telemetry import EpochObservation
from .telemetry import summarize_for_prompt  # noqa: F401  kept: perfbench/tracer.py patches this name


# The value objects of one epoch (ExposureDecision, StagePrediction,
# GroundTruthView, like telemetry's EpochObservation) are named tuples:
# immutable, and built several times per epoch at a fraction of the cost of a
# frozen dataclass.


class ExposureDecision(NamedTuple):
    """Services to expose next epoch, in priority order, plus a stop signal."""

    exposed: tuple[str, ...]
    declared_done: bool = False


class StagePrediction(NamedTuple):
    """Stages the policy believes the attacker has completed so far.

    The set may contain gaps; scoring handles arbitrary sets.
    """

    stages: tuple[AttackStage, ...] = ()
    target_service: Optional[str] = None


def make_prediction(stages, target_service: Optional[str] = None) -> StagePrediction:
    return StagePrediction(tuple(sorted(set(stages))), target_service)


@dataclass
class BeliefState:
    """Evidence weights per (service, stage)."""

    weights: dict[tuple[str, AttackStage], float] = field(default_factory=dict)

    def stages_for(self, service: str) -> tuple[AttackStage, ...]:
        return tuple(sorted(s for (svc, s), w in self.weights.items() if svc == service and w > 0))

    def progression_lines(self, limit: int = 12) -> list[str]:
        """Human-readable evidence summary, heaviest first; deterministic."""
        # (-weight, service, stage) tuples sort heaviest first, ties by service, then stage
        entries = sorted([(-w, svc, stage) for (svc, stage), w in self.weights.items() if w > 0])
        return [f"{svc} {STAGE_LABELS[stage]} weight={-neg:g}" for neg, svc, stage in entries[:limit]]


def update_belief(belief: BeliefState, obs: EpochObservation) -> None:
    """Fold one epoch of alerts into the belief; order of alerts is irrelevant."""
    for alert in obs.alerts:
        if alert.stage_hint is None:
            continue
        key = (alert.dest_service, alert.stage_hint)
        belief.weights[key] = belief.weights.get(key, 0.0) + float(alert.severity)


class GroundTruthView(NamedTuple):
    """Snapshot of the simulated attacker, visible only to the oracle baseline."""

    target_service: str
    completed_stages: tuple[AttackStage, ...]
    status: str


# What a cell counts of its policies' degradation, in the order ``run_stats.json`` lists it:
DEGRADATIONS = (
    "fallbacks",  # model turns that fell back to the exposure in force
    "unknown_services",  # service names in model replies that the catalog lacks, dropped
    "unknown_stages",  # stage names in model replies that no stage has, dropped
    "non_boolean_done",  # model replies whose ``done`` is not a JSON boolean, read as not done
    "unlisted_services",  # services a decision exposed outside the catalog, dropped by the clamp
    "over_budget",  # decisions clamped to the budget
)


class CellStats:
    """One cell's model turns, each turn's backend latency, and its degradations counted by kind.

    ``run_cell`` makes one per cell and hands it to every policy the cell
    builds, so cells on different worker threads never count into the same
    object. Counting replaces a log record per event: the cell logs one line.

    It writes each turn to the cell's ``turns_path``, if any, as it counts it,
    so the cell's ``turns`` and ``fallbacks`` come from the same call as its
    lines. The file is created at the first turn and every line is flushed, so
    a crash keeps the turns before it. The owner calls ``close``.
    """

    def __init__(self, turns_path: Optional[Path] = None) -> None:
        self.turns_path = turns_path
        self._turns = None
        self.latencies: list[float] = []
        self.counts = dict.fromkeys(DEGRADATIONS, 0)

    def record_turn(self, latency_s: float, turn) -> None:  # turn: an llm.AgentTurn
        self.latencies.append(latency_s)
        self.counts["fallbacks"] += turn.fallback_used
        if self.turns_path is not None:
            if self._turns is None:
                self._turns = open(self.turns_path, "wb")
            self._turns.write(turn.line())
            self._turns.flush()

    def close(self) -> None:
        # the path goes too: a run holds every cell's stats until it writes run_stats.json
        self.turns_path = None
        if self._turns is not None:
            self._turns.close()
            self._turns = None

    def degraded(self) -> str:
        """The nonzero counts as ``kind=n`` pairs; empty for a cell that never degraded."""
        return ", ".join(f"{kind}={n}" for kind, n in self.counts.items() if n)

    def as_dict(self) -> dict:
        """The turns, the counts, and the p50, p95 and max backend latency in s by nearest rank (None without turns)."""
        latencies = sorted(self.latencies)
        spread = None
        if latencies:
            spread = {"p50": _nearest_rank(latencies, 50), "p95": _nearest_rank(latencies, 95), "max": latencies[-1]}
        return {"turns": len(latencies), **self.counts, "latency_s": spread}


def _nearest_rank(ordered: list[float], pct: int) -> float:
    """The smallest of ``ordered`` with at least ``pct`` percent of the values at or below it."""
    return ordered[-(-pct * len(ordered) // 100) - 1]  # index ceil(pct * n / 100) - 1


class Policy:
    """One defender policy instance: one episode's, or under belief carryover its whole attacker queue's."""

    # the cell's counts, when a cell built the policy; set by ``run_cell``
    stats: Optional[CellStats] = None
    # the evidence of every epoch so far, for a policy that reads it; ``policy_decide`` folds each epoch in
    belief: Optional[BeliefState] = None

    def decide(self, obs: EpochObservation, cfg: HoneynetConfig) -> tuple[ExposureDecision, StagePrediction]:
        raise NotImplementedError


def clamp_decision(
    decision: ExposureDecision, cfg: HoneynetConfig, stats: Optional[CellStats] = None
) -> ExposureDecision:
    """Enforce the exposure budget and catalog membership, keeping priority order; ``stats`` counts what it drops."""
    seen: list[str] = []
    for sid in decision.exposed:
        if sid not in cfg.catalog:
            if stats is not None:
                stats.counts["unlisted_services"] += 1
            continue
        if sid not in seen:
            seen.append(sid)
    if len(seen) > cfg.budget:
        if stats is not None:
            stats.counts["over_budget"] += 1
        seen = seen[: cfg.budget]
    clamped = tuple(seen)
    if clamped == decision.exposed:
        return decision
    return ExposureDecision(clamped, decision.declared_done)


def policy_decide(
    policy: Policy, obs: EpochObservation, cfg: HoneynetConfig
) -> tuple[ExposureDecision, StagePrediction]:
    """Fold this epoch's evidence into the policy's belief, if it keeps one, then ask the policy to act."""
    if policy.belief is not None:
        update_belief(policy.belief, obs)
    decision, prediction = policy.decide(obs, cfg)
    return clamp_decision(decision, cfg, policy.stats), prediction


class OraclePolicy(Policy):
    """Calibration upper bound: reads ground truth instead of telemetry."""

    def __init__(self) -> None:
        self._view: Optional[GroundTruthView] = None

    def observe_ground_truth(self, view: GroundTruthView) -> None:
        self._view = view

    def decide(self, obs, cfg):
        if self._view is None:
            return ExposureDecision(exposed=cfg.catalog.ids[: cfg.budget]), StagePrediction()
        done = self._view.status == COMPLETED
        decision = ExposureDecision((self._view.target_service,), done)
        prediction = make_prediction(self._view.completed_stages, self._view.target_service)
        return decision, prediction


class RandomPolicy(Policy):
    """Uniformly samples a budget-sized exposure set each epoch."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def decide(self, obs, cfg):
        ids = cfg.catalog.sorted_ids
        pick = self._rng.sample(ids, cfg.budget)
        return ExposureDecision(tuple(pick)), StagePrediction()


class StaticPolicy(Policy):
    """Exposes the same fixed set every epoch."""

    def __init__(self, exposed) -> None:
        self._exposed = tuple(exposed)

    def decide(self, obs, cfg):
        return ExposureDecision(self._exposed), StagePrediction()


class ReactivePolicy(Policy):
    """Chases the latest highest-severity alert on an exploitable service.

    Without usable evidence it cycles through the catalog round-robin.
    """

    def __init__(self) -> None:
        self._cursor = 0
        self.belief = BeliefState()

    def _round_robin(self, catalog: AttackGraph) -> str:
        sid = catalog.ids[self._cursor % len(catalog.ids)]
        self._cursor += 1
        return sid

    def decide(self, obs, cfg):
        # clocks are unique within an epoch, so the latest of the highest-severity alerts is one alert
        chased = max(
            (a for a in obs.alerts if a.severity > 1 and cfg.catalog.get(a.dest_service).vulnerable),
            key=attrgetter("severity", "clock"),
            default=None,
        )
        choice = chased.dest_service if chased is not None else self._round_robin(cfg.catalog)

        exposed = [choice]
        while len(exposed) < cfg.budget:
            extra = self._round_robin(cfg.catalog)
            if extra not in exposed:
                exposed.append(extra)
        prediction = make_prediction(self.belief.stages_for(choice), choice)
        return ExposureDecision(tuple(exposed)), prediction

