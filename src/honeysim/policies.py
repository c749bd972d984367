"""Defender side: exposure decisions, stage predictions, belief tracking.

A policy turns one epoch's observation (plus accumulated belief) into the
exposure set for the next epoch and a prediction of how far the attack has
progressed. Deterministic baselines live here; the model-backed policy is in
``honeysim.llm``. Whatever a policy returns, ``policy_decide`` enforces the
exposure budget.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Optional

from .catalog import AttackGraph, AttackStage, HoneynetConfig
from .telemetry import EpochObservation
from .telemetry import summarize_for_prompt  # noqa: F401  kept: perfbench/tracer.py patches this name

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExposureDecision:
    """Services to expose next epoch, in priority order, plus a stop signal."""

    exposed: tuple[str, ...]
    declared_done: bool = False


@dataclass(frozen=True)
class StagePrediction:
    """Stages the policy believes the attacker has completed so far.

    The set may contain gaps; scoring handles arbitrary sets.
    """

    stages: tuple[AttackStage, ...] = ()
    target_service: Optional[str] = None


def make_prediction(stages, target_service: Optional[str] = None) -> StagePrediction:
    return StagePrediction(stages=tuple(sorted(set(stages))), target_service=target_service)


@dataclass
class BeliefState:
    """Evidence weights per (service, stage)."""

    weights: dict[tuple[str, AttackStage], float] = field(default_factory=dict)

    def weight(self, service: str, stage: AttackStage) -> float:
        return self.weights.get((service, stage), 0.0)

    def stages_for(self, service: str) -> tuple[AttackStage, ...]:
        return tuple(sorted(s for (svc, s), w in self.weights.items() if svc == service and w > 0))

    def progression_lines(self, limit: int = 12) -> list[str]:
        """Human-readable evidence summary, heaviest first; deterministic."""
        entries = sorted(self.weights.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        return [f"{svc} {stage.label} weight={w:g}" for (svc, stage), w in entries[:limit] if w > 0]


def update_belief(belief: BeliefState, obs: EpochObservation) -> BeliefState:
    """Fold one epoch of alerts into the belief; order of alerts is irrelevant."""
    for alert in obs.alerts:
        if alert.stage_hint is None:
            continue
        key = (alert.dest_service, alert.stage_hint)
        belief.weights[key] = belief.weights.get(key, 0.0) + float(alert.severity)
    return belief


@dataclass(frozen=True)
class GroundTruthView:
    """Snapshot of the simulated attacker, visible only to the oracle baseline."""

    target_service: str
    completed_stages: tuple[AttackStage, ...]
    status: str


class Policy:
    """One defender policy instance, owned by a single episode."""

    name = "base"

    def decide(
        self, obs: EpochObservation, belief: BeliefState, cfg: HoneynetConfig
    ) -> tuple[ExposureDecision, StagePrediction]:
        raise NotImplementedError


def clamp_decision(decision: ExposureDecision, cfg: HoneynetConfig, policy_name: str) -> ExposureDecision:
    """Enforce the exposure budget and catalog membership, keeping priority order."""
    seen: list[str] = []
    for sid in decision.exposed:
        if sid not in cfg.catalog:
            logger.warning("policy %s exposed unknown service %r; dropped", policy_name, sid)
            continue
        if sid not in seen:
            seen.append(sid)
    if len(seen) > cfg.budget:
        logger.warning(
            "policy %s exceeded budget (%d > %d); clamped to highest-priority services",
            policy_name,
            len(seen),
            cfg.budget,
        )
        seen = seen[: cfg.budget]
    clamped = tuple(seen)
    if clamped == decision.exposed:
        return decision
    return ExposureDecision(exposed=clamped, declared_done=decision.declared_done)


def policy_decide(
    policy: Policy, obs: EpochObservation, belief: BeliefState, cfg: HoneynetConfig
) -> tuple[ExposureDecision, StagePrediction, BeliefState]:
    """Update belief with this epoch's evidence, then ask the policy to act."""
    belief = update_belief(belief, obs)
    decision, prediction = policy.decide(obs, belief, cfg)
    return clamp_decision(decision, cfg, policy.name), prediction, belief


class OraclePolicy(Policy):
    """Calibration upper bound: reads ground truth instead of telemetry."""

    name = "oracle"

    def __init__(self) -> None:
        self._view: Optional[GroundTruthView] = None

    def observe_ground_truth(self, view: GroundTruthView) -> None:
        self._view = view

    def decide(self, obs, belief, cfg):
        if self._view is None:
            return ExposureDecision(exposed=cfg.catalog.ids[: cfg.budget]), make_prediction(())
        done = self._view.status == "completed"
        decision = ExposureDecision(exposed=(self._view.target_service,), declared_done=done)
        prediction = make_prediction(self._view.completed_stages, self._view.target_service)
        return decision, prediction


class RandomPolicy(Policy):
    """Uniformly samples a budget-sized exposure set each epoch."""

    name = "random"

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def decide(self, obs, belief, cfg):
        ids = sorted(cfg.catalog.ids)
        pick = self._rng.sample(ids, min(cfg.budget, len(ids)))
        return ExposureDecision(exposed=tuple(pick)), make_prediction(())


class StaticPolicy(Policy):
    """Exposes the same fixed set every epoch."""

    name = "static"

    def __init__(self, exposed) -> None:
        self._exposed = tuple(exposed)

    def decide(self, obs, belief, cfg):
        return ExposureDecision(exposed=self._exposed), make_prediction(())


class ReactivePolicy(Policy):
    """Chases the latest highest-severity alert on an exploitable service.

    Without usable evidence it cycles through the catalog round-robin.
    """

    name = "reactive"

    def __init__(self) -> None:
        self._cursor = 0

    def _round_robin(self, catalog: AttackGraph) -> str:
        sid = catalog.ids[self._cursor % len(catalog.ids)]
        self._cursor += 1
        return sid

    def decide(self, obs, belief, cfg):
        choice: Optional[str] = None
        for alert in sorted(obs.alerts, key=lambda a: (-a.severity, -a.clock)):
            svc = cfg.catalog.get(alert.dest_service)
            if svc.vulnerable and alert.severity > 1:
                choice = alert.dest_service
                break
        if choice is None:
            choice = self._round_robin(cfg.catalog)

        exposed = [choice]
        while len(exposed) < cfg.budget:
            extra = self._round_robin(cfg.catalog)
            if extra not in exposed:
                exposed.append(extra)
        prediction = make_prediction(belief.stages_for(choice), choice)
        return ExposureDecision(exposed=tuple(exposed)), prediction

