"""Epoch loop: attacker phase, telemetry, defender phase, termination.

Decision timing: the decision produced after observing epoch t governs the
exposure for epoch t+1. Epoch 1's exposure comes from a bootstrap decision
the policy makes on an empty observation (or from a fixed first-service
bootstrap when configured).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .attackers import (
    ABANDONED,
    COMPLETED,
    AttackerProfile,
    ExploitAction,
    ScanAction,
    attacker_step,
    make_attacker_state,
)
from .catalog import HoneynetConfig
from .policies import BeliefState, ExposureDecision, GroundTruthView, Policy, policy_decide
from .telemetry import (
    IdsAlert,
    NoiseConfig,
    aggregate_epoch,
    attacker_src_ip,
    empty_observation,
    synthesize_alerts,
)

SCHEMA_VERSION = 1

OUTCOME_COMPLETED = "completed"
OUTCOME_ABANDONED = "abandoned"
OUTCOME_DECLARED_DONE = "declared_done"
OUTCOME_HORIZON = "horizon_exhausted"

BOOTSTRAP_POLICY = "policy"
BOOTSTRAP_FIRST_SERVICE = "first_service"


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labelled parts; platform-independent."""
    text = "::".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs, minus the policy object itself."""

    honeynet: HoneynetConfig
    attackers: tuple[AttackerProfile, ...]
    horizon: int = 20
    seed: int = 0
    noise: NoiseConfig = NoiseConfig()
    belief_carryover: bool = False
    bootstrap: str = BOOTSTRAP_POLICY

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not self.attackers:
            raise ValueError("attacker queue must be non-empty")
        if self.bootstrap not in (BOOTSTRAP_POLICY, BOOTSTRAP_FIRST_SERVICE):
            raise ValueError(f"unknown bootstrap mode {self.bootstrap!r}")


@dataclass
class EpochLog:
    epoch: int
    exposed: tuple[str, ...]
    actions: list[dict]
    alerts: list[dict]
    decision: dict
    prediction: tuple[str, ...]
    gt_stages: tuple[str, ...]


@dataclass
class EpisodeRecord:
    attacker_label: str
    target_service: str
    objective_stage: str
    persistence_mode: str
    seed: int
    outcome: str
    epochs_used: int
    bootstrap_exposed: tuple[str, ...]
    epochs: list[EpochLog]
    schema_version: int = SCHEMA_VERSION

    def final_gt_stages(self) -> tuple[str, ...]:
        return self.epochs[-1].gt_stages if self.epochs else ()


def _action_dict(action) -> dict:
    if isinstance(action, ScanAction):
        return {"kind": "scan", "services": list(action.services)}
    if isinstance(action, ExploitAction):
        return {"kind": "exploit", "service": action.service, "stage": action.stage.label}
    raise TypeError(f"unknown action: {action!r}")


def _alert_dict(alert: IdsAlert) -> dict:
    return {
        "epoch": alert.epoch,
        "clock": alert.clock,
        "src": alert.src,
        "dest_service": alert.dest_service,
        "dest_port": alert.dest_port,
        "signature": alert.signature,
        "category": alert.category,
        "severity": alert.severity,
        "stage_hint": alert.stage_hint.label if alert.stage_hint is not None else None,
    }


def _decision_dict(decision) -> dict:
    return {"exposed": list(decision.exposed), "declared_done": decision.declared_done}


def run_episode(
    cfg: RunConfig,
    attacker: AttackerProfile,
    policy: Policy,
    belief: Optional[BeliefState] = None,
) -> EpisodeRecord:
    """Run one attacker against one policy instance until a termination rule fires."""
    label = attacker.resolved_label()
    state = make_attacker_state(attacker, cfg.honeynet.catalog, derive_seed(cfg.seed, label, "attacker"))
    telemetry_rng = random.Random(derive_seed(cfg.seed, label, "telemetry"))
    src = attacker_src_ip(label)
    belief = belief if belief is not None else BeliefState()

    def feed_ground_truth() -> None:
        observer = getattr(policy, "observe_ground_truth", None)
        if observer is not None:
            observer(
                GroundTruthView(
                    target_service=state.service.id,
                    completed_stages=state.completed_stages(),
                    status=state.status,
                )
            )

    feed_ground_truth()
    decision, _, belief = policy_decide(policy, empty_observation(0), belief, cfg.honeynet)
    if cfg.bootstrap == BOOTSTRAP_FIRST_SERVICE:
        decision = ExposureDecision(exposed=cfg.honeynet.catalog.ids[: cfg.honeynet.budget])
    bootstrap_exposed = decision.exposed

    epochs: list[EpochLog] = []
    outcome = OUTCOME_HORIZON
    epochs_used = cfg.horizon
    exposed = decision.exposed

    for epoch in range(1, cfg.horizon + 1):
        state, actions = attacker_step(state, attacker, set(exposed))
        alerts = synthesize_alerts(
            actions, epoch, cfg.noise, telemetry_rng, catalog=cfg.honeynet.catalog, src=src
        )
        obs = aggregate_epoch(alerts, exposed, epoch)

        feed_ground_truth()
        decision, prediction, belief = policy_decide(policy, obs, belief, cfg.honeynet)

        epochs.append(
            EpochLog(
                epoch=epoch,
                exposed=tuple(exposed),
                actions=[_action_dict(a) for a in actions],
                alerts=[_alert_dict(a) for a in obs.alerts],
                decision=_decision_dict(decision),
                prediction=tuple(s.label for s in prediction.stages),
                gt_stages=tuple(s.label for s in state.completed_stages()),
            )
        )

        if state.status == COMPLETED:
            outcome, epochs_used = OUTCOME_COMPLETED, epoch
            break
        if state.status == ABANDONED:
            outcome, epochs_used = OUTCOME_ABANDONED, epoch
            break
        if decision.declared_done:
            outcome, epochs_used = OUTCOME_DECLARED_DONE, epoch
            break
        exposed = decision.exposed

    return EpisodeRecord(
        attacker_label=label,
        target_service=state.service.id,
        objective_stage=state.objective.label,
        persistence_mode=attacker.persistence.mode,
        seed=cfg.seed,
        outcome=outcome,
        epochs_used=epochs_used,
        bootstrap_exposed=bootstrap_exposed,
        epochs=epochs,
    )


PolicyFactory = Callable[[int, int], Policy]


def run_simulation(cfg: RunConfig, policy_factory: PolicyFactory) -> list[EpisodeRecord]:
    """Process the attacker queue sequentially; belief resets between attackers
    unless carryover is enabled."""
    records: list[EpisodeRecord] = []
    policy: Optional[Policy] = None
    belief: Optional[BeliefState] = None
    for index, attacker in enumerate(cfg.attackers):
        if policy is None or not cfg.belief_carryover:
            policy = policy_factory(index, derive_seed(cfg.seed, attacker.resolved_label(), "policy"))
            belief = BeliefState()
        records.append(run_episode(cfg, attacker, policy, belief=belief))
    return records


# ---------------------------------------------------------------------------
# Line-delimited JSON episode logs
# ---------------------------------------------------------------------------


def record_to_dict(rec: EpisodeRecord) -> dict:
    """The record's fields as a JSON-ready dict; it shares its values with ``rec``."""
    return {**vars(rec), "epochs": [vars(e) for e in rec.epochs]}


# JSON has no tuples, so the fields annotated as tuples (annotations are strings
# here, see the __future__ import) get theirs back when a record is read
_TUPLE_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.type.startswith("tuple")) for cls in (EpochLog, EpisodeRecord)
}


def _from_json(cls, data: dict):
    obj = cls(**data)
    for name in _TUPLE_FIELDS[cls]:
        setattr(obj, name, tuple(getattr(obj, name)))
    return obj


def record_from_dict(data: dict) -> EpisodeRecord:
    return _from_json(EpisodeRecord, {**data, "epochs": [_from_json(EpochLog, e) for e in data["epochs"]]})


def records_to_jsonl(records: list[EpisodeRecord]) -> str:
    return "\n".join(json.dumps(record_to_dict(r), sort_keys=True) for r in records)


def records_from_jsonl(text: str) -> list[EpisodeRecord]:
    return [record_from_dict(json.loads(line)) for line in text.splitlines() if line.strip()]
