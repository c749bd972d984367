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
from typing import Callable, Iterable, NamedTuple, Optional

from .attackers import (
    ABANDONED,
    COMPLETED,
    AttackerProfile,
    ExploitAction,
    ScanAction,
    attacker_step,
    make_attacker_state,
)
from .catalog import STAGE_LABELS, HoneynetConfig
from .policies import BeliefState, ExposureDecision, GroundTruthView, Policy, policy_decide
from .telemetry import (
    NoiseConfig,
    aggregate_epoch,
    alert_dict,
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


# An episode log line is encoded without sorting its keys, so every mapping it
# holds is built with its keys in sorted order: the fields of ``EpochLog`` and
# ``EpisodeRecord`` are declared in that order, and so are the keys of each
# action, decision and alert (``alert_dict``).


class EpochLog(NamedTuple):
    actions: list[dict]
    alerts: list[dict]
    decision: dict
    epoch: int
    exposed: tuple[str, ...]
    gt_stages: tuple[str, ...]
    prediction: tuple[str, ...]


@dataclass(kw_only=True)
class EpisodeRecord:
    attacker_label: str
    bootstrap_exposed: tuple[str, ...]
    epochs: list[EpochLog]
    epochs_used: int
    objective_stage: str
    outcome: str
    persistence_mode: str
    schema_version: int = SCHEMA_VERSION
    seed: int
    target_service: str


def _action_dict(action) -> dict:
    if isinstance(action, ScanAction):
        return {"kind": "scan", "services": list(action.services)}
    if isinstance(action, ExploitAction):
        return {"kind": "exploit", "service": action.service, "stage": STAGE_LABELS[action.stage]}
    raise TypeError(f"unknown action: {action!r}")


def _decision_dict(decision) -> dict:
    return {"declared_done": decision.declared_done, "exposed": list(decision.exposed)}


def run_episode(
    cfg: RunConfig,
    attacker: AttackerProfile,
    policy: Policy,
    belief: Optional[BeliefState] = None,
) -> EpisodeRecord:
    """Run one attacker against one policy instance until a termination rule fires."""
    honeynet, noise = cfg.honeynet, cfg.noise
    catalog = honeynet.catalog
    label = attacker.resolved_label()
    state = make_attacker_state(attacker, catalog, derive_seed(cfg.seed, label, "attacker"))
    telemetry_rng = random.Random(derive_seed(cfg.seed, label, "telemetry"))
    src = attacker_src_ip(label)
    belief = belief if belief is not None else BeliefState()

    # only a policy that observes ground truth (the oracle) gets a view of the attacker
    observer = getattr(policy, "observe_ground_truth", None)
    completed = state.completed_stages()
    if observer is not None:
        observer(GroundTruthView(state.service.id, completed, state.status))
    decision, _, belief = policy_decide(policy, empty_observation(0), belief, honeynet)
    if cfg.bootstrap == BOOTSTRAP_FIRST_SERVICE:
        decision = ExposureDecision(catalog.ids[: honeynet.budget])
    bootstrap_exposed = decision.exposed

    epochs: list[EpochLog] = []
    outcome = OUTCOME_HORIZON
    epochs_used = cfg.horizon
    exposed = decision.exposed

    for epoch in range(1, cfg.horizon + 1):
        state, actions = attacker_step(state, attacker, set(exposed))
        alerts = synthesize_alerts(actions, epoch, noise, telemetry_rng, catalog=catalog, src=src)
        obs = aggregate_epoch(alerts, exposed, epoch)
        completed = state.completed_stages()

        if observer is not None:
            observer(GroundTruthView(state.service.id, completed, state.status))
        decision, prediction, belief = policy_decide(policy, obs, belief, honeynet)

        epochs.append(
            EpochLog(
                actions=[_action_dict(a) for a in actions],
                alerts=list(map(alert_dict, obs.alerts)),
                decision=_decision_dict(decision),
                epoch=epoch,
                exposed=tuple(exposed),
                gt_stages=tuple([STAGE_LABELS[s] for s in completed]),
                prediction=tuple([STAGE_LABELS[s] for s in prediction.stages]),
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
        bootstrap_exposed=bootstrap_exposed,
        epochs=epochs,
        epochs_used=epochs_used,
        objective_stage=STAGE_LABELS[state.objective],
        outcome=outcome,
        persistence_mode=attacker.persistence.mode,
        seed=cfg.seed,
        target_service=state.service.id,
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
    """The record as it is logged: one line of ``episodes.jsonl`` before encoding.

    It shares its values with ``rec``. Metrics read records in this form, so
    ``run`` scores what it logs and ``replay`` scores what it reads.
    """
    return {**vars(rec), "epochs": [e._asdict() for e in rec.epochs]}


# records are built with their keys in sorted order, which fixes the bytes of a
# line without sort_keys; they hold no cycles to check for
_ENCODER = json.JSONEncoder(check_circular=False)
_RECORD_KEYS = frozenset(f.name for f in fields(EpisodeRecord))
_EPOCH_KEYS = frozenset(EpochLog._fields)
_LABELS = frozenset(STAGE_LABELS)


def records_to_jsonl(records: Iterable[dict]) -> str:
    """Encode logged records (``record_to_dict``), one per line."""
    return "\n".join(map(_ENCODER.encode, records))


def _checked(record) -> dict:
    """``record`` when it has the shape ``record_to_dict`` gives; ValueError otherwise.

    Keys are checked on the record and on each epoch, and the stage lists
    (``prediction``, ``gt_stages``) must hold stage labels, since scoring reads
    them. Other values are not checked, because nothing reads them on replay.
    """
    if type(record) is not dict or record.keys() != _RECORD_KEYS:
        raise ValueError("a record must be an object with exactly the keys of an episode record")
    epochs = record["epochs"]
    if type(epochs) is not list:
        raise ValueError(f"'epochs' must be a list, got {epochs!r}")
    for epoch in epochs:
        if type(epoch) is not dict or epoch.keys() != _EPOCH_KEYS:
            raise ValueError("an epoch must be an object with exactly the keys of an epoch log")
        prediction, gt_stages = epoch["prediction"], epoch["gt_stages"]
        if type(prediction) is not list or type(gt_stages) is not list:
            raise ValueError(f"stage lists must be lists, got {prediction!r} and {gt_stages!r}")
        if not _LABELS.issuperset(prediction + gt_stages):  # TypeError for an unhashable label
            raise ValueError(f"stage lists must hold stage labels, got {prediction!r} and {gt_stages!r}")
    return record


def records_from_jsonl(text: str) -> list[dict]:
    """Decode each non-blank line into a logged record; ValueError or TypeError on a malformed one."""
    return [_checked(json.loads(line)) for line in text.splitlines() if line.strip()]
