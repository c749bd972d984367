"""Scripted attacker simulation: stage progression gated on exposure.

One attacker is active per episode. Each epoch it scans whatever is exposed;
if its target service is among the exposed set it attempts to push its
exploitation chain one stage further, with an attempt probability governed by
its persistence model and the number of epochs its target has been hidden
since it first engaged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .catalog import AttackGraph, AttackStage, ServiceSpec, next_stage

DETERMINISTIC = "deterministic"
PROBABILISTIC = "probabilistic"
CONSECUTIVE = "consecutive"
PERSISTENCE_MODES = (DETERMINISTIC, PROBABILISTIC, CONSECUTIVE)

ACTIVE = "active"
ABANDONED = "abandoned"
COMPLETED = "completed"


@dataclass(frozen=True)
class PersistenceModel:
    """How an attacker reacts to gaps in exposure of its target service.

    deterministic: always attempts when the target is exposed.
    probabilistic: attempt probability decays with the gap length, down to a floor.
    consecutive: any gap after first engagement kills the next attempt.
    """

    mode: str = DETERMINISTIC
    decay: float = 0.25
    floor: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in PERSISTENCE_MODES:
            raise ValueError(f"unknown persistence mode {self.mode!r}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError(f"floor must be in [0, 1], got {self.floor}")


def attempt_probability(persistence: PersistenceModel, gap_epochs: int) -> float:
    """Probability that the attacker attempts exploitation after a gap.

    A zero gap always yields probability 1 regardless of mode.
    """
    if gap_epochs < 0:
        raise ValueError(f"gap_epochs must be non-negative, got {gap_epochs}")
    if persistence.mode == DETERMINISTIC:
        return 1.0
    if gap_epochs == 0:
        return 1.0
    if persistence.mode == CONSECUTIVE:
        return 0.0
    return max(persistence.floor, 1.0 - persistence.decay * gap_epochs)


@dataclass(frozen=True)
class AttackerProfile:
    """Static description of one attacker in the queue.

    objective_stage defaults to the target's terminal stage; attackers with an
    intermediate objective stop early. When abandon_on_failure is False a
    failed attempt is skipped instead of ending the episode (sensitivity knob;
    the gap counter is left untouched since the target was exposed).
    """

    target_service: str
    persistence: PersistenceModel = PersistenceModel()
    objective_stage: Optional[AttackStage] = None
    label: str = ""
    abandon_on_failure: bool = True

    def resolved_label(self) -> str:
        return self.label or f"{self.target_service}_attacker"

    def resolve_objective(self, svc: ServiceSpec) -> AttackStage:
        if self.objective_stage is None:
            if svc.terminal_stage is None:
                raise ValueError(f"{svc.id} is not exploitable; cannot target it")
            return svc.terminal_stage
        if self.objective_stage not in svc.supported_stages:
            raise ValueError(f"objective {self.objective_stage.label} not supported by {svc.id}")
        return self.objective_stage


@dataclass
class ScanAction:
    services: tuple[str, ...]
    kind: str = "scan"


@dataclass
class ExploitAction:
    service: str
    stage: AttackStage
    kind: str = "exploit"


AttackerAction = ScanAction | ExploitAction


@dataclass
class AttackerState:
    """Mutable per-episode attacker state.

    current_stage starts at Reconnaissance but counts as completed progress
    only once the attacker has engaged, i.e. seen its target exposed for the
    first time. That first contact both finishes reconnaissance and carries
    the chain to the following stage, so an uninterrupted attacker needs
    exactly one epoch per post-reconnaissance stage.
    """

    service: ServiceSpec
    objective: AttackStage
    rng: random.Random
    current_stage: AttackStage = AttackStage.RECONNAISSANCE
    gap_epochs: int = 0
    engaged: bool = False
    status: str = ACTIVE

    def completed_stages(self) -> tuple[AttackStage, ...]:
        """Stages finished so far, in ordinal order; empty before engagement."""
        if not self.engaged:
            return ()
        return tuple(s for s in self.service.supported_stages if s <= self.current_stage)


def make_attacker_state(profile: AttackerProfile, catalog: AttackGraph, seed: int) -> AttackerState:
    svc = catalog.get(profile.target_service)
    return AttackerState(service=svc, objective=profile.resolve_objective(svc), rng=random.Random(seed))


def attacker_step(
    state: AttackerState, profile: AttackerProfile, exposed: frozenset[str] | set[str]
) -> tuple[AttackerState, list[AttackerAction]]:
    """Advance the attacker by one epoch against the exposed service set."""
    if state.status != ACTIVE:
        raise ValueError(f"attacker is {state.status}; cannot step")

    actions: list[AttackerAction] = [ScanAction(services=tuple(sorted(exposed)))]

    if profile.target_service not in exposed:
        if state.engaged:
            state.gap_epochs += 1
        return state, actions

    p = attempt_probability(profile.persistence, state.gap_epochs)
    if state.rng.random() >= p:
        if profile.abandon_on_failure:
            state.status = ABANDONED
        return state, actions

    advanced = next_stage(state.service, state.current_stage)
    if advanced is None:
        # chain already exhausted below the objective; nothing left to attempt
        return state, actions
    state.current_stage = advanced
    state.gap_epochs = 0
    state.engaged = True
    actions.append(ExploitAction(service=state.service.id, stage=advanced))
    if state.current_stage >= state.objective:
        state.status = COMPLETED
    return state, actions


def is_terminal(state: AttackerState) -> bool:
    return state.status in (COMPLETED, ABANDONED)


def default_attacker_queue(
    catalog: AttackGraph, persistence: PersistenceModel, abandon_on_failure: bool = True
) -> list[AttackerProfile]:
    """One attacker per exploitable service, in catalog order."""
    return [
        AttackerProfile(
            target_service=sid,
            persistence=persistence,
            label=f"{sid}_attacker",
            abandon_on_failure=abandon_on_failure,
        )
        for sid in catalog.vulnerable_ids
    ]
