"""Synthetic IDS alert generation and per-epoch aggregation.

Attacker actions never reach the defender directly; they are rendered into
IDS-style alerts (plus injected false positives), bundled per epoch, and
optionally digested into a bounded text summary.

Severity runs 1 (low, scans and noise) to 3 (high, deep exploitation).

An epoch renders tens of alerts, so this module keeps their cost down: each
alert is an ``IdsAlert`` named tuple, and ``signatures.json`` is read into
one table of ``(signature, category, severity)`` rows once per process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .attackers import AttackerAction, ExploitAction, ScanAction
from .catalog import STAGE_LABELS, AttackGraph, AttackStage, stable_hash
from .settings import Settings

CLOCK_EPOCH_SECONDS = 60


class SignatureCatalogMissError(KeyError):
    """No signature entry exists for the requested (service, stage) pair."""


def attacker_src_ip(label: str) -> str:
    return f"198.51.100.{1 + stable_hash(label) % 254}"


@dataclass(frozen=True)
class NoiseConfig(Settings):
    """Telemetry imperfection knobs; both default on at a low rate. Its fields are the keys of ``noise:``."""

    false_positive_rate: float = 0.1
    hint_corruption_rate: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("false_positive_rate", "hint_corruption_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


class IdsAlert(NamedTuple):
    """One IDS alert; a named tuple, because a run builds tens of thousands of them.

    An episode log writes it as an object of its fields, the stage hint as its label.
    """

    epoch: int
    clock: int
    src: str
    dest_service: str
    dest_port: int
    signature: str
    category: str
    severity: int
    stage_hint: Optional[AttackStage] = None


class EpochObservation(NamedTuple):
    epoch: int
    alerts: tuple[IdsAlert, ...]
    exposed_last: tuple[str, ...]


def empty_observation(epoch: int = 0) -> EpochObservation:
    return EpochObservation(epoch, (), ())


# (signature, category, severity): the fields an alert takes from its signature entry
SignatureRow = tuple[str, str, int]


def _row(entry: dict) -> SignatureRow:
    return entry["signature"], entry["category"], int(entry["severity"])


class SignatureTable(NamedTuple):
    """``signatures.json`` as alert rows; ``signature_rows()`` builds the one table."""

    scan: SignatureRow
    noise: tuple[SignatureRow, ...]
    # the rows of each (service id, stage) with an entry; ``RunConfig`` refuses an attacker that reaches another pair
    exploits: Mapping[tuple[str, AttackStage], tuple[SignatureRow, ...]]


@cache
def signature_rows() -> SignatureTable:
    """The table, built from ``signatures.json`` at the first call; ValueError for a stage key that names no stage."""
    with resources.files("honeysim.data").joinpath("signatures.json").open(encoding="utf-8") as fh:
        sigs = json.load(fh)
    exploits = {
        (service_id, AttackStage.from_label(label)): tuple(map(_row, entries))
        for service_id, stages in sigs["services"].items()
        for label, entries in stages.items()
        if entries
    }
    # every caller shares the table, so none may change it
    return SignatureTable(_row(sigs["scan"]), tuple(map(_row, sigs["noise"])), MappingProxyType(exploits))


def _corrupt_hint(stage: AttackStage, rng: random.Random) -> AttackStage:
    # shift to an adjacent stage, clamped to the valid ordinal range
    step = rng.choice((-1, 1))
    return AttackStage(min(max(stage.value + step, 0), len(AttackStage) - 1))


def synthesize_alerts(
    actions: Sequence[AttackerAction],
    epoch: int,
    noise: NoiseConfig,
    rng: random.Random,
    *,
    catalog: AttackGraph,
    src: str = "198.51.100.7",
) -> list[IdsAlert]:
    """Render one epoch of attacker actions into alerts plus injected noise.

    Scan actions yield one low-severity alert per scanned service. Exploit
    actions yield every catalog signature for their (service, stage); the
    first keeps the true stage hint, later ones may have it corrupted. False
    positives are drawn per catalog service at the configured rate. The
    alerts come in clock order, the clock rising by 1 from ``epoch *
    CLOCK_EPOCH_SECONDS``; a service outside ``catalog`` raises KeyError.
    """
    rows = signature_rows()
    ports = catalog.ports
    alerts: list[IdsAlert] = []
    clock = epoch * CLOCK_EPOCH_SECONDS
    recon = AttackStage.RECONNAISSANCE

    for action in actions:
        if isinstance(action, ScanAction):
            signature, category, severity = rows.scan
            for dest in action.services:
                alerts.append(IdsAlert(epoch, clock, src, dest, ports[dest], signature, category, severity, recon))
                clock += 1
        elif isinstance(action, ExploitAction):
            dest, stage = action.service, action.stage
            entries = rows.exploits.get((dest, stage))
            if entries is None:
                raise SignatureCatalogMissError(f"no signatures for ({dest}, {STAGE_LABELS[stage]})")
            for idx, (signature, category, severity) in enumerate(entries):
                hint = stage
                if idx > 0 and rng.random() < noise.hint_corruption_rate:
                    hint = _corrupt_hint(stage, rng)
                alerts.append(IdsAlert(epoch, clock, src, dest, ports[dest], signature, category, severity, hint))
                clock += 1
        else:
            raise TypeError(f"unknown action type: {action!r}")

    if noise.false_positive_rate > 0:
        for dest in catalog.ids:
            if rng.random() < noise.false_positive_rate:
                signature, category, severity = rng.choice(rows.noise)
                alerts.append(IdsAlert(epoch, clock, src, dest, ports[dest], signature, category, severity, recon))
                clock += 1

    return alerts


def aggregate_epoch(alerts: Sequence[IdsAlert], exposed: tuple[str, ...], epoch: int) -> EpochObservation:
    """Bundle an epoch's alerts as given (``synthesize_alerts`` makes them in clock order) with the exposure in force.

    The exposure keeps the order it was decided in: a failed turn repeats it.
    """
    return EpochObservation(epoch, tuple(alerts), exposed)


NO_ALERTS_DIGEST = "no alerts observed this epoch"


def summarize_for_prompt(obs: EpochObservation, budget_chars: int) -> str:
    """Deterministic digest grouping alerts by (service, signature).

    Groups are ordered by severity, then count; when the budget is tight the
    lowest-severity groups are dropped first so exploitation evidence survives.
    """
    if budget_chars <= 0:
        raise ValueError(f"budget_chars must be positive, got {budget_chars}")
    if not obs.alerts:
        return NO_ALERTS_DIGEST[:budget_chars]

    # (service, signature) -> [count, highest severity, stage hints]
    groups: dict[tuple[str, str], list] = {}
    for alert in obs.alerts:
        key = (alert.dest_service, alert.signature)
        group = groups.get(key)
        if group is None:
            group = groups[key] = [0, 0, set()]
        group[0] += 1
        if alert.severity > group[1]:
            group[1] = alert.severity
        if alert.stage_hint is not None:
            group[2].add(alert.stage_hint)

    # (-severity, -count, service, signature) tuples sort in the digest's order
    ordered = sorted([(-severity, -count, *key) for key, (count, severity, _) in groups.items()])

    lines = []
    for neg_severity, neg_count, service, signature in ordered:
        hints = "/".join([STAGE_LABELS[s] for s in sorted(groups[service, signature][2])]) or "-"
        lines.append(f'{service}: "{signature}" x{-neg_count} sev={-neg_severity} stage={hints}')

    kept: list[str] = []
    used = 0
    for line in lines:
        extra = len(line) + (1 if kept else 0)
        if used + extra > budget_chars:
            break
        kept.append(line)
        used += extra
    if not kept:
        return lines[0][:budget_chars]
    return "\n".join(kept)
