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
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .attackers import (
    ABANDONED,
    COMPLETED,
    AttackerAction,
    AttackerProfile,
    ExploitAction,
    ScanAction,
    attacker_step,
    make_attacker_state,
)
from .catalog import STAGE_LABELS, AttackStage, HoneynetConfig
from .policies import ExposureDecision, GroundTruthView, Policy, policy_decide
from .telemetry import (
    IdsAlert,
    NoiseConfig,
    aggregate_epoch,
    attacker_src_ip,
    empty_observation,
    signature_rows,
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
    """The checked environment of a run, without its policy and its seed; every attacker can run on the honeynet."""

    honeynet: HoneynetConfig
    attackers: tuple[AttackerProfile, ...]
    horizon: int = 20
    noise: NoiseConfig = NoiseConfig()
    belief_carryover: bool = False
    bootstrap: str = BOOTSTRAP_POLICY

    def __post_init__(self) -> None:
        catalog, exploits = self.honeynet.catalog, signature_rows().exploits
        labels = [attacker.resolved_label() for attacker in self.attackers]
        for label in labels:
            if labels.count(label) > 1:  # the label seeds the episode, so two attackers of one label run alike
                raise ValueError(f"attackers share the label {label!r}; each attacker's label must be unique")
        for attacker in self.attackers:
            if attacker.target_service not in catalog:
                raise ValueError(f"attacker target {attacker.target_service!r} not in {self.honeynet.deployment_name}")
            svc = catalog.get(attacker.target_service)
            objective = attacker.resolve_objective(svc)
            # every exploit on the way to the objective must render as alerts
            for stage in svc.supported_stages:
                if AttackStage.RECONNAISSANCE < stage <= objective and (svc.id, stage) not in exploits:
                    raise ValueError(f"attacker target {svc.id!r}: no signatures for ({svc.id}, {STAGE_LABELS[stage]})")
        self.check_horizon(self.horizon)
        if not self.attackers:
            raise ValueError("attacker queue must be non-empty")
        self.check_bootstrap(self.bootstrap)

    # the run matrix refuses its own horizon and bootstrap with these two, once, as it is built
    @staticmethod
    def check_horizon(horizon: int) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")

    @staticmethod
    def check_bootstrap(bootstrap: str) -> None:
        if bootstrap not in (BOOTSTRAP_POLICY, BOOTSTRAP_FIRST_SERVICE):
            raise ValueError(f"unknown bootstrap mode {bootstrap!r}")


# each stage tuple's labels; completed and predicted stages are subsets of the five stages
_LABELS_OF: dict[tuple, tuple[str, ...]] = {}


def _labels(stages: tuple) -> tuple[str, ...]:
    labels = _LABELS_OF.get(stages)
    if labels is None:
        labels = _LABELS_OF[stages] = tuple([STAGE_LABELS[s] for s in stages])
    return labels


def run_episode(cfg: RunConfig, attacker: AttackerProfile, policy: Policy, seed: int) -> dict:
    """Run one attacker against one policy instance until a termination rule fires; ``seed`` is the record's seed.

    The record is the mapping its ``episodes.jsonl`` line encodes, each epoch
    one too, with the keys in the sorted order the line writes them. It keeps
    the loop's values: actions, alerts and the decision stay named tuples, and
    the stage lists are label tuples. ``records_to_jsonl`` writes this form and
    metrics score it, as they score the decoded form ``replay`` reads.
    """
    honeynet, noise = cfg.honeynet, cfg.noise
    catalog = honeynet.catalog
    label = attacker.resolved_label()
    state = make_attacker_state(attacker, catalog, derive_seed(seed, label, "attacker"))
    telemetry_rng = random.Random(derive_seed(seed, label, "telemetry"))
    src = attacker_src_ip(label)

    # only a policy that observes ground truth (the oracle) gets a view of the attacker
    observer = getattr(policy, "observe_ground_truth", None)
    completed = state.completed_stages()
    if observer is not None:
        observer(GroundTruthView(state.service.id, completed, state.status))
    decision, _ = policy_decide(policy, empty_observation(0), honeynet)
    if cfg.bootstrap == BOOTSTRAP_FIRST_SERVICE:
        decision = ExposureDecision(catalog.ids[: honeynet.budget])
    bootstrap_exposed = decision.exposed

    epochs: list[dict] = []
    outcome = OUTCOME_HORIZON
    epochs_used = cfg.horizon
    exposed = decision.exposed

    for epoch in range(1, cfg.horizon + 1):
        actions = attacker_step(state, attacker, exposed)
        alerts = synthesize_alerts(actions, epoch, noise, telemetry_rng, catalog=catalog, src=src)
        obs = aggregate_epoch(alerts, exposed, epoch)
        completed = state.completed_stages()

        if observer is not None:
            observer(GroundTruthView(state.service.id, completed, state.status))
        decision, prediction = policy_decide(policy, obs, honeynet)

        epochs.append({
            "actions": actions,
            "alerts": obs.alerts,
            "decision": decision,
            "epoch": epoch,
            "exposed": exposed,
            "gt_stages": _labels(completed),
            "prediction": _labels(prediction.stages),
        })

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

    return {
        "attacker_label": label,
        "bootstrap_exposed": bootstrap_exposed,
        "epochs": epochs,
        "epochs_used": epochs_used,
        "objective_stage": STAGE_LABELS[state.objective],
        "outcome": outcome,
        "persistence_mode": attacker.persistence.mode,
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "target_service": state.service.id,
    }


PolicyFactory = Callable[[int, int], Policy]


def run_simulation(cfg: RunConfig, policy_factory: PolicyFactory, seed: int) -> list[dict]:
    """Process the attacker queue sequentially at ``seed``, each attacker against a new policy, unless
    ``belief_carryover`` keeps the first policy, and with it what it has inferred, for them all."""
    records: list[dict] = []
    policy: Optional[Policy] = None
    for index, attacker in enumerate(cfg.attackers):
        if policy is None or not cfg.belief_carryover:
            policy = policy_factory(index, derive_seed(seed, attacker.resolved_label(), "policy"))
        records.append(run_episode(cfg, attacker, policy, seed))
    return records


# ---------------------------------------------------------------------------
# Line-delimited JSON episode logs
# ---------------------------------------------------------------------------

# A line is assembled from the values ``run_episode`` keeps with the bytes of
# ``json.dumps(line, sort_keys=True)``, where ``line`` is the record's JSON form.
# Only fragments bounded by the catalog are cached: an alert's text around its
# clock and epoch, and a stage list's text. Each is a function of its key alone,
# so every caller and thread may share them. Exposure-dependent text is built on
# each call, since its distinct values grow with the budget.

_quote = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it; TypeError for any other value
_encode = json.JSONEncoder(sort_keys=True).encode
_ALERT_CACHE_LIMIT = 4096
# the text of an alert before its clock, between its clock and its epoch, and after its epoch, keyed by
# its other fields and the types of its numbers: 1, 1.0 and True are equal keys that encode differently
_ALERT_PARTS: dict[tuple, tuple[str, str, str]] = {}
_STAGE_LIST_TEXT: dict[tuple, str] = {}


def _strings(items) -> str:
    return "[" + ", ".join(map(_quote, items)) + "]"


def _alert_parts(key: tuple) -> tuple[str, str, str]:
    src, dest_service, dest_port, signature, category, severity, hint = key[:7]
    if len(_ALERT_PARTS) >= _ALERT_CACHE_LIMIT:
        _ALERT_PARTS.clear()
    parts = _ALERT_PARTS[key] = (
        f'{{"category": {_encode(category)}, "clock": ',
        f', "dest_port": {_encode(dest_port)}, "dest_service": {_encode(dest_service)}, "epoch": ',
        f', "severity": {_encode(severity)}, "signature": {_encode(signature)}, "src": {_encode(src)}, '
        f'"stage_hint": {_encode(None if hint is None else STAGE_LABELS[hint])}}}',
    )
    return parts


def _alerts_text(alerts: Iterable[IdsAlert]) -> str:
    texts = []
    for alert in alerts:
        key = alert[2:] + (type(alert[4]), type(alert[7]))  # (src, ..., stage_hint, port type, severity type)
        parts = _ALERT_PARTS.get(key) or _alert_parts(key)
        texts.append(f"{parts[0]}{alert[1]}{parts[1]}{alert[0]}{parts[2]}")
    return "[" + ", ".join(texts) + "]"


def _action_text(action: AttackerAction) -> str:
    if type(action) is ScanAction:
        return f'{{"kind": "scan", "services": {_strings(action.services)}}}'
    if type(action) is ExploitAction:
        return f'{{"kind": "exploit", "service": {_quote(action.service)}, "stage": "{STAGE_LABELS[action.stage]}"}}'
    raise TypeError(f"unknown action: {action!r}")


def _stage_list(labels: tuple[str, ...]) -> str:
    text = _STAGE_LIST_TEXT.get(labels)
    if text is None:
        text = _STAGE_LIST_TEXT[labels] = _strings(labels)
    return text


def _scalar(value) -> str:
    """``value`` as json.dumps writes it; the str, int and bool the engine gives skip the encoder."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is bool:
        return "true" if value else "false"
    return int.__repr__(value) if kind is int else _encode(value)


def _epoch_text(e: dict) -> str:
    decision = e["decision"]
    return (
        f'{{"actions": [{", ".join(map(_action_text, e["actions"]))}], "alerts": {_alerts_text(e["alerts"])}, '
        f'"decision": {{"declared_done": {_scalar(decision.declared_done)}, "exposed": {_strings(decision.exposed)}}}, '
        f'"epoch": {e["epoch"]}, "exposed": {_strings(e["exposed"])}, '
        f'"gt_stages": {_stage_list(e["gt_stages"])}, "prediction": {_stage_list(e["prediction"])}}}'
    )


def _record_line(rec: dict) -> str:
    return (
        f'{{"attacker_label": {_scalar(rec["attacker_label"])}, '
        f'"bootstrap_exposed": {_strings(rec["bootstrap_exposed"])}, '
        f'"epochs": [{", ".join(map(_epoch_text, rec["epochs"]))}], "epochs_used": {_scalar(rec["epochs_used"])}, '
        f'"objective_stage": {_scalar(rec["objective_stage"])}, "outcome": {_scalar(rec["outcome"])}, '
        f'"persistence_mode": {_scalar(rec["persistence_mode"])}, "schema_version": {_scalar(rec["schema_version"])}, '
        f'"seed": {_scalar(rec["seed"])}, "target_service": {_scalar(rec["target_service"])}}}'
    )


def records_to_jsonl(records: Iterable[dict]) -> str:
    """Write records as ``run_episode`` builds them, one line each.

    Each line has the bytes of ``json.dumps(line, sort_keys=True)`` for the
    record's JSON form. Epoch numbers and alert clocks are written as ints,
    which the epoch loop makes them; exposed and scanned services and a
    record's exposure are lists of strings.
    """
    return "\n".join(map(_record_line, records))


_RECORD_KEYS = frozenset({
    "attacker_label", "bootstrap_exposed", "epochs", "epochs_used", "objective_stage",
    "outcome", "persistence_mode", "schema_version", "seed", "target_service",
})
_EPOCH_KEYS = frozenset({"actions", "alerts", "decision", "epoch", "exposed", "gt_stages", "prediction"})
_LABELS = frozenset(STAGE_LABELS)


def _checked(record) -> dict:
    """``record`` when it has the shape of a logged record's JSON form; ValueError otherwise.

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
        if not (_LABELS.issuperset(prediction) and _LABELS.issuperset(gt_stages)):  # TypeError if unhashable
            raise ValueError(f"stage lists must hold stage labels, got {prediction!r} and {gt_stages!r}")
    return record


_decode = json.JSONDecoder().raw_decode
# the blanks a line may hold around its record, or alone: the JSON whitespace that does not end a line
_blanks = re.compile(r"[ \t\r]*").match


def records_from_jsonl(text: str) -> list[dict]:
    """Decode each line of ``text`` that is not blank into a logged record; ValueError or TypeError on a malformed one.

    A line ends at ``\\n``. A line holding only spaces, tabs or ``\\r`` is
    blank; any other holds exactly one record, with those blanks around it. A
    record that runs past its line's end, or has data after it, is malformed,
    and so is one nested too deep to decode. Each record is decoded in place,
    at its offset in ``text``, so no line is copied.
    """
    records = []
    start, size = 0, len(text)
    try:
        while start < size:
            end = text.find("\n", start)
            if end < 0:
                end = size
            at = _blanks(text, start, end).end()
            if at < end:
                record, at = _decode(text, at)
                if at > end:
                    raise ValueError(f"the record at offset {start} runs past the end of its line")
                if _blanks(text, at, end).end() != end:
                    raise ValueError(f"the record at offset {start} has data after it on its line")
                records.append(_checked(record))
            start = end + 1
    except RecursionError:
        raise ValueError("a record is nested too deep to decode") from None
    return records
