import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim.attackers import AttackerProfile, PersistenceModel, default_attacker_queue
from honeysim.catalog import ALL_STAGES, AttackGraph, AttackStage, HoneynetConfig, ServiceSpec, deployment_config
from honeysim.engine import (
    OUTCOME_ABANDONED,
    OUTCOME_COMPLETED,
    OUTCOME_DECLARED_DONE,
    OUTCOME_HORIZON,
    RunConfig,
    _checked,
    derive_seed,
    records_from_jsonl,
    records_to_jsonl,
    run_episode,
    run_simulation,
)
from honeysim.llm import LlmPolicy, ScriptedMockBackend
from honeysim.policies import (
    BeliefState,
    CellStats,
    ExposureDecision,
    OraclePolicy,
    Policy,
    RandomPolicy,
    ReactivePolicy,
    StagePrediction,
    StaticPolicy,
    update_belief,
)
from honeysim.telemetry import EpochObservation

FULLY = deployment_config("fully_vulnerable")
SMALL = deployment_config("small_mixed")
DETERMINISTIC = PersistenceModel(mode="deterministic")


def _cfg(honeynet=FULLY, targets=("gitlab",), horizon=20, **kwargs):
    attackers = tuple(AttackerProfile(target_service=t) for t in targets)
    return RunConfig(honeynet=honeynet, attackers=attackers, horizon=horizon, **kwargs)


class DeclareDoneAt(Policy):
    """Exposes a fixed service and declares the chain exhausted at one epoch."""

    name = "declare_done"

    def __init__(self, done_epoch):
        self.done_epoch = done_epoch
        self.calls = 0

    def decide(self, obs, cfg):
        self.calls += 1
        done = obs.epoch >= self.done_epoch
        return ExposureDecision(exposed=("decoy_1",), declared_done=done), StagePrediction()


class TestRunEpisode:
    def test_oracle_completes_gitlab_quickly(self):
        rec = run_episode(_cfg(), _cfg().attackers[0], OraclePolicy(), 0)
        assert rec["outcome"] == OUTCOME_COMPLETED
        assert rec["epochs_used"] == 4
        assert rec["epochs_used"] <= 6

    def test_never_aligned_static_policy_exhausts_horizon(self):
        cfg = _cfg(honeynet=SMALL)
        rec = run_episode(cfg, cfg.attackers[0], StaticPolicy(("decoy_1",)), 0)
        assert rec["outcome"] == OUTCOME_HORIZON
        assert rec["epochs_used"] == cfg.horizon
        assert "RootDataExfil" not in rec["epochs"][-1]["gt_stages"]

    def test_declared_done_terminates_episode(self):
        cfg = _cfg(honeynet=SMALL)
        rec = run_episode(cfg, cfg.attackers[0], DeclareDoneAt(3), 0)
        assert rec["outcome"] == OUTCOME_DECLARED_DONE
        assert rec["epochs_used"] == 3
        assert len(rec["epochs"]) == 3

    def test_consecutive_attacker_abandons_after_gap(self):
        class AlternatingPolicy(Policy):
            name = "alternating"

            def decide(self, obs, cfg):
                expose = ("gitlab",) if obs.epoch != 1 else ()
                return ExposureDecision(exposed=expose), StagePrediction()

        attacker = AttackerProfile(
            target_service="gitlab", persistence=PersistenceModel(mode="consecutive")
        )
        cfg = RunConfig(honeynet=FULLY, attackers=(attacker,), horizon=10)
        rec = run_episode(cfg, attacker, AlternatingPolicy(), 3)
        assert rec["outcome"] == OUTCOME_ABANDONED

    def test_ground_truth_is_monotone(self):
        cfg = _cfg(targets=("apache_struts",))
        rec = run_episode(cfg, cfg.attackers[0], OraclePolicy(), 0)
        previous = set()
        for epoch in rec["epochs"]:
            current = set(epoch["gt_stages"])
            assert previous <= current
            previous = current

    def test_completed_implies_objective_in_final_gt(self):
        for target in ("gitlab", "docker_api", "apache_struts"):
            cfg = _cfg(targets=(target,))
            rec = run_episode(cfg, cfg.attackers[0], OraclePolicy(), 0)
            assert rec["outcome"] == OUTCOME_COMPLETED
            assert rec["objective_stage"] in rec["epochs"][-1]["gt_stages"]

    def test_every_epoch_respects_budget_and_catalog(self):
        cfg = _cfg(honeynet=SMALL, targets=("gitlab", "apache_struts"))
        for rec in run_simulation(cfg, lambda i, s: OraclePolicy(), 0):
            for epoch in rec["epochs"]:
                assert len(epoch["exposed"]) <= SMALL.budget
                assert set(epoch["exposed"]) <= set(SMALL.catalog.ids)
                assert len(epoch["decision"].exposed) <= SMALL.budget

    def test_first_service_bootstrap_overrides_policy(self):
        cfg = _cfg(honeynet=SMALL, bootstrap="first_service")
        rec = run_episode(cfg, cfg.attackers[0], StaticPolicy(("decoy_2",)), 0)
        assert rec["bootstrap_exposed"] == ("gitlab",)
        assert rec["epochs"][0]["exposed"] == ("gitlab",)
        # from epoch 2 on the policy's own decision is in force
        assert rec["epochs"][1]["exposed"] == ("decoy_2",)


class TestRunSimulation:
    def test_queue_of_four_yields_four_records(self):
        queue = default_attacker_queue(FULLY.catalog, DETERMINISTIC)
        cfg = RunConfig(honeynet=FULLY, attackers=tuple(queue), horizon=20)
        records = run_simulation(cfg, lambda i, s: OraclePolicy(), 1)
        assert len(records) == 4
        assert [r["target_service"] for r in records] == ["gitlab", "xdebug", "apache_struts", "docker_api"]

    def test_queue_of_two_yields_two_records(self):
        queue = default_attacker_queue(SMALL.catalog, DETERMINISTIC)
        cfg = RunConfig(honeynet=SMALL, attackers=tuple(queue), horizon=20)
        assert len(run_simulation(cfg, lambda i, s: OraclePolicy(), 1)) == 2

    def test_same_seed_reproduces_identical_records(self):
        queue = default_attacker_queue(FULLY.catalog, PersistenceModel(mode="probabilistic"))
        cfg = RunConfig(honeynet=FULLY, attackers=tuple(queue), horizon=20)
        a = run_simulation(cfg, lambda i, s: OraclePolicy(), 77)
        b = run_simulation(cfg, lambda i, s: OraclePolicy(), 77)
        assert records_to_jsonl(a) == records_to_jsonl(b)

    def test_different_seeds_differ_somewhere(self):
        queue = default_attacker_queue(FULLY.catalog, PersistenceModel(mode="probabilistic"))
        texts = set()
        for seed in range(3):
            cfg = RunConfig(honeynet=FULLY, attackers=tuple(queue), horizon=20)
            texts.add(records_to_jsonl(run_simulation(cfg, lambda i, s: OraclePolicy(), seed)))
        assert len(texts) > 1  # noise injection differs across seeds

    def test_belief_carryover_reuses_policy(self):
        instances = []

        def factory(index, seed):
            policy = OraclePolicy()
            instances.append(policy)
            return policy

        queue = default_attacker_queue(SMALL.catalog, DETERMINISTIC)
        cfg = RunConfig(
            honeynet=SMALL, attackers=tuple(queue), horizon=20, belief_carryover=True
        )
        run_simulation(cfg, factory, 1)
        assert len(instances) == 1


class _RecordingReactive(ReactivePolicy):
    """Reactive, keeping every prediction it makes, the bootstrap's too, which no record logs."""

    def __init__(self):
        super().__init__()
        self.predictions = []

    def decide(self, *args):
        decision, prediction = super().decide(*args)
        self.predictions.append(prediction)
        return decision, prediction


def _evidence(record) -> BeliefState:
    """Every alert of a logged episode, folded into one belief."""
    belief = BeliefState()
    for e in record["epochs"]:
        update_belief(belief, EpochObservation(e["epoch"], e["alerts"], e["exposed"]))
    return belief


@pytest.mark.parametrize("carryover", [True, False], ids=["carryover", "fresh"])
def test_belief_carryover_carries_the_evidence_into_the_next_episode(carryover):
    """The second episode's bootstrap sees the first episode's alerts under carryover, and nothing without it."""
    honeynet = deployment_config("fully_vulnerable", 4)  # every service exposed, so every one is scanned
    attackers = (AttackerProfile(target_service="gitlab"), AttackerProfile(target_service="xdebug"))
    cfg = RunConfig(honeynet=honeynet, attackers=attackers, horizon=6, belief_carryover=carryover)

    turns = []
    stats = CellStats()
    stats.record_turn = lambda latency_s, turn: turns.append(turn)
    expose_all = json.dumps({"expose": list(honeynet.catalog.ids), "stages": []})

    def mock(index, seed):
        policy = LlmPolicy(ScriptedMockBackend([expose_all]))
        policy.stats = stats
        return policy

    first, _ = run_simulation(cfg, mock, 5)
    assert first["outcome"] == OUTCOME_COMPLETED
    bootstraps = [turn.prompt for turn in turns if turn.epoch == 0]
    assert len(bootstraps) == 2 and "no prior evidence" in bootstraps[0]
    progression = "\n".join(_evidence(first).progression_lines(limit=12))
    assert "gitlab InitialAccess weight=" in progression
    if carryover:
        assert "no prior evidence" not in bootstraps[1] and progression in bootstraps[1]
    else:
        assert "no prior evidence" in bootstraps[1] and "gitlab InitialAccess" not in bootstraps[1]

    reactives = []

    def reactive(index, seed):
        reactives.append(_RecordingReactive())
        return reactives[-1]

    first, _ = run_simulation(cfg, reactive, 5)
    assert len(reactives) == (1 if carryover else 2)
    # each episode makes a bootstrap prediction, then one per epoch
    bootstrap = reactives[-1].predictions[len(first["epochs"]) + 1 if carryover else 0]
    if carryover:
        assert bootstrap.stages and bootstrap.stages == _evidence(first).stages_for(bootstrap.target_service)
    else:
        assert bootstrap.stages == ()


class TestSerialization:
    def test_jsonl_round_trip(self):
        cfg = _cfg(targets=("docker_api",))
        records = run_simulation(cfg, lambda i, s: OraclePolicy(), 0)
        text = records_to_jsonl(records)
        restored = records_from_jsonl(text)
        assert "\n".join(json.dumps(r, sort_keys=True) for r in restored) == text
        assert restored[0]["outcome"] == records[0]["outcome"]
        assert restored[0]["epochs"][0]["gt_stages"] == list(records[0]["epochs"][0]["gt_stages"])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec, epoch: [rec],
            lambda rec, epoch: {k: v for k, v in rec.items() if k != "seed"},
            lambda rec, epoch: {**rec, "note": 1},
            lambda rec, epoch: {**rec, "epochs": {"1": epoch}},
            lambda rec, epoch: {**rec, "epochs": [[epoch]]},
            lambda rec, epoch: {**rec, "epochs": [{**epoch, "note": 1}]},
            lambda rec, epoch: {**rec, "epochs": [{**epoch, "prediction": "PrivEsc"}]},
            lambda rec, epoch: {**rec, "epochs": [{**epoch, "gt_stages": {"Reconnaissance": 1}}]},
            lambda rec, epoch: {**rec, "epochs": [{**epoch, "prediction": [["PrivEsc"]]}]},
            lambda rec, epoch: {**rec, "epochs": [{**epoch, "gt_stages": ["Lateral"]}]},
            lambda rec, epoch: {**rec, "epochs": [{**epoch, "gt_stages": ["recon"]}]},
        ],
        ids=[
            "record-a-list",
            "record-key-missing",
            "record-key-extra",
            "epochs-a-mapping",
            "epoch-a-list",
            "epoch-key-extra",
            "stages-a-string",
            "stages-a-mapping",
            "stage-unhashable",
            "stage-unknown",
            "stage-an-alias",
        ],
    )
    def test_a_line_unlike_a_logged_record_is_refused(self, edit):
        """Replay scores only what run logs: exact keys, and stage lists of stage labels."""
        cfg = _cfg()
        rec = run_episode(cfg, cfg.attackers[0], OraclePolicy(), 0)
        line = records_to_jsonl([rec])
        assert records_from_jsonl(line) == [json.loads(line)]
        with pytest.raises((TypeError, ValueError)):
            records_from_jsonl(json.dumps(edit(json.loads(line), json.loads(line)["epochs"][0])))

    def test_alerts_whose_numbers_differ_only_in_type_are_written_apart(self):
        """Cached alert text is keyed by the types of its numbers: 1, 1.0 and True are equal keys."""
        cfg = _cfg()
        rec = run_episode(cfg, cfg.attackers[0], OraclePolicy(), 0)
        alert = rec["epochs"][0]["alerts"][0]
        twins = [
            alert._replace(dest_port=port, severity=severity)
            for port, severity in ((1, 2), (True, 2), (1.0, 2), (1, True), (1, 2.0), (1, 2))
        ]
        rec["epochs"][0]["alerts"] = tuple(twins)
        written = json.dumps(json.loads(records_to_jsonl([rec]))["epochs"][0]["alerts"])
        assert written == json.dumps([{**a._asdict(), "stage_hint": a.stage_hint.label} for a in twins], sort_keys=True)

    def test_records_carry_schema_version(self):
        cfg = _cfg()
        rec = run_episode(cfg, cfg.attackers[0], OraclePolicy(), 0)
        assert rec["schema_version"] == 1


def _reference_records(text: str) -> list[dict]:
    """The decoder before it read lines in place: each line ``str.splitlines`` gives, if not blank."""
    return [_checked(json.loads(line)) for line in text.splitlines() if line.strip()]


def _outcome(decode, text: str):
    try:
        return decode(text)
    except (TypeError, ValueError):
        return "refused"


# lines as run writes them: an oracle's and a random policy's episodes, stage lists full and empty
_LINES = records_to_jsonl(
    [
        *run_simulation(_cfg(SMALL, targets=("gitlab", "apache_struts"), horizon=6), lambda i, s: OraclePolicy(), 0),
        *run_simulation(_cfg(SMALL, targets=("gitlab",), horizon=4), lambda i, s: RandomPolicy(s), 3),
    ]
).split("\n")


def _with_epoch(line: str, **changes) -> str:
    rec = json.loads(line)
    rec["epochs"][0] = {**rec["epochs"][0], **changes}
    return json.dumps(rec, sort_keys=True)


_FAULTS = ["truncated", "split", "data-after", "extra-key", "alias-label"]


def _planted(draw, line: str, fault: str) -> str:
    """``line`` with ``fault`` planted in it; its ending comes from the caller."""
    if fault == "truncated":
        return line[: draw(st.integers(1, len(line) - 1))]
    if fault == "split":
        cut = draw(st.integers(1, len(line) - 1))
        return line[:cut] + draw(st.sampled_from(["\n", "\r\n"])) + line[cut:]
    if fault == "data-after":
        return line + draw(st.sampled_from([" x", "{}", " 1", "\t" + line]))
    if fault == "extra-key":
        rec = json.loads(line)
        return draw(st.sampled_from([json.dumps({**rec, "note": 1}, sort_keys=True), _with_epoch(line, note=1)]))
    alias = draw(st.sampled_from(["recon", "initial_access", "privesc"]))
    return _with_epoch(line, **{draw(st.sampled_from(["gt_stages", "prediction"])): [alias]})


_BLANK_LINES = st.sampled_from(["", " ", "\t", " \t  "])
_PADDING = st.sampled_from(["", " ", "\t "])


@st.composite
def _jsonl_text(draw) -> str:
    """Logged lines between blank or space-only lines, each ended by "\\n" or "\\r\\n"; half with one fault planted."""
    records = draw(st.lists(st.sampled_from(_LINES), max_size=4))
    if records and draw(st.booleans()):
        at = draw(st.integers(0, len(records) - 1))
        records[at] = _planted(draw, records[at], draw(st.sampled_from(_FAULTS)))
    lines = []
    for record in records:
        lines += draw(st.lists(_BLANK_LINES, max_size=2))
        lines.append(draw(_PADDING) + record + draw(_PADDING))
    lines += draw(st.lists(_BLANK_LINES, max_size=2))
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + ending for line, ending in zip(lines, endings))
    return text if draw(st.booleans()) or not text else text[: -len(endings[-1])]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_jsonl_text())
def test_records_from_jsonl_decodes_and_refuses_as_the_line_by_line_reference(text):
    """Decoding in place returns the reference's records, and refuses whatever the reference refuses."""
    assert _outcome(records_from_jsonl, text) == _outcome(_reference_records, text)


# where str.splitlines ends a line and the JSON Lines rule does not; run writes none of them
_SPLITLINES_ONLY = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SEPARATOR_IDS = [f"U+{ord(sep):04X}" for sep in _SPLITLINES_ONLY]


@pytest.mark.parametrize("sep", _SPLITLINES_ONLY, ids=_SEPARATOR_IDS)
def test_two_records_apart_by_a_separator_other_than_newline_are_refused(sep):
    text = f"{_LINES[0]}{sep}{_LINES[1]}\n"
    assert len(_reference_records(text)) == 2
    with pytest.raises(ValueError, match="has data after it"):
        records_from_jsonl(text)


@pytest.mark.parametrize("sep", _SPLITLINES_ONLY, ids=_SEPARATOR_IDS)
def test_a_line_of_a_separator_other_than_newline_is_blank_only_if_it_is_a_carriage_return(sep):
    text = f"{_LINES[0]}\n{sep}\n{_LINES[1]}\n"
    assert len(_reference_records(text)) == 2
    if sep == "\r":
        assert records_from_jsonl(text) == _reference_records(text)
    else:
        with pytest.raises(ValueError):
            records_from_jsonl(text)


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"], ids=["U+0085", "U+2028", "U+2029"])
def test_a_string_may_hold_a_separator_json_allows_unescaped(sep):
    """JSON refuses only control characters below U+0020 in a string; these three end a line for splitlines alone."""
    rec = {**json.loads(_LINES[0]), "attacker_label": f"gitlab{sep}attacker"}
    text = json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"
    assert records_from_jsonl(text) == [rec]
    with pytest.raises(ValueError):
        _reference_records(text)


def test_a_line_nested_too_deep_is_refused_as_malformed():
    with pytest.raises(ValueError, match="nested too deep"):
        records_from_jsonl(f"{_LINES[0]}\n{'[' * 100_000}\n")


def test_invariants_hold_under_random_play():
    """Random exposure, every persistence mode: the core invariants never break."""
    for mode in ("deterministic", "probabilistic", "consecutive"):
        for seed in range(10):
            queue = default_attacker_queue(SMALL.catalog, PersistenceModel(mode=mode))
            cfg = RunConfig(honeynet=SMALL, attackers=tuple(queue), horizon=20)
            for rec in run_simulation(cfg, lambda i, s: RandomPolicy(s), seed):
                assert rec["outcome"] in (
                    OUTCOME_COMPLETED,
                    OUTCOME_ABANDONED,
                    OUTCOME_DECLARED_DONE,
                    OUTCOME_HORIZON,
                )
                assert rec["epochs_used"] <= cfg.horizon
                assert len(rec["epochs"]) == rec["epochs_used"]
                previous = set()
                for epoch in rec["epochs"]:
                    assert len(epoch["exposed"]) <= SMALL.budget
                    assert set(epoch["exposed"]) <= set(SMALL.catalog.ids)
                    assert previous <= set(epoch["gt_stages"])
                    previous = set(epoch["gt_stages"])
                if rec["outcome"] == OUTCOME_COMPLETED:
                    assert rec["objective_stage"] in rec["epochs"][-1]["gt_stages"]


def test_derive_seed_is_stable_and_labelled():
    assert derive_seed(0, "a", "b") == derive_seed(0, "a", "b")
    assert derive_seed(0, "a", "b") != derive_seed(0, "a", "c")
    assert derive_seed(0, "ab") != derive_seed(0, "a", "b")


@pytest.mark.parametrize(
    "honeynet, attacker, message",
    [
        (SMALL, AttackerProfile("xdebug"), "attacker target 'xdebug' not in small_mixed"),
        (SMALL, AttackerProfile("decoy_1"), "decoy_1 is not exploitable; cannot target it"),
        (
            SMALL,
            AttackerProfile("apache_struts", objective_stage=AttackStage.USER_DATA_EXFIL),
            "objective UserDataExfil not supported by apache_struts",
        ),
        (
            HoneynetConfig(AttackGraph((*SMALL.catalog.services, ServiceSpec("redis", "Redis", True, ALL_STAGES[:2])))),
            AttackerProfile("redis"),
            "attacker target 'redis': no signatures for (redis, InitialAccess)",
        ),
        # the label seeds the episode: two attackers of one label would run the same episode twice
        (
            SMALL,
            AttackerProfile("gitlab"),
            "attackers share the label 'gitlab_attacker'; each attacker's label must be unique",
        ),
    ],
    ids=["target-outside", "decoy-target", "objective-outside-chain", "no-signatures", "shared-label"],
)
def test_run_config_refuses_an_attacker_its_honeynet_cannot_run(honeynet, attacker, message):
    """A library-built run config names the attacker fault when it is built, not mid-episode."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(honeynet=honeynet, attackers=(AttackerProfile("gitlab"), attacker))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(honeynet=FULLY, attackers=(), horizon=20)
    with pytest.raises(ValueError):
        _cfg(horizon=0)
    with pytest.raises(ValueError):
        _cfg(bootstrap="warm")
