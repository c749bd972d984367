import json
import random
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim.attackers import ExploitAction, ScanAction
from honeysim import telemetry
from honeysim.catalog import DEPLOYMENT_NAMES, STAGE_LABELS, AttackStage, deployment_config, service_port
from honeysim.telemetry import (
    CLOCK_EPOCH_SECONDS,
    NO_ALERTS_DIGEST,
    EpochObservation,
    NoiseConfig,
    SignatureCatalogMissError,
    aggregate_epoch,
    empty_observation,
    summarize_for_prompt,
    synthesize_alerts,
)

SIGNATURES_JSON = Path(__file__).parent.parent / "src" / "honeysim" / "data" / "signatures.json"
SIGNATURES = json.loads(SIGNATURES_JSON.read_text(encoding="utf-8"))

QUIET = NoiseConfig(false_positive_rate=0.0, hint_corruption_rate=0.0)
CATALOG = deployment_config("small_mixed").catalog


def _synth(actions, epoch=1, noise=QUIET, seed=0):
    return synthesize_alerts(actions, epoch, noise, random.Random(seed), catalog=CATALOG)


class TestSynthesizeAlerts:
    def test_scan_yields_one_alert_per_exposed_service(self):
        alerts = _synth([ScanAction(services=("decoy_1", "gitlab"))])
        assert len(alerts) == 2
        assert {a.dest_service for a in alerts} == {"decoy_1", "gitlab"}
        assert all(a.stage_hint == AttackStage.RECONNAISSANCE for a in alerts)
        assert all(a.severity == 1 for a in alerts)

    def test_exploit_uses_signature_catalog_entries(self):
        alerts = _synth([ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS)])
        expected = [e["signature"] for e in SIGNATURES["services"]["gitlab"]["InitialAccess"]]
        assert [a.signature for a in alerts] == expected
        assert alerts[0].stage_hint == AttackStage.INITIAL_ACCESS

    def test_zero_noise_output_is_action_derived_only(self):
        actions = [ScanAction(services=("gitlab",))]
        alerts = _synth(actions)
        assert len(alerts) == 1

    def test_zero_noise_is_pure_function_of_actions(self):
        actions = [
            ScanAction(services=("apache_struts", "gitlab")),
            ExploitAction(service="apache_struts", stage=AttackStage.PRIV_ESC),
        ]
        assert _synth(actions, seed=1) == _synth(actions, seed=2) == _synth(actions, seed=1)

    def test_catalog_miss_raises(self):
        with pytest.raises(SignatureCatalogMissError):
            _synth([ExploitAction(service="decoy_1", stage=AttackStage.INITIAL_ACCESS)])
        with pytest.raises(SignatureCatalogMissError):
            _synth([ExploitAction(service="docker_api", stage=AttackStage.PRIV_ESC)])

    def test_exploit_always_keeps_one_true_stage_hint(self):
        noisy = NoiseConfig(false_positive_rate=0.0, hint_corruption_rate=1.0)
        for seed in range(25):
            alerts = synthesize_alerts(
                [ExploitAction(service="gitlab", stage=AttackStage.PRIV_ESC)],
                1,
                noisy,
                random.Random(seed),
                catalog=CATALOG,
            )
            assert any(a.stage_hint == AttackStage.PRIV_ESC for a in alerts)

    def test_noise_targets_catalog_services(self):
        loud = NoiseConfig(false_positive_rate=1.0, hint_corruption_rate=0.0)
        alerts = synthesize_alerts([], 1, loud, random.Random(0), catalog=CATALOG)
        assert len(alerts) == len(CATALOG)
        noise_sigs = {e["signature"] for e in SIGNATURES["noise"]}
        assert all(a.signature in noise_sigs for a in alerts)

    def test_clock_is_monotone_within_epoch(self):
        alerts = _synth(
            [ScanAction(services=("gitlab",)), ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS)]
        )
        clocks = [a.clock for a in alerts]
        assert clocks == sorted(clocks)
        assert len(set(clocks)) == len(clocks)


def _alerts_from_json(actions, epoch, noise, rng, catalog, src):
    """The fields of the alerts ``actions`` render to, each row read straight from signatures.json.

    A reference for ``synthesize_alerts``: it draws from ``rng`` in the same
    order, so the two agree alert for alert, noise included.
    """
    with open(SIGNATURES_JSON, encoding="utf-8") as fh:
        sigs = json.load(fh)
    out = []

    def push(dest, entry, hint):
        clock = epoch * CLOCK_EPOCH_SECONDS + len(out)
        row = (entry["signature"], entry["category"], int(entry["severity"]))
        out.append((epoch, clock, src, dest, service_port(dest), *row, hint))

    for action in actions:
        if isinstance(action, ScanAction):
            for sid in action.services:
                push(sid, sigs["scan"], AttackStage.RECONNAISSANCE)
        else:
            for idx, entry in enumerate(sigs["services"][action.service][action.stage.label]):
                hint = action.stage
                if idx > 0 and rng.random() < noise.hint_corruption_rate:
                    hint = AttackStage(min(max(hint + rng.choice((-1, 1)), 0), len(AttackStage) - 1))
                push(action.service, entry, hint)
    if noise.false_positive_rate > 0:
        for sid in catalog.ids:
            if rng.random() < noise.false_positive_rate:
                push(sid, rng.choice(sigs["noise"]), AttackStage.RECONNAISSANCE)
    return out


def test_every_stage_key_of_signatures_json_is_a_stage_label_as_written():
    keys = {key for stages in SIGNATURES["services"].values() for key in stages}
    assert keys and keys <= set(STAGE_LABELS)


def test_the_signature_table_holds_every_entry_of_signatures_json_by_service_and_stage():
    table = telemetry.signature_rows()
    assert table is telemetry.signature_rows()  # built once
    row = itemgetter("signature", "category", "severity")
    assert table.exploits == {
        (sid, AttackStage(STAGE_LABELS.index(key))): tuple(map(row, entries))
        for sid, stages in SIGNATURES["services"].items()
        for key, entries in stages.items()
    }


def test_a_misspelt_stage_key_in_signatures_json_fails_as_the_table_is_built(monkeypatch, tmp_path):
    entries = SIGNATURES["services"]["gitlab"]["InitialAccess"]
    misspelt = {**SIGNATURES, "services": {"gitlab": {"InitialAcess": entries}}}
    (tmp_path / "signatures.json").write_text(json.dumps(misspelt), encoding="utf-8")
    monkeypatch.setattr(telemetry.resources, "files", lambda package: tmp_path)
    with pytest.raises(ValueError, match="InitialAcess"):
        telemetry.signature_rows.__wrapped__()


@pytest.mark.parametrize("noise", [QUIET, NoiseConfig(), NoiseConfig(0.6, 0.7)], ids=["quiet", "default", "loud"])
@pytest.mark.parametrize("deployment", DEPLOYMENT_NAMES)
def test_every_exploit_renders_the_rows_of_signatures_json(deployment, noise):
    catalog = deployment_config(deployment).catalog
    pairs = [(svc.id, stage) for svc in catalog.services if svc.vulnerable for stage in svc.supported_stages[1:]]
    assert pairs
    for sid, stage in pairs:
        actions = [ScanAction(services=catalog.sorted_ids), ExploitAction(service=sid, stage=stage)]
        for seed in range(4):
            alerts = synthesize_alerts(
                actions, 3, noise, random.Random(seed), catalog=catalog, src="198.51.100.9"
            )
            got = [
                (a.epoch, a.clock, a.src, a.dest_service, a.dest_port, a.signature, a.category, a.severity, a.stage_hint)
                for a in alerts
            ]
            assert got == _alerts_from_json(actions, 3, noise, random.Random(seed), catalog, "198.51.100.9")


@st.composite
def _epoch_actions(draw):
    """A deployment and one epoch's actions on it: scans of its services, exploits of pairs the signature table holds."""
    deployment = draw(st.sampled_from(DEPLOYMENT_NAMES))
    catalog = deployment_config(deployment).catalog
    pairs = sorted(pair for pair in telemetry.signature_rows().exploits if pair[0] in catalog)
    scan = st.lists(st.sampled_from(catalog.ids), max_size=len(catalog)).map(lambda ids: ScanAction(tuple(ids)))
    exploit = st.sampled_from(pairs).map(lambda pair: ExploitAction(*pair))
    return deployment, draw(st.lists(st.one_of(scan, exploit), max_size=5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    drawn=_epoch_actions(),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    seed=st.integers(0, 2**32),
    epoch=st.integers(0, 10_000),
)
def test_an_epochs_alerts_are_of_its_epoch_on_catalog_services_with_clocks_rising_by_one(drawn, rates, seed, epoch):
    """What ``aggregate_epoch`` takes as given: one epoch's alerts, on catalog services, in clock order from its start."""
    deployment, actions = drawn
    catalog = deployment_config(deployment).catalog
    alerts = synthesize_alerts(actions, epoch, NoiseConfig(*rates), random.Random(seed), catalog=catalog)
    assert all(a.epoch == epoch and a.dest_service in catalog for a in alerts)
    start = epoch * CLOCK_EPOCH_SECONDS
    assert [a.clock for a in alerts] == list(range(start, start + len(alerts)))


def test_a_scan_or_exploit_of_a_service_outside_the_catalog_raises_key_error():
    with pytest.raises(KeyError, match="docker_api"):
        _synth([ScanAction(services=("docker_api",))])
    assert "docker_api" not in CATALOG
    assert ("docker_api", AttackStage.INITIAL_ACCESS) in telemetry.signature_rows().exploits
    with pytest.raises(KeyError, match="docker_api"):
        _synth([ExploitAction(service="docker_api", stage=AttackStage.INITIAL_ACCESS)])


class TestAggregateEpoch:
    def test_empty_observation(self):
        obs = aggregate_epoch([], ("gitlab",), 3)
        assert obs.epoch == 3
        assert obs.alerts == ()
        assert obs.exposed_last == ("gitlab",)

    def test_keeps_the_exposure_in_priority_order(self):
        """A failed model turn repeats the exposure as it was decided, so the observation does not sort it."""
        assert aggregate_epoch([], ("xdebug", "gitlab"), 1).exposed_last == ("xdebug", "gitlab")

    def test_bundles_the_alerts_as_given(self):
        alerts = _synth([ScanAction(services=("apache_struts", "gitlab"))], epoch=2)
        assert aggregate_epoch(alerts[::-1], (), 2).alerts == tuple(alerts[::-1])


class TestSummarize:
    def test_empty_observation_digest(self):
        assert summarize_for_prompt(empty_observation(), 200) == NO_ALERTS_DIGEST

    def test_identical_alerts_group_with_count(self):
        base = _synth([ScanAction(services=("gitlab",))])[0]
        triple = [base, base, base]
        obs = EpochObservation(epoch=1, alerts=tuple(triple), exposed_last=("gitlab",))
        digest = summarize_for_prompt(obs, 500)
        assert digest.count("\n") == 0
        assert "x3" in digest and "gitlab" in digest

    def test_truncation_drops_lowest_severity_first(self):
        scans = _synth([ScanAction(services=tuple(CATALOG.ids))] * 25)
        exploit = _synth([ExploitAction(service="gitlab", stage=AttackStage.ROOT_DATA_EXFIL)])
        obs = aggregate_epoch(scans + exploit, (), 1)
        full = summarize_for_prompt(obs, 10_000)
        tight = summarize_for_prompt(obs, 120)
        assert len(tight) <= 120
        assert len(full) > len(tight)
        # the severity-3 exploitation evidence survives, severity-1 scan groups go first
        assert "sev=3" in tight.splitlines()[0]
        assert "sev=1" not in tight

    def test_deterministic(self):
        alerts = _synth(
            [ScanAction(services=("apache_struts", "decoy_1", "gitlab"))],
            noise=NoiseConfig(false_positive_rate=0.8, hint_corruption_rate=0.0),
            seed=5,
        )
        obs = aggregate_epoch(alerts, (), 1)
        assert summarize_for_prompt(obs, 300) == summarize_for_prompt(obs, 300)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            summarize_for_prompt(empty_observation(), 0)

