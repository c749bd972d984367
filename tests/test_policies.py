import json
import random
from operator import attrgetter

from hypothesis import given, settings, strategies as st

from honeysim import harness, policies
from honeysim.attackers import ExploitAction, ScanAction
from honeysim.catalog import DEPLOYMENT_NAMES, AttackStage, deployment_config
from honeysim.engine import records_from_jsonl
from honeysim.policies import (
    DEGRADATIONS,
    BeliefState,
    CellStats,
    ExposureDecision,
    GroundTruthView,
    OraclePolicy,
    Policy,
    RandomPolicy,
    ReactivePolicy,
    StagePrediction,
    StaticPolicy,
    clamp_decision,
    policy_decide,
    update_belief,
)
from honeysim.telemetry import (
    EpochObservation,
    IdsAlert,
    NoiseConfig,
    aggregate_epoch,
    empty_observation,
    synthesize_alerts,
)

HONEYNET = deployment_config("fully_vulnerable")
QUIET = NoiseConfig(false_positive_rate=0.0, hint_corruption_rate=0.0)


def _obs(actions, epoch=1, seed=0):
    alerts = synthesize_alerts(actions, epoch, QUIET, random.Random(seed), catalog=HONEYNET.catalog)
    return aggregate_epoch(alerts, (), epoch)


def _folded(obs) -> BeliefState:
    belief = BeliefState()
    update_belief(belief, obs)
    return belief


class TestUpdateBelief:
    def test_empty_obs_leaves_weights_empty(self):
        belief = _folded(empty_observation())
        assert belief.weights == {}

    def test_alert_accumulates_severity_weight(self):
        obs = _obs([ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS)])
        belief = _folded(obs)
        assert belief.weights.get(("gitlab", AttackStage.INITIAL_ACCESS), 0.0) > 0

    def test_two_identical_alerts_double_the_weight(self):
        obs1 = _obs([ScanAction(services=("gitlab",))])
        single = _folded(obs1)
        doubled_alerts = obs1.alerts + obs1.alerts
        obs2 = aggregate_epoch(doubled_alerts, (), 1)
        double = _folded(obs2)
        key = ("gitlab", AttackStage.RECONNAISSANCE)
        assert double.weights[key] == 2 * single.weights[key]

    @given(st.randoms(use_true_random=False))
    def test_weights_are_permutation_invariant(self, rng):
        actions = [
            ScanAction(services=("docker_api", "gitlab")),
            ExploitAction(service="xdebug", stage=AttackStage.PRIV_ESC),
            ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS),
        ]
        alerts = list(_obs(actions).alerts)
        rng.shuffle(alerts)
        shuffled_obs = aggregate_epoch(alerts, (), 1)
        base = _folded(_obs(actions))
        shuffled = _folded(shuffled_obs)
        assert base.weights == shuffled.weights


class TestPolicyDecide:
    def test_budget_violation_is_clamped_and_counted(self, caplog):
        class Greedy(Policy):
            name = "greedy"

            def decide(self, obs, cfg):
                return ExposureDecision(exposed=("gitlab", "xdebug", "docker_api")), StagePrediction()

        greedy = Greedy()
        greedy.stats = stats = CellStats()
        with caplog.at_level("WARNING"):
            for _ in range(2):
                decision, _ = policy_decide(greedy, empty_observation(), HONEYNET)
        assert decision.exposed == ("gitlab",)
        assert stats.counts == {**dict.fromkeys(DEGRADATIONS, 0), "over_budget": 2}
        assert stats.latencies == []  # no model turn
        assert not caplog.records  # counted, not logged
        # a policy no cell built counts nowhere, and clamps the same
        assert policy_decide(Greedy(), empty_observation(), HONEYNET)[0] == decision

    def test_unknown_services_are_dropped(self):
        stats = CellStats()
        decision = clamp_decision(ExposureDecision(exposed=("mystery", "gitlab", "ghost")), HONEYNET, stats)
        assert decision.exposed == ("gitlab",)
        assert stats.counts == {**dict.fromkeys(DEGRADATIONS, 0), "unlisted_services": 2}
        assert clamp_decision(ExposureDecision(exposed=("mystery", "gitlab")), HONEYNET).exposed == ("gitlab",)


class TestBaselines:
    def test_oracle_exposes_ground_truth_target(self):
        oracle = OraclePolicy()
        oracle.observe_ground_truth(
            GroundTruthView(target_service="apache_struts", completed_stages=(), status="active")
        )
        decision, prediction = oracle.decide(empty_observation(), HONEYNET)
        assert decision.exposed == ("apache_struts",)
        assert not decision.declared_done
        assert prediction.stages == ()

    def test_oracle_predicts_ground_truth_and_declares_done(self):
        oracle = OraclePolicy()
        stages = (AttackStage.RECONNAISSANCE, AttackStage.INITIAL_ACCESS)
        oracle.observe_ground_truth(
            GroundTruthView(target_service="gitlab", completed_stages=stages, status="completed")
        )
        decision, prediction = oracle.decide(empty_observation(), HONEYNET)
        assert prediction.stages == stages
        assert decision.declared_done

    def test_random_respects_budget_and_seed(self):
        a = RandomPolicy(99)
        b = RandomPolicy(99)
        picks_a = [a.decide(empty_observation(), HONEYNET)[0].exposed for _ in range(6)]
        picks_b = [b.decide(empty_observation(), HONEYNET)[0].exposed for _ in range(6)]
        assert picks_a == picks_b
        assert all(len(p) == 1 and p[0] in HONEYNET.catalog.ids for p in picks_a)

    def test_static_never_moves(self):
        policy = StaticPolicy(("docker_api",))
        for _ in range(3):
            decision, _ = policy.decide(empty_observation(), HONEYNET)
            assert decision.exposed == ("docker_api",)

    def test_reactive_chases_latest_exploit_alert(self):
        policy = ReactivePolicy()
        obs = _obs(
            [
                ScanAction(services=("docker_api", "gitlab")),
                ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS),
            ]
        )
        update_belief(policy.belief, obs)
        decision, prediction = policy.decide(obs, HONEYNET)
        assert decision.exposed == ("gitlab",)
        assert prediction.target_service == "gitlab"

    def test_reactive_round_robin_without_evidence(self):
        policy = ReactivePolicy()
        seen = [policy.decide(empty_observation(), HONEYNET)[0].exposed[0] for _ in range(4)]
        assert seen == list(HONEYNET.catalog.ids)

    def test_reactive_ignores_decoy_alerts(self):
        mixed = deployment_config("small_mixed")
        policy = ReactivePolicy()
        alerts = synthesize_alerts(
            [ScanAction(services=("decoy_1",))], 1, QUIET, random.Random(0), catalog=mixed.catalog
        )
        obs = aggregate_epoch(alerts, ("decoy_1",), 1)
        update_belief(policy.belief, obs)
        decision, _ = policy.decide(obs, mixed)
        assert decision.exposed[0] in mixed.catalog.ids  # falls back to round robin


class _SortThenScan(ReactivePolicy):
    """The reference: ``ReactivePolicy.decide`` as a loop over every alert, sorted latest highest severity first."""

    def decide(self, obs, cfg):
        choice = None
        for alert in sorted(obs.alerts, key=attrgetter("severity", "clock"), reverse=True):
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
        return ExposureDecision(tuple(exposed)), policies.make_prediction(self.belief.stages_for(choice), choice)


@st.composite
def _honeynet_and_epochs(draw):
    """A deployment at a budget, and epochs of alerts on its services at unique clocks, of any severity and hint."""
    honeynet = deployment_config(draw(st.sampled_from(DEPLOYMENT_NAMES)), draw(st.integers(1, 3)))
    ids = honeynet.catalog.ids
    alert = st.tuples(st.sampled_from(ids), st.integers(1, 3), st.integers(0, 59), st.sampled_from(AttackStage))
    epochs = []
    for epoch in range(1, 1 + draw(st.integers(1, 4))):
        drawn = draw(st.lists(alert, max_size=12, unique_by=lambda a: a[2]))
        alerts = [
            IdsAlert(epoch, 60 * epoch + clock, "198.51.100.7", sid, 0, "sig", "cat", severity, hint)
            for sid, severity, clock, hint in drawn
        ]
        epochs.append(EpochObservation(epoch, tuple(alerts), ()))
    return honeynet, epochs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=_honeynet_and_epochs())
def test_the_reactive_choice_is_the_sort_then_scan_choice(drawn):
    honeynet, epochs = drawn
    policy, reference = ReactivePolicy(), _SortThenScan()
    for obs in epochs:
        assert policy_decide(policy, obs, honeynet) == policy_decide(reference, obs, honeynet)


def test_prediction_normalizes_order_and_duplicates():
    from honeysim.policies import make_prediction

    pred = make_prediction(
        [AttackStage.PRIV_ESC, AttackStage.RECONNAISSANCE, AttackStage.PRIV_ESC]
    )
    assert pred.stages == (AttackStage.RECONNAISSANCE, AttackStage.PRIV_ESC)


# two cells, which each kind runs alone; the mock replays a decision, then a reply without one
FOLD_CELLS = {
    "horizon": 5,
    "budget": 1,
    "seeds": [0, 1],
    "deployments": ["small_mixed"],
    "persistence_modes": ["probabilistic"],
    "noise": {"false_positive_rate": 0.3, "hint_corruption_rate": 0.3},
}
# whether a kind reads a belief: each of its decisions folds that epoch's alerts if so, none if not
READS_BELIEF = {"oracle": False, "random": False, "static": False, "reactive": True, "scripted": True, "mock": True}


def test_only_the_policies_that_read_a_belief_fold_alerts(monkeypatch, tmp_path):
    """``policy_decide`` folds each decision's alerts for reactive and the model policies, and for no other kind."""
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(['{"expose": ["gitlab"], "stages": ["recon"]}', "no decision"]), encoding="utf-8")
    entries = {"static": {"kind": "static", "expose": ["gitlab"]}, "mock": {"kind": "mock", "replay": str(replay)}}
    folds = []
    fold = policies.update_belief

    def counted(belief, obs):
        folds.append(obs)
        fold(belief, obs)

    monkeypatch.setattr(policies, "update_belief", counted)
    for kind, reads in READS_BELIEF.items():
        folds.clear()
        entry = {"name": kind, **entries.get(kind, {"kind": kind})}
        out = tmp_path / kind
        harness.execute_matrix(harness.matrix_from_dict({**FOLD_CELLS, "policies": [entry]}), out)
        logs = [path.read_text(encoding="utf-8") for path in out.glob("*/episodes.jsonl")]
        records = [rec for text in logs for rec in records_from_jsonl(text)]
        decisions = sum(len(rec["epochs"]) + 1 for rec in records)  # each episode's bootstrap, then one per epoch
        assert decisions > len(records) > 0
        assert len(folds) == (decisions if reads else 0), kind
