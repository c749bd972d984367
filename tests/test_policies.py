import random

from hypothesis import given, strategies as st

from honeysim.attackers import ExploitAction, ScanAction
from honeysim.catalog import AttackStage, deployment_config
from honeysim.policies import (
    BeliefState,
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
from honeysim.telemetry import NoiseConfig, aggregate_epoch, empty_observation, synthesize_alerts

HONEYNET = deployment_config("fully_vulnerable")
QUIET = NoiseConfig(false_positive_rate=0.0, hint_corruption_rate=0.0)


def _obs(actions, epoch=1, seed=0):
    alerts = synthesize_alerts(actions, epoch, QUIET, random.Random(seed), catalog=HONEYNET.catalog)
    return aggregate_epoch(alerts, set(), epoch)


class TestUpdateBelief:
    def test_empty_obs_leaves_weights_empty(self):
        belief = update_belief(BeliefState(), empty_observation())
        assert belief.weights == {}

    def test_alert_accumulates_severity_weight(self):
        obs = _obs([ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS)])
        belief = update_belief(BeliefState(), obs)
        assert belief.weight("gitlab", AttackStage.INITIAL_ACCESS) > 0

    def test_two_identical_alerts_double_the_weight(self):
        obs1 = _obs([ScanAction(services=("gitlab",))])
        single = update_belief(BeliefState(), obs1)
        doubled_alerts = obs1.alerts + obs1.alerts
        obs2 = aggregate_epoch(doubled_alerts, set(), 1)
        double = update_belief(BeliefState(), obs2)
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
        shuffled_obs = aggregate_epoch(alerts, set(), 1)
        base = update_belief(BeliefState(), _obs(actions))
        shuffled = update_belief(BeliefState(), shuffled_obs)
        assert base.weights == shuffled.weights


class TestPolicyDecide:
    def test_budget_violation_is_clamped_and_logged(self, caplog):
        class Greedy(Policy):
            name = "greedy"

            def decide(self, obs, belief, cfg):
                return ExposureDecision(exposed=("gitlab", "xdebug", "docker_api")), StagePrediction()

        with caplog.at_level("WARNING"):
            decision, _, _ = policy_decide(Greedy(), empty_observation(), BeliefState(), HONEYNET)
        assert decision.exposed == ("gitlab",)
        assert "exceeded budget" in caplog.text

    def test_unknown_services_are_dropped(self):
        decision = clamp_decision(
            ExposureDecision(exposed=("mystery", "gitlab")), HONEYNET, "test"
        )
        assert decision.exposed == ("gitlab",)


class TestBaselines:
    def test_oracle_exposes_ground_truth_target(self):
        oracle = OraclePolicy()
        oracle.observe_ground_truth(
            GroundTruthView(target_service="apache_struts", completed_stages=(), status="active")
        )
        decision, prediction = oracle.decide(empty_observation(), BeliefState(), HONEYNET)
        assert decision.exposed == ("apache_struts",)
        assert not decision.declared_done
        assert prediction.stages == ()

    def test_oracle_predicts_ground_truth_and_declares_done(self):
        oracle = OraclePolicy()
        stages = (AttackStage.RECONNAISSANCE, AttackStage.INITIAL_ACCESS)
        oracle.observe_ground_truth(
            GroundTruthView(target_service="gitlab", completed_stages=stages, status="completed")
        )
        decision, prediction = oracle.decide(empty_observation(), BeliefState(), HONEYNET)
        assert prediction.stages == stages
        assert decision.declared_done

    def test_random_respects_budget_and_seed(self):
        a = RandomPolicy(99)
        b = RandomPolicy(99)
        picks_a = [a.decide(empty_observation(), BeliefState(), HONEYNET)[0].exposed for _ in range(6)]
        picks_b = [b.decide(empty_observation(), BeliefState(), HONEYNET)[0].exposed for _ in range(6)]
        assert picks_a == picks_b
        assert all(len(p) == 1 and p[0] in HONEYNET.catalog.ids for p in picks_a)

    def test_static_never_moves(self):
        policy = StaticPolicy(("docker_api",))
        for _ in range(3):
            decision, _ = policy.decide(empty_observation(), BeliefState(), HONEYNET)
            assert decision.exposed == ("docker_api",)

    def test_reactive_chases_latest_exploit_alert(self):
        policy = ReactivePolicy()
        obs = _obs(
            [
                ScanAction(services=("docker_api", "gitlab")),
                ExploitAction(service="gitlab", stage=AttackStage.INITIAL_ACCESS),
            ]
        )
        belief = update_belief(BeliefState(), obs)
        decision, prediction = policy.decide(obs, belief, HONEYNET)
        assert decision.exposed == ("gitlab",)
        assert prediction.target_service == "gitlab"

    def test_reactive_round_robin_without_evidence(self):
        policy = ReactivePolicy()
        seen = [policy.decide(empty_observation(), BeliefState(), HONEYNET)[0].exposed[0] for _ in range(4)]
        assert seen == list(HONEYNET.catalog.ids)

    def test_reactive_ignores_decoy_alerts(self):
        mixed = deployment_config("small_mixed")
        policy = ReactivePolicy()
        alerts = synthesize_alerts(
            [ScanAction(services=("decoy_1",))], 1, QUIET, random.Random(0), catalog=mixed.catalog
        )
        obs = aggregate_epoch(alerts, {"decoy_1"}, 1)
        decision, _ = policy.decide(obs, update_belief(BeliefState(), obs), mixed)
        assert decision.exposed[0] in mixed.catalog.ids  # falls back to round robin


def test_prediction_normalizes_order_and_duplicates():
    from honeysim.policies import make_prediction

    pred = make_prediction(
        [AttackStage.PRIV_ESC, AttackStage.RECONNAISSANCE, AttackStage.PRIV_ESC]
    )
    assert pred.stages == (AttackStage.RECONNAISSANCE, AttackStage.PRIV_ESC)
