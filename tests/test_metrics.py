import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from honeysim.attackers import AttackerProfile
from honeysim.catalog import deployment_config
from honeysim.engine import SCHEMA_VERSION, RunConfig, run_episode
from honeysim.harness import CellSpec
from honeysim.metrics import (
    SCORE_MODE_CURRENT,
    _mean,
    aggregate,
    exploitation_achieved,
    inference_score,
    run_metrics,
    score_cell,
    score_from_counts,
    success_cell,
)
from honeysim.policies import ExposureDecision, OraclePolicy, RandomPolicy
from honeysim.telemetry import NoiseConfig

STAGES = ("Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc", "RootDataExfil")
# the axes of the one cell the run-level tests aggregate
AXES = {"policies": ["oracle"], "deployments": ["fully_vulnerable"], "modes": ["deterministic"]}


def make_record(pairs, target="gitlab", objective="RootDataExfil", outcome="completed"):
    """Synthetic episode from (gt_stages, predicted_stages) pairs, as ``run_episode`` builds it."""
    epochs = [
        {
            "actions": [],
            "alerts": (),
            "decision": ExposureDecision((target,)),
            "epoch": i + 1,
            "exposed": (target,),
            "gt_stages": tuple(gt),
            "prediction": tuple(pred),
        }
        for i, (gt, pred) in enumerate(pairs)
    ]
    return {
        "attacker_label": f"{target}_attacker",
        "bootstrap_exposed": (target,),
        "epochs": epochs,
        "epochs_used": len(epochs),
        "objective_stage": objective,
        "outcome": outcome,
        "persistence_mode": "deterministic",
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "target_service": target,
    }


class TestExploitationAchieved:
    def test_completed_gitlab_chain(self):
        rec = make_record([(STAGES, STAGES)])
        assert exploitation_achieved(rec)

    def test_abandoned_at_initial_access(self):
        rec = make_record(
            [(("Reconnaissance", "InitialAccess"), ())], outcome="abandoned"
        )
        assert not exploitation_achieved(rec)

    def test_docker_terminal_is_user_data_exfil(self):
        rec = make_record(
            [(("Reconnaissance", "InitialAccess", "UserDataExfil"), ())],
            target="docker_api",
            objective="UserDataExfil",
        )
        assert exploitation_achieved(rec)


class TestInferenceScore:
    def test_exact_agreement_scores_one(self):
        pairs = [
            (("Reconnaissance", "InitialAccess"), ("Reconnaissance", "InitialAccess")),
            (STAGES[:3], STAGES[:3]),
        ]
        tp, fp, fn, score = inference_score(make_record(pairs))
        assert (fp, fn) == (0, 0)
        assert score == 1.0

    def test_overprediction_hand_count(self):
        # GT {Recon, InitialAccess}, pred adds RootDataExfil: (2, 1, 0, 2/3)
        pairs = [
            (
                ("Reconnaissance", "InitialAccess"),
                ("Reconnaissance", "InitialAccess", "RootDataExfil"),
            )
        ]
        assert inference_score(make_record(pairs)) == (2, 1, 0, pytest.approx(2 / 3))

    def test_empty_predictions_score_zero(self):
        pairs = [(("Reconnaissance",), ()), (("Reconnaissance", "InitialAccess"), ())]
        tp, fp, fn, score = inference_score(make_record(pairs))
        assert (tp, fp) == (0, 0)
        assert fn == 3
        assert score == 0.0

    def test_vacuous_agreement_scores_one(self):
        assert score_from_counts(0, 0, 0) == 1.0
        tp, fp, fn, score = inference_score(make_record([((), ())]))
        assert score == 1.0

    def test_epoch_order_does_not_matter(self):
        pairs = [
            (("Reconnaissance",), ("Reconnaissance", "PrivEsc")),
            (STAGES[:4], STAGES[:2]),
            ((), ("RootDataExfil",)),
        ]
        forward = inference_score(make_record(pairs))
        backward = inference_score(make_record(list(reversed(pairs))))
        assert forward == backward

    def test_current_stage_mode(self):
        pairs = [
            (("Reconnaissance", "InitialAccess"), ("InitialAccess",)),  # same top stage
            (STAGES[:3], STAGES[:2]),  # top mismatch
            ((), ()),  # vacuous epoch is skipped
        ]
        tp, fp, fn, score = inference_score(make_record(pairs), mode=SCORE_MODE_CURRENT)
        assert (tp, fp, fn) == (1, 1, 1)
        assert score == pytest.approx(1 / 3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            inference_score(make_record([((), ())]), mode="fuzzy")


def brute_force_counts(pairs):
    """Independent oracle: per-stage membership comparison, no set algebra."""
    tp = fp = fn = 0
    for gt, pred in pairs:
        for stage in STAGES:
            in_gt = stage in gt
            in_pred = stage in pred
            if in_gt and in_pred:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_gt:
                fn += 1
    return tp, fp, fn


@settings(max_examples=200)
@given(st.data())
def test_inference_score_matches_brute_force(data):
    stage_set = st.sets(st.sampled_from(STAGES))
    n_epochs = data.draw(st.integers(0, 8))
    pairs = [(tuple(data.draw(stage_set)), tuple(data.draw(stage_set))) for _ in range(n_epochs)]
    tp, fp, fn, score = inference_score(make_record(pairs))
    btp, bfp, bfn = brute_force_counts(pairs)
    assert (tp, fp, fn) == (btp, bfp, bfn)
    expected = 1.0 if btp + bfp + bfn == 0 else float(Fraction(btp, btp + bfp + bfn))
    assert score == expected


class TestRunLevelMetrics:
    def _cell(self, policy="oracle", deployment="fully_vulnerable"):
        return CellSpec(policy, deployment, "deterministic", 0, 0)

    def test_only_common_attackers_count(self):
        good = make_record([(STAGES, STAGES)])
        good_struts = make_record(
            [(STAGES, STAGES)], target="apache_struts", objective="RootDataExfil"
        )
        failed_xdebug = make_record([(("Reconnaissance",), ())], target="xdebug", outcome="abandoned")
        rm = run_metrics(self._cell(), [good, good_struts, failed_xdebug])
        assert rm.exploitation  # xdebug failure is not a common attacker
        assert rm.score == 1.0

    def test_any_common_failure_fails_the_run(self):
        good = make_record([(STAGES, STAGES)])
        bad_struts = make_record(
            [(("Reconnaissance",), ())], target="apache_struts", outcome="abandoned"
        )
        rm = run_metrics(self._cell(), [good, bad_struts])
        assert not rm.exploitation
        assert rm.score == 0.5

    def test_aggregate_success_and_score_cells(self):
        results = []
        for _ in range(9):
            rec_a = make_record([(STAGES, STAGES)])
            rec_b = make_record([(STAGES, STAGES)], target="apache_struts")
            results.append(run_metrics(self._cell(), [rec_a, rec_b]))
        files = dict(aggregate(results, **AXES).files())
        assert files["summary_success_by_deployment.csv"].splitlines()[1].split(",")[-1] == "9/9 (100%)"
        assert files["summary_scores.csv"].splitlines()[1].split(",")[-1] == "100.0 ± 0.0"

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], **AXES)

    def test_a_run_off_the_axes_is_refused(self):
        run = run_metrics(self._cell(deployment="small_mixed"), [make_record([(STAGES, STAGES)])])
        with pytest.raises(ValueError, match="oracle/small_mixed/deterministic is off the axes"):
            aggregate([run], **AXES)


@settings(max_examples=300)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
    | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
)
def test_run_mean_is_statistics_mean_bit_for_bit(values):
    assert _mean(iter(values)).hex() == statistics.mean(values).hex()


class TestCellFormats:
    def test_success_cell_rounding(self):
        assert success_cell(9, 9) == "9/9 (100%)"
        assert success_cell(7, 9) == "7/9 (78%)"
        assert success_cell(5, 9) == "5/9 (56%)"
        assert success_cell(0, 9) == "0/9 (0%)"

    def test_score_cell_mean_and_population_std(self):
        eight_ninths = 8 / 9
        assert score_cell([eight_ninths] * 3) == "88.9 ± 0.0"
        assert score_cell([0.5]) == "50.0 ± 0.0"
        cell = score_cell([0.8, 0.9, 1.0])
        mean = 100 * 0.9
        std = 100 * math.sqrt(((0.8 - 0.9) ** 2 + 0 + (1.0 - 0.9) ** 2) / 3)
        assert cell == f"{mean:.1f} ± {std:.1f}"

    def test_csv_emitters_shape(self):
        rec = make_record([(STAGES, STAGES)])
        cell = CellSpec("oracle", "fully_vulnerable", "deterministic", 0, 0)
        files = dict(aggregate([run_metrics(cell, [rec])], **AXES).files())
        success = files["summary_success_by_deployment.csv"]
        assert success.splitlines()[0] == "policy,deployment,achieved,total,exploitation_achieved"
        scores = files["summary_scores.csv"]
        assert scores.splitlines()[0] == "deployment,persistence,oracle"


def test_random_policy_exploitation_matches_binomial_oracle():
    """Monte Carlo through the real engine against an exact binomial count.

    With one uniformly random exposure slot over four services, each epoch
    hits the target independently with probability 1/4, and the chain needs
    four hits within the 20-epoch horizon.
    """
    fully = deployment_config("fully_vulnerable")
    quiet = NoiseConfig(false_positive_rate=0.0, hint_corruption_rate=0.0)
    p = 1 / 4
    analytic = 1.0 - sum(math.comb(20, k) * p**k * (1 - p) ** (20 - k) for k in range(4))

    wins = 0
    trials = 10_000
    for seed in range(trials):
        cfg = RunConfig(
            honeynet=fully,
            attackers=(AttackerProfile(target_service="gitlab"),),
            horizon=20,
            noise=quiet,
        )
        rec = run_episode(cfg, cfg.attackers[0], RandomPolicy(seed), seed)
        wins += exploitation_achieved(rec)
    assert abs(wins / trials - analytic) < 0.015


def test_oracle_dominates_other_baselines():
    """The oracle's exploitation indicator is an upper bound per (seed, attacker)."""
    from honeysim.policies import ReactivePolicy, StaticPolicy

    small = deployment_config("small_mixed")
    for seed in range(3):
        for target in ("gitlab", "apache_struts"):
            cfg = RunConfig(
                honeynet=small,
                attackers=(AttackerProfile(target_service=target),),
                horizon=20,
            )
            oracle_hit = exploitation_achieved(run_episode(cfg, cfg.attackers[0], OraclePolicy(), seed))
            for rival in (StaticPolicy(("decoy_1",)), ReactivePolicy(), RandomPolicy(seed)):
                rival_hit = exploitation_achieved(run_episode(cfg, cfg.attackers[0], rival, seed))
                assert oracle_hit >= rival_hit
