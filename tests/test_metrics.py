import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from honeysim.attackers import AttackerProfile
from honeysim.catalog import deployment_config
from honeysim.engine import EpisodeRecord, EpochLog, RunConfig, run_episode
from honeysim.metrics import (
    RunResult,
    SCORE_MODE_CURRENT,
    aggregate,
    exploitation_achieved,
    inference_score,
    run_metrics,
    score_cell,
    score_from_counts,
    scores_csv,
    success_cell,
    success_csv,
)
from honeysim.policies import OraclePolicy, RandomPolicy
from honeysim.telemetry import NoiseConfig

STAGES = ("Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc", "RootDataExfil")


def make_record(pairs, target="gitlab", objective="RootDataExfil", outcome="completed"):
    """Synthetic episode from (gt_stages, predicted_stages) pairs."""
    epochs = [
        EpochLog(
            epoch=i + 1,
            exposed=(target,),
            actions=[],
            alerts=[],
            decision={"exposed": [target], "declared_done": False},
            prediction=tuple(pred),
            gt_stages=tuple(gt),
        )
        for i, (gt, pred) in enumerate(pairs)
    ]
    return EpisodeRecord(
        attacker_label=f"{target}_attacker",
        target_service=target,
        objective_stage=objective,
        persistence_mode="deterministic",
        seed=0,
        outcome=outcome,
        epochs_used=len(epochs),
        bootstrap_exposed=(target,),
        epochs=epochs,
    )


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
    def _result(self, records, policy="oracle", deployment="fully_vulnerable", seed=0):
        return RunResult(
            policy=policy,
            deployment=deployment,
            persistence="deterministic",
            seed=seed,
            records=tuple(records),
        )

    def test_only_common_attackers_count(self):
        good = make_record([(STAGES, STAGES)])
        good_struts = make_record(
            [(STAGES, STAGES)], target="apache_struts", objective="RootDataExfil"
        )
        failed_xdebug = make_record([(("Reconnaissance",), ())], target="xdebug", outcome="abandoned")
        rm = run_metrics(self._result([good, good_struts, failed_xdebug]))
        assert rm.exploitation  # xdebug failure is not a common attacker
        assert rm.score == 1.0

    def test_any_common_failure_fails_the_run(self):
        good = make_record([(STAGES, STAGES)])
        bad_struts = make_record(
            [(("Reconnaissance",), ())], target="apache_struts", outcome="abandoned"
        )
        rm = run_metrics(self._result([good, bad_struts]))
        assert not rm.exploitation
        assert rm.score == 0.5

    def test_aggregate_success_and_score_cells(self):
        results = []
        for seed in range(9):
            rec_a = make_record([(STAGES, STAGES)])
            rec_b = make_record([(STAGES, STAGES)], target="apache_struts")
            results.append(run_metrics(self._result([rec_a, rec_b], seed=seed)))
        tables = aggregate(results)
        assert tables.success_by_deployment[0]["cell"] == "9/9 (100%)"
        assert tables.scores[0]["oracle"] == "100.0 ± 0.0"

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


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
        result = RunResult(
            policy="oracle",
            deployment="fully_vulnerable",
            persistence="deterministic",
            seed=0,
            records=(rec,),
        )
        tables = aggregate([run_metrics(result)])
        success = success_csv(tables.success_by_deployment, "deployment")
        assert success.splitlines()[0] == "policy,deployment,achieved,total,exploitation_achieved"
        scores = scores_csv(tables.scores, tables.policy_order)
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
            seed=seed,
            noise=quiet,
        )
        rec = run_episode(cfg, cfg.attackers[0], RandomPolicy(seed))
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
                seed=seed,
            )
            oracle_hit = exploitation_achieved(run_episode(cfg, cfg.attackers[0], OraclePolicy()))
            for rival in (StaticPolicy(("decoy_1",)), ReactivePolicy(), RandomPolicy(seed)):
                rival_hit = exploitation_achieved(run_episode(cfg, cfg.attackers[0], rival))
                assert oracle_hit >= rival_hit
