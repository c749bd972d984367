"""Acceptance suite: one test per release criterion, with runtime gates.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline). Tolerances are pinned here, not configurable.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from honeysim.attackers import AttackerProfile, PersistenceModel, default_attacker_queue
from honeysim.catalog import deployment_config
from honeysim.cli import main
from honeysim.engine import RunConfig, records_to_jsonl, run_episode, run_simulation
from honeysim.harness import ExperimentMatrix, PolicySpec, expand_matrix, load_builtin_config, run_cell
from honeysim.metrics import (
    RunResult,
    aggregate,
    inference_score,
    run_metrics,
    score_cell,
    success_cell,
)
from honeysim.policies import ExposureDecision, OraclePolicy, Policy, StagePrediction, StaticPolicy

DEPLOYMENTS = ("fully_vulnerable", "small_mixed", "large_mixed")
MODES = ("deterministic", "probabilistic", "consecutive")
SEEDS = (0, 1, 2)
STAGES = ("Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc", "RootDataExfil")


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (limit {budget_seconds}s)"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def _run(deployment: str, mode: str, seed: int, policy_factory, horizon: int = 20) -> RunResult:
    honeynet = deployment_config(deployment)
    queue = default_attacker_queue(honeynet.catalog, PersistenceModel(mode=mode))
    cfg = RunConfig(honeynet=honeynet, attackers=tuple(queue), horizon=horizon, seed=seed)
    return RunResult(
        policy="test",
        deployment=deployment,
        persistence=mode,
        seed=seed,
        records=tuple(run_simulation(cfg, policy_factory)),
    )


def test_criterion_1_persistence_formula():
    from honeysim.attackers import attempt_probability

    with criterion(1, "persistence formula", 1.0):
        model = PersistenceModel(mode="probabilistic", decay=0.25, floor=0.1)
        expected = {0: 1.0, 1: 0.75, 2: 0.5, 3: 0.25, 4: 0.1, 5: 0.1}
        for gap, value in expected.items():
            assert attempt_probability(model, gap) == value


def test_criterion_2_oracle_upper_bound():
    with criterion(2, "oracle upper bound 9/9 and score 1.0", 5.0):
        runs = [
            run_metrics(_run(dep, "deterministic", seed, lambda i, s: OraclePolicy()))
            for dep in DEPLOYMENTS
            for seed in SEEDS
        ]
        achieved = sum(r.exploitation for r in runs)
        assert success_cell(achieved, len(runs)) == "9/9 (100%)"
        scores = [r.score for r in runs]
        assert score_cell(scores) == "100.0 ± 0.0"


def test_criterion_3_misalignment_sanity():
    with criterion(3, "static decoy-only policy never exploits", 5.0):
        for deployment in DEPLOYMENTS:
            catalog = deployment_config(deployment).catalog
            decoys = [sid for sid in catalog.ids if not catalog.get(sid).vulnerable]
            # fully vulnerable has no decoys: pin a service no scored attacker targets
            target = decoys[0] if decoys else "xdebug"
            runs = [
                run_metrics(_run(deployment, mode, seed, lambda i, s: StaticPolicy((target,))))
                for mode in MODES
                for seed in SEEDS
            ]
            achieved = sum(r.exploitation for r in runs)
            assert success_cell(achieved, len(runs)) == "0/9 (0%)"


class _GapPolicy(Policy):
    """Exposes the target every epoch except one gap right after engagement."""

    name = "gap"

    def __init__(self, target: str, gap_epoch: int = 2):
        self.target = target
        self.gap_epoch = gap_epoch

    def decide(self, obs, belief, cfg):
        next_epoch = obs.epoch + 1
        exposed = () if next_epoch == self.gap_epoch else (self.target,)
        return ExposureDecision(exposed=exposed), StagePrediction()


def test_criterion_4_consecutive_semantics():
    with criterion(4, "consecutive attackers: gapless completes, any gap abandons", 10.0):
        completed = abandoned = 0
        for seed in range(100):
            attacker = AttackerProfile(
                target_service="gitlab", persistence=PersistenceModel(mode="consecutive")
            )
            cfg = RunConfig(
                honeynet=deployment_config("fully_vulnerable"),
                attackers=(attacker,),
                horizon=20,
                seed=seed,
            )
            steady = run_episode(cfg, attacker, StaticPolicy(("gitlab",)))
            completed += steady.outcome == "completed"
            gapped = run_episode(cfg, attacker, _GapPolicy("gitlab"))
            abandoned += gapped.outcome == "abandoned"
        assert completed == 100
        assert abandoned == 100


class _AlternatingPolicy(Policy):
    """Exposes the target on odd epochs only, forcing gap 1 before each attempt."""

    name = "alternating"

    def __init__(self, target: str):
        self.target = target

    def decide(self, obs, belief, cfg):
        next_epoch = obs.epoch + 1
        exposed = (self.target,) if next_epoch % 2 == 1 else ()
        return ExposureDecision(exposed=exposed), StagePrediction()


def test_criterion_5_probabilistic_monte_carlo():
    with criterion(5, "gap-1 attempt success rate 0.75 ± 0.02 over 10,000 trials", 30.0):
        trials = 10_000
        survived = 0
        honeynet = deployment_config("fully_vulnerable")
        for seed in range(trials):
            attacker = AttackerProfile(
                target_service="gitlab",
                persistence=PersistenceModel(mode="probabilistic", decay=0.25, floor=0.1),
            )
            # epoch 1: engage at gap 0; epoch 2: hidden; epoch 3: attempt at gap 1
            cfg = RunConfig(honeynet=honeynet, attackers=(attacker,), horizon=3, seed=seed)
            rec = run_episode(cfg, attacker, _AlternatingPolicy("gitlab"))
            survived += rec.outcome != "abandoned"
        assert abs(survived / trials - 0.75) <= 0.02


def test_criterion_6_metric_oracle_equivalence():
    from test_metrics import brute_force_counts, make_record

    with criterion(6, "inference score equals brute-force oracle on 1,000 random pairs", 10.0):
        rng = random.Random(123)
        for _ in range(1_000):
            pairs = []
            for _ in range(rng.randint(0, 10)):
                gt = tuple(s for s in STAGES if rng.random() < 0.5)
                pred = tuple(s for s in STAGES if rng.random() < 0.5)
                pairs.append((gt, pred))
            tp, fp, fn, score = inference_score(make_record(pairs))
            btp, bfp, bfn = brute_force_counts(pairs)
            assert (tp, fp, fn) == (btp, bfp, bfn)
            expected = 1.0 if btp + bfp + bfn == 0 else float(Fraction(btp, btp + bfp + bfn))
            assert score == expected


def test_criterion_7_matrix_shape_and_replay(tmp_path):
    with criterion(7, "81-cell expansion, 9-run cells, byte-identical replay", 60.0):
        # the shipped config spans the full 3 x 3 x 3 x 3 grid
        assert len(expand_matrix(load_builtin_config())) == 81

        # per-(policy, deployment) success cells pool 3 modes x 3 seeds = 9 runs
        matrix = ExperimentMatrix(
            policies=[PolicySpec(label="oracle", kind="oracle")],
            deployments=list(DEPLOYMENTS),
            modes=list(MODES),
            seeds=list(SEEDS),
            horizon=20,
        )
        results = [run_metrics(run_cell(cell, matrix)) for cell in expand_matrix(matrix)]
        tables = aggregate(results, policies=["oracle"], deployments=DEPLOYMENTS, modes=MODES)
        assert all(row["total"] == 9 for row in tables.success_by_deployment)
        assert all(row["total"] == 9 for row in tables.success_by_persistence)

        # replay recomputes byte-identical summaries from stored logs
        out = tmp_path / "replaycheck"
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "horizon: 10\nseeds: [0, 1]\npolicies: [oracle, reactive]\n"
            "deployments: [small_mixed]\npersistence_modes: [deterministic, probabilistic]\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        summaries = sorted(p for p in out.iterdir() if p.name.startswith("summary_"))
        before = {p.name: p.read_bytes() for p in summaries}
        assert main(["replay", "--out", str(out)]) == 0
        after = {p.name: p.read_bytes() for p in summaries}
        assert before == after


def test_criterion_8_mock_pipeline(tmp_path):
    with criterion(8, "offline scripted pipeline exploits both common attackers, score >= 0.85", 10.0):
        out = tmp_path / "demo"
        assert main(["mock-demo", "--out", str(out), "--deployment", "fully_vulnerable"]) == 0

        cell = out / "scripted__fully_vulnerable__deterministic__seed0"
        records = [json.loads(line) for line in (cell / "episodes.jsonl").read_text().splitlines()]
        by_target = {r["target_service"]: r for r in records}
        for target in ("gitlab", "apache_struts"):
            assert by_target[target]["outcome"] == "completed"
            assert by_target[target]["objective_stage"] in by_target[target]["epochs"][-1]["gt_stages"]

        scores_csv = (out / "summary_scores.csv").read_text(encoding="utf-8").splitlines()
        header, row = scores_csv[0].split(","), scores_csv[1].split(",")
        mean = float(row[header.index("scripted")].split(" ")[0])
        assert mean >= 85.0


def test_criterion_9_determinism():
    with criterion(9, "same-seed cell reruns produce bit-identical episode logs", 30.0):
        matrix = ExperimentMatrix(
            policies=[PolicySpec(label="scripted", kind="scripted")],
            deployments=["small_mixed"],
            modes=["probabilistic"],
            seeds=[7],
            horizon=20,
        )
        cell = expand_matrix(matrix)[0]
        first = run_cell(cell, matrix)
        second = run_cell(cell, matrix)
        assert records_to_jsonl(first.records) == records_to_jsonl(second.records)

        # and through the CLI layer, bytes on disk match across whole reruns
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            assert main(["mock-demo", "--out", str(a), "--seed", "7"]) == 0
            assert main(["mock-demo", "--out", str(b), "--seed", "7"]) == 0
            name = "scripted__fully_vulnerable__deterministic__seed7"
            assert (a / name / "episodes.jsonl").read_bytes() == (b / name / "episodes.jsonl").read_bytes()
