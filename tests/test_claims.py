"""The paper's first claim, that a policy infers the attack's progression from IDS alerts, as directional tests.

Every policy runs the built-in matrix at seeds 0-9 (3 deployments x 3 persistence modes x 10 seeds), and each
cell is scored in both score modes. A policy's score on a deployment is its mean over that deployment's 30 runs.
Two controls, defined here and not as policy kinds, expose what ``reactive`` exposes and read no alert for the
stages. Each counts the epochs each service has been exposed in the episode:

- ``exposure_only`` predicts the chain of the service in force up to that count, plus one stage, since first
  contact completes two. It reads no alert at all for its prediction.
- ``exposure_on_target`` predicts the same for the service ``reactive`` exposes next, which is the service the
  latest exploit alert names once the attack has begun. It reads alerts for the target, not for the stages.

Both controls score the same at every seed, in every cell. Nothing random reaches them: ``reactive`` acts only on
an alert of severity above 1, and every scan and noise alert has severity 1, so the false-positive draws never
move its exposure, and hint corruption changes only the stage hints the controls do not read. Once the attacker
engages, ``reactive`` exposes its target every epoch, so the gap stays 0 and every attempt succeeds with p = 1 in
all three persistence modes. The exposure, the ground truth and the controls' predictions are therefore the same
at every seed. Of the scores compared with a control, only ``reactive``'s moves with the seed: it reads the stage
hints, which hint corruption and noise alerts change. So a margin against a control is a margin against
``reactive``'s spread over seeds alone, and the margins below are stated against the measured means.
"""

import statistics
from collections import Counter
from dataclasses import replace

import pytest

from honeysim import harness, metrics
from honeysim.policies import ReactivePolicy, StagePrediction, make_prediction

SEEDS = list(range(10))
# in points of the 0-100 score, against the gaps measured at seeds 0-9 (smallest in brackets):
REACTIVE_OVER_EXPOSURE_ONLY = 3.0  # cumulative_sets 6.5-12.7 [large_mixed], current_stage 5.9-12.2 [large_mixed]
EXPOSURE_ONLY_OVER_RANDOM = 50.0  # 80.0-90.9 in both modes


class ExposureOnlyPolicy(ReactivePolicy):
    """Reactive's exposure; predicts the chain of the service in force from the epochs it has been exposed."""

    def __init__(self) -> None:
        super().__init__()
        self.epochs_exposed: Counter = Counter()

    def predicted_service(self, obs, decision):
        return obs.exposed_last[0] if obs.exposed_last else None  # none in force at the bootstrap decision

    def decide(self, obs, cfg):
        self.epochs_exposed.update(obs.exposed_last)
        decision, _ = super().decide(obs, cfg)
        service = self.predicted_service(obs, decision)
        count = self.epochs_exposed[service]
        if not count:
            return decision, StagePrediction()
        return decision, make_prediction(cfg.catalog.get(service).supported_stages[: count + 1], service)


class ExposureOnTargetPolicy(ExposureOnlyPolicy):
    """The same count, for the service reactive exposes next: the target, once an exploit alert names it."""

    def predicted_service(self, obs, decision):
        return decision.exposed[0]


def _kind(name: str, policy: type) -> harness.PolicyKind:
    class Kind(harness.PolicyKind):
        def factory(self, cfg, build):
            return lambda index, seed: policy()

    return Kind(name=name)


BUILTIN = harness.load_builtin_config()


@pytest.fixture(scope="module")
def scores() -> dict:
    """Each run's score as a list over seeds, keyed by (score mode, policy, deployment, persistence mode)."""
    controls = [
        _kind("exposure_only", ExposureOnlyPolicy),
        _kind("exposure_on_target", ExposureOnTargetPolicy),
    ]
    matrix = replace(BUILTIN, seeds=SEEDS, policies=[*BUILTIN.policies, *controls])
    runs: dict = {}
    build = harness.RunBuild(matrix).checked()  # one build for every cell, as run makes
    for cell in harness.expand_matrix(matrix):
        records, _ = harness.run_cell(cell, build)
        for mode in metrics.SCORE_MODES:
            key = (mode, cell.policy, cell.deployment, cell.persistence)
            runs.setdefault(key, []).append(100 * metrics.run_metrics(cell, records, mode).score)
    return runs


def _mean(scores: dict, mode: str, policy: str, deployment: str) -> float:
    modes = BUILTIN.persistence_modes
    return statistics.mean(s for persistence in modes for s in scores[mode, policy, deployment, persistence])


@pytest.mark.parametrize("mode", metrics.SCORE_MODES)
@pytest.mark.parametrize("deployment", BUILTIN.deployments)
def test_oracle_then_reactive_then_exposure_only_then_random(scores, mode, deployment):
    oracle, reactive, control, random = (
        _mean(scores, mode, policy, deployment) for policy in ("oracle", "reactive", "exposure_only", "random")
    )
    assert oracle >= reactive
    assert reactive >= control + REACTIVE_OVER_EXPOSURE_ONLY, (reactive, control)
    assert control >= random + EXPOSURE_ONLY_OVER_RANDOM, (control, random)


@pytest.mark.parametrize("mode", metrics.SCORE_MODES)
def test_counting_exposed_epochs_on_the_alerted_target_scores_as_the_oracle(scores, mode):
    """Stage hints add nothing once the target is known: an engaged attacker advances one stage per exposed epoch."""
    for deployment in BUILTIN.deployments:
        assert _mean(scores, mode, "exposure_on_target", deployment) == _mean(scores, mode, "oracle", deployment) == 100
        assert _mean(scores, mode, "reactive", deployment) < 100


def test_the_controls_score_the_same_at_every_seed_and_reactive_does_not(scores):
    spreads = {key: statistics.pstdev(runs) for key, runs in scores.items()}
    assert all(spread == 0 for (_, policy, _, _), spread in spreads.items() if policy.startswith("exposure_"))
    assert any(spread > 0 for (_, policy, _, _), spread in spreads.items() if policy == "reactive")
