import random

import pytest
from hypothesis import given, strategies as st

from honeysim.attackers import (
    ABANDONED,
    ACTIVE,
    COMPLETED,
    AttackerProfile,
    PersistenceModel,
    attacker_step,
    attempt_probability,
    default_attacker_queue,
    make_attacker_state,
)
from honeysim.catalog import AttackStage, deployment_config

PROBABILISTIC = PersistenceModel(mode="probabilistic", decay=0.25, floor=0.1)
CONSECUTIVE = PersistenceModel(mode="consecutive")
DETERMINISTIC = PersistenceModel(mode="deterministic")
FULLY_VULNERABLE = deployment_config("fully_vulnerable").catalog


class TestAttemptProbability:
    # hand-evaluated from max(floor, 1 - decay*g) with the g<=0 branch
    @pytest.mark.parametrize(
        "gap,expected",
        [(0, 1.0), (1, 0.75), (2, 0.5), (3, 0.25), (4, 0.1), (5, 0.1)],
    )
    def test_probabilistic_decay_values(self, gap, expected):
        assert attempt_probability(PROBABILISTIC, gap) == expected

    def test_deterministic_always_one(self):
        for gap in range(10):
            assert attempt_probability(DETERMINISTIC, gap) == 1.0

    def test_consecutive_zero_after_any_gap(self):
        assert attempt_probability(CONSECUTIVE, 0) == 1.0
        assert attempt_probability(CONSECUTIVE, 1) == 0.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            attempt_probability(PROBABILISTIC, -1)

    @given(
        decay=st.floats(0.01, 1.0),
        floor=st.floats(0.0, 1.0),
        gaps=st.lists(st.integers(0, 50), min_size=2, max_size=10),
    )
    def test_non_increasing_and_bounded(self, decay, floor, gaps):
        model = PersistenceModel(mode="probabilistic", decay=decay, floor=floor)
        values = [attempt_probability(model, g) for g in sorted(gaps)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_persistence_model_validation():
    with pytest.raises(ValueError):
        PersistenceModel(mode="stochastic")
    with pytest.raises(ValueError):
        PersistenceModel(mode="probabilistic", decay=0.0)
    with pytest.raises(ValueError):
        PersistenceModel(mode="probabilistic", floor=1.5)


def _fresh(target="gitlab", persistence=DETERMINISTIC, seed=1, **kwargs):
    profile = AttackerProfile(target_service=target, persistence=persistence, **kwargs)
    state = make_attacker_state(profile, FULLY_VULNERABLE, seed)
    return profile, state


class TestAttackerStep:
    def test_always_scans_exposed_services(self):
        profile, state = _fresh()
        actions = attacker_step(state, profile, {"xdebug", "docker_api"})
        assert actions[0].kind == "scan"
        assert actions[0].services == ("docker_api", "xdebug")

    def test_first_contact_completes_recon_and_initial_access(self):
        profile, state = _fresh()
        actions = attacker_step(state, profile, {"gitlab"})
        assert state.engaged
        assert state.current_stage == AttackStage.INITIAL_ACCESS
        assert state.completed_stages() == (AttackStage.RECONNAISSANCE, AttackStage.INITIAL_ACCESS)
        exploit = [a for a in actions if a.kind == "exploit"]
        assert len(exploit) == 1 and exploit[0].stage == AttackStage.INITIAL_ACCESS

    def test_gap_increments_only_after_engagement(self):
        profile, state = _fresh()
        attacker_step(state, profile, {"xdebug"})
        assert state.gap_epochs == 0 and not state.engaged  # waiting, no penalty
        attacker_step(state, profile, {"gitlab"})
        attacker_step(state, profile, set())
        assert state.gap_epochs == 1
        assert state.current_stage == AttackStage.INITIAL_ACCESS

    def test_gap_resets_after_successful_attempt(self):
        profile, state = _fresh(persistence=PROBABILISTIC, seed=3)
        attacker_step(state, profile, {"gitlab"})
        attacker_step(state, profile, set())
        assert state.gap_epochs == 1
        # g=1 gives p=0.75; pick a seed whose next draw succeeds
        attacker_step(state, profile, {"gitlab"})
        if state.status == ACTIVE:
            assert state.gap_epochs == 0

    def test_deterministic_runs_chain_in_exact_epochs(self):
        # one epoch per supported stage above Reconnaissance
        for target, expected in [("gitlab", 4), ("xdebug", 4), ("apache_struts", 3), ("docker_api", 2)]:
            profile, state = _fresh(target=target)
            epochs = 0
            while state.status == ACTIVE:
                attacker_step(state, profile, {target})
                epochs += 1
                assert epochs <= 10
            assert state.status == COMPLETED
            assert epochs == expected

    def test_consecutive_gap_then_contact_abandons(self):
        profile, state = _fresh(persistence=CONSECUTIVE)
        attacker_step(state, profile, {"gitlab"})
        attacker_step(state, profile, set())
        attacker_step(state, profile, {"gitlab"})
        assert state.status == ABANDONED

    def test_skip_semantics_keeps_attacker_alive(self):
        profile, state = _fresh(persistence=CONSECUTIVE, abandon_on_failure=False)
        attacker_step(state, profile, {"gitlab"})
        attacker_step(state, profile, set())
        attacker_step(state, profile, {"gitlab"})
        assert state.status == ACTIVE
        assert state.current_stage == AttackStage.INITIAL_ACCESS

    def test_objective_below_terminal_stops_early(self):
        profile, state = _fresh(objective_stage=AttackStage.USER_DATA_EXFIL)
        attacker_step(state, profile, {"gitlab"})
        assert state.status == ACTIVE
        attacker_step(state, profile, {"gitlab"})
        assert state.status == COMPLETED
        assert state.current_stage == AttackStage.USER_DATA_EXFIL

    def test_stepping_terminal_attacker_rejected(self):
        profile, state = _fresh(target="docker_api")
        assert state.status == ACTIVE  # at Reconnaissance
        attacker_step(state, profile, {"docker_api"})
        attacker_step(state, profile, {"docker_api"})
        assert state.status == COMPLETED
        assert state.current_stage == AttackStage.USER_DATA_EXFIL
        with pytest.raises(ValueError):
            attacker_step(state, profile, {"docker_api"})

    def test_exploits_stay_within_supported_stages(self):
        # random exposure schedules never produce an off-chain exploit action
        rng = random.Random(7)
        ids = FULLY_VULNERABLE.ids
        for trial in range(50):
            profile, state = _fresh(target="apache_struts", persistence=PROBABILISTIC, seed=trial)
            supported = set(FULLY_VULNERABLE.get("apache_struts").supported_stages)
            for _ in range(20):
                if state.status != ACTIVE:
                    break
                exposed = {sid for sid in ids if rng.random() < 0.5}
                actions = attacker_step(state, profile, exposed)
                for action in actions:
                    if action.kind == "exploit":
                        assert action.stage in supported

    def test_fixed_seed_reproduces_step_sequence(self):
        def trace(seed):
            profile, state = _fresh(persistence=PROBABILISTIC, seed=seed)
            schedule = [{"gitlab"}, set(), {"gitlab"}, set(), set(), {"gitlab"}, {"gitlab"}]
            out = []
            for exposed in schedule:
                if state.status != ACTIVE:
                    break
                actions = attacker_step(state, profile, exposed)
                out.append((state.current_stage, state.gap_epochs, state.status, len(actions)))
            return out

        assert trace(42) == trace(42)


def test_monte_carlo_matches_decay_formula():
    """Empirical success of attempts forced to gap 1 tracks max(0.1, 1-0.25)."""
    successes = 0
    trials = 4000
    for seed in range(trials):
        profile, state = _fresh(persistence=PROBABILISTIC, seed=seed)
        attacker_step(state, profile, {"gitlab"})  # engage at gap 0
        attacker_step(state, profile, set())  # force gap 1
        attacker_step(state, profile, {"gitlab"})
        if state.status != ABANDONED:
            successes += 1
    assert abs(successes / trials - 0.75) < 0.025


def test_default_queue_orders_by_catalog():
    queue = default_attacker_queue(FULLY_VULNERABLE, DETERMINISTIC)
    assert [p.target_service for p in queue] == ["gitlab", "xdebug", "apache_struts", "docker_api"]
    mixed = deployment_config("small_mixed").catalog
    assert [p.target_service for p in default_attacker_queue(mixed, DETERMINISTIC)] == [
        "gitlab",
        "apache_struts",
    ]


def test_profile_rejects_decoy_target():
    profile = AttackerProfile(target_service="decoy_1")
    with pytest.raises(ValueError):
        make_attacker_state(profile, deployment_config("small_mixed").catalog, 0)


def test_profile_rejects_unsupported_objective():
    profile = AttackerProfile(target_service="apache_struts", objective_stage=AttackStage.USER_DATA_EXFIL)
    with pytest.raises(ValueError):
        make_attacker_state(profile, FULLY_VULNERABLE, 0)
