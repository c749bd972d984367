"""Planted faults, each shown to fail the check written against it.

Each case applies one fault with ``monkeypatch`` and calls the check it
targets as a plain function: a contract property's body with fixed inputs,
or the pinned-bytes digest. A refactor that leaves a check unable to see its
fault fails here, not silently.
"""

import itertools
import json
from pathlib import Path

import pytest
from test_contracts import (
    check_cell_independence,
    check_interrupted_rerun,
    check_replies_keep_the_contracts,
    check_rerun,
)
from test_output_bytes import check_pinned_bytes

from honeysim import engine, harness, metrics, policies
from honeysim.policies import CellStats, RandomPolicy

# one random cell per seed in one deployment and mode, so a cell's position in the run is its seed's
RANDOM_CELLS = {
    "horizon": 5,
    "budget": 1,
    "seed_base": 0,
    "policies": ["random"],
    "deployments": ["large_mixed"],
    "persistence_modes": ["deterministic"],
    "seeds": [0, 1],
}


def test_policy_decide_without_its_clamp_breaks_the_budget(monkeypatch, tmp_path):
    def unclamped(policy, obs, belief, cfg):
        belief = policies.update_belief(belief, obs)
        decision, prediction = policy.decide(obs, belief, cfg)
        return decision, prediction, belief

    monkeypatch.setattr(engine, "policy_decide", unclamped)
    replay = tmp_path / "replay.json"
    over_budget = json.dumps({"expose": ["gitlab", "apache_struts"], "stages": []})
    replay.write_text(json.dumps([over_budget]), encoding="utf-8")
    mock = {"name": "mock", "kind": "mock", "replay": str(replay)}
    config = {**RANDOM_CELLS, "policies": [mock], "deployments": ["fully_vulnerable"], "seeds": [0]}
    with pytest.raises(AssertionError):
        check_replies_keep_the_contracts(tmp_path, config)


def test_a_random_policy_seeded_by_its_position_in_the_run_depends_on_the_matrix(monkeypatch, tmp_path):
    runs = []  # each random cell's run, named by the files object execute_matrix shares among its cells

    def by_position(self, label, matrix, honeynet, queue, files, turn_log):
        position = sum(run is files for run in runs)
        runs.append(files)
        return lambda index, seed: RandomPolicy(1000 * position + index)

    monkeypatch.setattr(harness.RandomKind, "factory", by_position)
    cell = {"policies": "random", "deployments": "large_mixed", "persistence_modes": "deterministic", "seeds": 1}
    with pytest.raises(AssertionError):
        check_cell_independence(tmp_path, RANDOM_CELLS, cell, {"seeds": [1, 0]})


def test_a_random_policy_seeded_by_a_counter_that_outlives_the_run_breaks_a_rerun(monkeypatch, tmp_path):
    counter = itertools.count()
    monkeypatch.setattr(
        harness.RandomKind, "factory", lambda self, *args: lambda index, seed: RandomPolicy(seed + next(counter))
    )
    with pytest.raises(AssertionError):
        check_rerun(tmp_path, RANDOM_CELLS)


def test_a_run_that_deletes_no_earlier_file_lets_replay_read_an_interrupted_rerun(monkeypatch, tmp_path):
    monkeypatch.setattr(Path, "unlink", lambda self, missing_ok=False: None)
    with pytest.raises(AssertionError, match="replay read"):
        check_interrupted_rerun(tmp_path, RANDOM_CELLS, 7, 1)


def test_counting_every_turn_as_a_fallback_moves_the_pinned_run_stats(monkeypatch, tmp_path):
    def every_turn_falls_back(self, latency_s, fallback_used):
        self.latencies.append(latency_s)
        self.counts["fallbacks"] += 1

    monkeypatch.setattr(CellStats, "record_turn", every_turn_falls_back)
    with pytest.raises(AssertionError, match="run_stats.json"):
        check_pinned_bytes(tmp_path)


def test_a_summary_table_without_its_last_newline_moves_the_pinned_bytes(monkeypatch, tmp_path):
    text = metrics._text
    monkeypatch.setattr(metrics, "_text", lambda *args: text(*args)[:-1])
    with pytest.raises(AssertionError, match="output bytes"):
        check_pinned_bytes(tmp_path)
