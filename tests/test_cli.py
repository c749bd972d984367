import json
import subprocess
import sys

import pytest
import yaml

from honeysim.cli import main
from honeysim.harness import (
    ConfigError,
    ExperimentMatrix,
    PolicySpec,
    expand_matrix,
    load_builtin_config,
    load_run_file,
    run_cell,
    validate_matrix,
)

TINY_CONFIG = {
    "horizon": 8,
    "budget": 1,
    "seed_base": 0,
    "seeds": [0, 1],
    "policies": ["oracle", "reactive"],
    "deployments": ["small_mixed"],
    "persistence_modes": ["deterministic"],
    "noise": {"false_positive_rate": 0.1, "hint_corruption_rate": 0.1},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_CONFIG), encoding="utf-8")
    return str(path)


class TestExpandMatrix:
    def _matrix(self, n_policies=3, n_deployments=3, n_modes=3, n_seeds=3):
        return ExperimentMatrix(
            policies=[PolicySpec(label=f"p{i}", kind="oracle") for i in range(n_policies)],
            deployments=["fully_vulnerable", "small_mixed", "large_mixed"][:n_deployments],
            modes=["deterministic", "probabilistic", "consecutive"][:n_modes],
            seeds=list(range(n_seeds)),
        )

    def test_three_by_three_by_three_by_three_gives_81(self):
        assert len(expand_matrix(self._matrix())) == 81

    def test_single_cell_matrix(self):
        assert len(expand_matrix(self._matrix(1, 1, 1, 1))) == 1

    def test_expansion_is_deterministic(self):
        a = expand_matrix(self._matrix())
        b = expand_matrix(self._matrix())
        assert a == b

    def test_derived_seeds_never_collide(self):
        cells = expand_matrix(self._matrix())
        seeds = [c.derived_seed for c in cells]
        assert len(set(seeds)) == len(seeds)

    def test_empty_axis_rejected(self):
        matrix = self._matrix()
        matrix.seeds = []
        with pytest.raises(ConfigError):
            expand_matrix(matrix)


class TestValidate:
    def test_builtin_config_is_valid(self):
        matrix = load_builtin_config()
        assert validate_matrix(matrix) == []
        assert len(expand_matrix(matrix)) == 81

    def test_cli_validate_default_config_exits_zero(self):
        assert main(["validate"]) == 0

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"persistence_modes": ["stochastic"]}, "unknown persistence mode 'stochastic'"),
            ({"persistence": {"decay": 0}}, "decay must be in (0, 1], got 0.0"),
            ({"persistence": {"floor": 1.5}}, "floor must be in [0, 1], got 1.5"),
        ],
        ids=["unknown-mode", "zero-decay", "floor-above-one"],
    )
    def test_cli_validate_broken_config_exits_nonzero(self, tmp_path, capsys, override, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**TINY_CONFIG, **override}), encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) != 0
        assert message in capsys.readouterr().err

    def test_unknown_deployment_flagged(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**TINY_CONFIG, "deployments": ["huge"]}), encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) != 0

    def test_http_policy_requires_auth_env(self, monkeypatch):
        monkeypatch.delenv("TEST_TOKEN_VAR", raising=False)
        matrix = load_builtin_config()
        matrix.policies = [PolicySpec(label="m", kind="llm", params={"backend": "b"})]
        from honeysim.harness import BackendSpec

        matrix.backends = {"b": BackendSpec(name="b", auth_env="TEST_TOKEN_VAR")}
        problems = validate_matrix(matrix)
        assert any("backend-auth-missing" in p for p in problems)
        monkeypatch.setenv("TEST_TOKEN_VAR", "x")
        assert validate_matrix(matrix) == []

    def test_offline_forbids_http_backends(self, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN_VAR", "x")
        matrix = load_builtin_config()
        matrix.policies = [PolicySpec(label="m", kind="llm", params={"backend": "b"})]
        from honeysim.harness import BackendSpec

        matrix.backends = {"b": BackendSpec(name="b", auth_env="TEST_TOKEN_VAR")}
        problems = validate_matrix(matrix, offline=True)
        assert any("forbidden in offline mode" in p for p in problems)


class TestRunAndReplay:
    def test_run_writes_cells_and_summaries(self, tiny_config, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        assert (out / "run_manifest.json").exists()
        cell_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(cell_dirs) == 4  # 2 policies x 1 deployment x 1 mode x 2 seeds
        for cell in cell_dirs:
            assert (cell / "cell.json").exists()
            assert (cell / "episodes.jsonl").exists()
        for name in (
            "summary_success_by_deployment.csv",
            "summary_success_by_persistence.csv",
            "summary_scores.csv",
        ):
            assert (out / name).exists()

    def test_replay_reproduces_summaries_byte_identically(self, tiny_config, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        before = {
            name: (out / name).read_bytes()
            for name in (
                "summary_success_by_deployment.csv",
                "summary_success_by_deployment.txt",
                "summary_success_by_persistence.csv",
                "summary_success_by_persistence.txt",
                "summary_scores.csv",
                "summary_scores.txt",
            )
        }
        assert main(["replay", "--out", str(out)]) == 0
        after = {name: (out / name).read_bytes() for name in before}
        assert before == after

    def test_replay_without_run_fails(self, tmp_path):
        assert main(["replay", "--out", str(tmp_path / "nope")]) != 0

    def test_policy_filter_and_seed_base_override(self, tiny_config, tmp_path):
        out = tmp_path / "filtered"
        code = main(
            ["run", "--config", tiny_config, "--out", str(out), "--policy", "oracle", "--seed-base", "9"]
        )
        assert code == 0
        cells = [p.name for p in out.iterdir() if p.is_dir()]
        assert all(name.startswith("oracle__") for name in cells)
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed_base"] == 9

    def test_unknown_policy_filter_fails(self, tiny_config, tmp_path):
        assert main(["run", "--config", tiny_config, "--out", str(tmp_path / "x"), "--policy", "ghost"]) != 0

    def test_workers_flag_produces_same_summaries(self, tiny_config, tmp_path):
        solo = tmp_path / "solo"
        pooled = tmp_path / "pooled"
        assert main(["run", "--config", tiny_config, "--out", str(solo)]) == 0
        assert main(["run", "--config", tiny_config, "--out", str(pooled), "--workers", "4"]) == 0
        for name in ("summary_success_by_deployment.csv", "summary_scores.csv"):
            assert (solo / name).read_bytes() == (pooled / name).read_bytes()


class TestMockDemo:
    def test_mock_demo_produces_summary_offline(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["mock-demo", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Exploitation success by deployment" in captured.out
        assert (out / "summary_scores.csv").exists()
        # scripted backend leaves turn logs for post-hoc analysis
        cell = next(p for p in out.iterdir() if p.is_dir())
        assert (cell / "turns.jsonl").exists()

    def test_mock_demo_rerun_is_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["mock-demo", "--out", str(a)]) == 0
        assert main(["mock-demo", "--out", str(b)]) == 0
        cell = "scripted__fully_vulnerable__deterministic__seed0"
        assert (a / cell / "episodes.jsonl").read_bytes() == (b / cell / "episodes.jsonl").read_bytes()


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "honeysim.cli", "validate"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "config ok" in proc.stdout


def _scripted_matrix():
    return ExperimentMatrix(
        policies=[PolicySpec(label="scripted", kind="scripted")],
        deployments=["small_mixed"],
        modes=["deterministic"],
        seeds=[0],
        horizon=10,
    )


def test_run_cell_returns_turn_logs_for_scripted_policy(tmp_path):
    matrix = _scripted_matrix()
    cell = expand_matrix(matrix)[0]
    result = run_cell(cell, matrix, out_dir=tmp_path)
    assert len(result.records) == 2
    assert all(r.outcome == "completed" for r in result.records)
    turn_file = tmp_path / cell.name / "turns.jsonl"
    turns = [json.loads(line) for line in turn_file.read_text(encoding="utf-8").splitlines()]
    assert turns and all("prompt" in t for t in turns)


def test_run_cell_streams_turns_to_disk(tmp_path):
    """Turn records land on disk during the run, not only at cell write-out."""
    matrix = _scripted_matrix()
    cell = expand_matrix(matrix)[0]
    result = run_cell(cell, matrix, out_dir=tmp_path)
    turn_file = tmp_path / cell.name / "turns.jsonl"
    assert turn_file.exists()  # written before write_cell was ever called
    turns = [json.loads(line) for line in turn_file.read_text(encoding="utf-8").splitlines()]
    # bootstrap turn plus one per epoch, for each of the two attackers
    assert len(turns) == sum(1 + r.epochs_used for r in result.records)
    # a rerun replaces rather than appends
    run_cell(cell, matrix, out_dir=tmp_path)
    assert len(turn_file.read_text(encoding="utf-8").splitlines()) == len(turns)


def test_load_run_file_round_trip(tiny_config):
    matrix = load_run_file(tiny_config)
    assert [p.label for p in matrix.policies] == ["oracle", "reactive"]
    assert matrix.horizon == 8
    assert matrix.noise.false_positive_rate == 0.1


def test_score_mode_flows_through_run_and_replay(tmp_path):
    config = tmp_path / "current.yaml"
    config.write_text(
        yaml.safe_dump({**TINY_CONFIG, "policies": ["oracle"], "score_mode": "current_stage"}),
        encoding="utf-8",
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["score_mode"] == "current_stage"
    before = (out / "summary_scores.csv").read_bytes()
    assert main(["replay", "--out", str(out)]) == 0
    assert (out / "summary_scores.csv").read_bytes() == before

    bad = tmp_path / "bad_mode.yaml"
    bad.write_text(yaml.safe_dump({**TINY_CONFIG, "score_mode": "fuzzy"}), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) != 0


class TestExplicitAttackerQueue:
    def _config(self, tmp_path, attackers):
        path = tmp_path / "custom.yaml"
        path.write_text(
            yaml.safe_dump({**TINY_CONFIG, "policies": ["oracle"], "attackers": attackers}),
            encoding="utf-8",
        )
        return str(path)

    def test_configured_attackers_replace_default_queue(self, tmp_path):
        config = self._config(
            tmp_path,
            [
                {"target": "gitlab", "objective": "UserDataExfil", "label": "early_stop"},
                {"target": "gitlab"},
            ],
        )
        out = tmp_path / "results"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        cell = next(p for p in out.iterdir() if p.is_dir())
        records = [
            json.loads(line)
            for line in (cell / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert [r["attacker_label"] for r in records] == ["early_stop", "gitlab_attacker"]
        assert records[0]["objective_stage"] == "UserDataExfil"
        assert records[0]["outcome"] == "completed"

    def test_target_must_be_exploitable_in_every_deployment(self, tmp_path):
        config = self._config(tmp_path, [{"target": "docker_api"}])
        assert main(["validate", "--config", config]) != 0  # small_mixed has no docker_api

    def test_bad_objective_flagged(self, tmp_path):
        config = self._config(tmp_path, [{"target": "apache_struts", "objective": "UserDataExfil"}])
        assert main(["validate", "--config", config]) != 0
