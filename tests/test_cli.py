import gc
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim import harness
from honeysim.cli import main
from honeysim.engine import EpisodeRecord
from honeysim.harness import (
    ConfigError,
    ExperimentMatrix,
    PolicySpec,
    execute_matrix,
    expand_matrix,
    load_builtin_config,
    load_run_file,
    replay_out_dir,
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

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"bootstrap": "bogus"}, "unknown bootstrap mode 'bogus'"),
            ({"attackers": ["gitlab"]}, "attacker entry needs a 'target'"),
            ({"attackers": 5}, "'attackers' must be a list"),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "bad.json"}]},
                "replay file 'bad.json' unusable",
            ),
            ({"policies": [{"name": "s", "kind": "static", "expose": ["ghost"]}]}, "exposes ['ghost']"),
            ({"seeds": [0, 0]}, "cells share a directory: oracle__small_mixed__deterministic__seed0"),
            ({"policies": ["oracle", {"name": "oracle", "kind": "random"}]}, "cells share a directory"),
            ({"policies": [{"name": "../up", "kind": "oracle"}]}, "not a safe directory name"),
            (
                {"deployments": ["custom"], "catalog": "catalog.yaml"},
                "no signatures for (redis, InitialAccess)",
            ),
            ({"deployments": ["custom"], "catalog": "catalog.yaml", "budget": 3}, "budget exceeds catalog"),
            ({"policies": [{"name": "m", "kind": "llm", "backend": ["x"]}]}, "unknown backend ['x']"),
            ({"prompt_template": ["x"]}, "prompt template unusable"),
        ],
        ids=[
            "bad-bootstrap",
            "bare-string-attacker",
            "attackers-not-a-list",
            "replay-not-json",
            "static-unknown-service",
            "duplicate-seeds",
            "duplicate-labels",
            "unsafe-label",
            "custom-catalog-without-signatures",
            "custom-catalog-over-budget",
            "backend-not-a-name",
            "template-list",
        ],
    )
    def test_cli_validate_rejects_what_run_cannot_run(self, tmp_path, monkeypatch, capsys, override, message):
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text("{not json", encoding="utf-8")
        catalog = {
            "services": [
                {"id": "redis", "vulnerable": True, "stages": ["Reconnaissance", "InitialAccess"]},
                {"id": "decoy_1", "vulnerable": False, "stages": ["Reconnaissance"]},
            ]
        }
        Path("catalog.yaml").write_text(yaml.safe_dump(catalog), encoding="utf-8")
        Path("bad.yaml").write_text(yaml.safe_dump({**TINY_CONFIG, **override}), encoding="utf-8")
        assert main(["validate", "--config", "bad.yaml"]) == 2
        err = capsys.readouterr().err
        assert "violation: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({**TINY_CONFIG, "persistence": [1]}, "'persistence' must be a mapping, got [1]"),
            ({**TINY_CONFIG, "noise": 5}, "'noise' must be a mapping, got 5"),
            ({**TINY_CONFIG, "attacker": True}, "'attacker' must be a mapping, got True"),
            ({**TINY_CONFIG, "backends": ["a"]}, "'backends' must be a mapping, got ['a']"),
            ({**TINY_CONFIG, "seeds": 5}, "'seeds' must be a list, got 5"),
            (["oracle"], "a run config must be a mapping, got ['oracle']"),
            ({**TINY_CONFIG, "horizon": [1]}, "'horizon' must be an integer, got [1]"),
            ({**TINY_CONFIG, "horizon": 1e400}, "'horizon' must be an integer, got inf"),
            ({**TINY_CONFIG, "horizon": 2.9}, "'horizon' must be an integer, got 2.9"),
            ({**TINY_CONFIG, "budget": {"a": 1}}, "'budget' must be an integer, got {'a': 1}"),
            ({**TINY_CONFIG, "seed_base": "x"}, "'seed_base' must be an integer, got 'x'"),
            ({**TINY_CONFIG, "seeds": [0, [1]]}, "'seeds[1]' must be an integer, got [1]"),
            ({**TINY_CONFIG, "persistence": {"decay": [0.5]}}, "'persistence.decay' must be a number, got [0.5]"),
            ({**TINY_CONFIG, "persistence": {"floor": {"x": 1}}}, "'persistence.floor' must be a number"),
            ({**TINY_CONFIG, "noise": {"false_positive_rate": [0.1]}}, "'noise.false_positive_rate' must be"),
            ({**TINY_CONFIG, "noise": {"hint_corruption_rate": None}}, "'noise.hint_corruption_rate' must be"),
        ],
        ids=[
            "persistence-list",
            "noise-number",
            "attacker-bool",
            "backends-list",
            "seeds-number",
            "top-level-list",
            "horizon-list",
            "horizon-inf",
            "horizon-fraction",
            "budget-mapping",
            "seed-base-text",
            "seed-list",
            "decay-list",
            "floor-mapping",
            "false-positive-list",
            "hint-null",
        ],
    )
    def test_cli_validate_malformed_section_exits_2(self, tmp_path, capsys, config, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--out", str(out)]):
            assert main([*command, "--offline", "--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert f"error: config unreadable: {message}" in err
            assert "Traceback" not in err
        assert not out.exists()

    def test_cli_validate_broken_yaml_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("horizon: [1\n", encoding="utf-8")
        assert main(["validate", "--offline", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: config unreadable: {bad} is not YAML" in err
        assert "Traceback" not in err

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

    def test_replay_reads_only_the_cells_in_the_manifest(self, tiny_config, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        assert main(["run", "--config", tiny_config, "--out", str(out), "--policy", "oracle"]) == 0
        ran = {p.name: p.read_bytes() for p in out.glob("summary_*")}
        assert main(["replay", "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.glob("summary_*")} == ran
        assert b"reactive" not in ran["summary_scores.csv"]

    def test_replay_names_a_cell_whose_log_is_missing(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        gone = ["oracle__small_mixed__deterministic__seed0", "reactive__small_mixed__deterministic__seed1"]
        for name in gone:
            (out / name / "episodes.jsonl").unlink()
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cells in run_manifest.json without episodes.jsonl: {', '.join(gone)}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: "{not json", "is not a JSON run manifest"),
            (lambda m: json.dumps(["oracle"]), "must hold a JSON object, got ['oracle']"),
            (
                lambda m: json.dumps({k: v for k, v in m.items() if k != "deployments"}),
                "'deployments' must be a list of str, got None",
            ),
            (lambda m: json.dumps({**m, "policies": "oracle"}), "'policies' must be a list of str"),
            (lambda m: json.dumps({**m, "seeds": ["0"]}), "'seeds' must be a list of int, got ['0']"),
            (lambda m: json.dumps({**m, "score_mode": "fuzzy"}), "unknown score mode 'fuzzy'"),
        ],
        ids=["not-json", "not-an-object", "no-deployments", "policies-text", "seeds-text", "unknown-score-mode"],
    )
    def test_replay_malformed_manifest_exits_2_naming_it(self, tiny_config, tmp_path, capsys, edit, message):
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        manifest = out / "run_manifest.json"
        manifest.write_text(edit(json.loads(manifest.read_text(encoding="utf-8"))), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {manifest}" in err and message in err
        assert "Traceback" not in err

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


_POLICY_ENTRIES = [
    "oracle",
    "reactive",
    "random",
    "scripted",
    "ghost",
    {"name": "static", "kind": "static", "expose": ["gitlab"]},
    {"name": "static", "kind": "static", "expose": ["decoy_1"]},
    {"name": "..", "kind": "oracle"},
]
_ONE_FIELD_CHANGES = {
    "horizon": st.integers(-1, 12),
    "budget": st.integers(0, 5),
    "seeds": st.lists(st.integers(0, 3), max_size=3),
    "policies": st.lists(st.sampled_from(_POLICY_ENTRIES), max_size=3),
    "deployments": st.lists(
        st.sampled_from(["fully_vulnerable", "small_mixed", "large_mixed", "huge", "custom"]), max_size=2
    ),
    "persistence_modes": st.lists(
        st.sampled_from(["deterministic", "probabilistic", "consecutive", "stochastic"]), max_size=2
    ),
    "persistence": st.fixed_dictionaries(
        {"decay": st.sampled_from([0, 0.5, 1, 2]), "floor": st.sampled_from([0, 1, 1.5])}
    ),
    "bootstrap": st.sampled_from(["policy", "first_service", "bogus"]),
    "score_mode": st.sampled_from(["cumulative_sets", "current_stage", "fuzzy"]),
    "attackers": st.lists(
        st.one_of(
            st.sampled_from(["gitlab", {}, {"target": "gitlab", "objective": "Lateral"}]),
            st.fixed_dictionaries(
                {"target": st.sampled_from(["gitlab", "apache_struts", "docker_api", "decoy_1", "ghost"])},
                optional={"objective": st.sampled_from(["InitialAccess", "UserDataExfil", "RootDataExfil"])},
            ),
        ),
        max_size=2,
    ),
}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(*(st.tuples(st.just(k), v) for k, v in _ONE_FIELD_CHANGES.items())))
def test_validated_config_runs_into_one_directory_per_cell(change):
    """A config that validates runs to completion and writes every cell to its own directory."""
    field, value = change
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump({**TINY_CONFIG, field: value}), encoding="utf-8")
        matrix = load_run_file(str(config))
        if validate_matrix(matrix, offline=True):
            return
        out = Path(tmp) / "out"
        assert main(["run", "--offline", "--config", str(config), "--out", str(out)]) == 0
        assert len([p for p in out.iterdir() if p.is_dir()]) == len(expand_matrix(matrix))


def _live_episode_records() -> int:
    gc.collect()
    return sum(isinstance(obj, EpisodeRecord) for obj in gc.get_objects())


@pytest.mark.parametrize("step, workers", [("run", 1), ("run", 2), ("replay", 1)])
def test_no_episode_record_outlives_its_cell(tiny_config, tmp_path, monkeypatch, step, workers):
    """When the summaries are written, every cell is already reduced to its run metrics."""
    matrix = load_run_file(tiny_config)
    out = tmp_path / "results"
    if step == "replay":
        execute_matrix(matrix, out)
    live_at_summaries = []
    write_summaries = harness.write_summaries

    def counting(out_dir, runs, matrix):
        live_at_summaries.append(_live_episode_records())
        return write_summaries(out_dir, runs, matrix)

    monkeypatch.setattr(harness, "write_summaries", counting)
    if step == "run":
        execute_matrix(matrix, out, workers=workers)
    else:
        replay_out_dir(out)
    assert live_at_summaries == [0]
