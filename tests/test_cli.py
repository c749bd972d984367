import functools
import gc
import json
import re
import subprocess
import sys
import tempfile
import types
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import honeysim
from honeysim import cli, engine, harness
from honeysim.attackers import AttackerProfile, ScanAction
from honeysim.cli import main
from honeysim.harness import (
    POLICY_KINDS,
    ConfigError,
    ExperimentMatrix,
    LlmKind,
    MatrixFaults,
    MockKind,
    OracleKind,
    RunBuild,
    ScriptedKind,
    execute_matrix,
    expand_matrix,
    load_builtin_config,
    load_run_file,
    matrix_from_dict,
    replay_out_dir,
    run_cell,
    validate_matrix,
)
from honeysim.llm import HttpChatBackend, ScriptedMockBackend
from honeysim.settings import TYPES

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

TWO_DEPLOYMENTS = ["small_mixed", "large_mixed"]

# TINY_CONFIG with its policies driven by backend "b", which each case configures
LLM_CONFIG = {**TINY_CONFIG, "policies": [{"name": "m", "kind": "llm", "backend": "b"}]}


# policy entries refused as the config is read at policies[1], each with the end of its error line
_HOSTILE_POLICY_ENTRIES = {
    "policy-oracle-unknown-param": (
        {"name": "o", "kind": "oracle", "replay": "x.json"},
        "unknown key 'replay' in policies[1]",
    ),
    "policy-random-unknown-param": (
        {"kind": "random", "seed": 3},
        "unknown key 'seed' in policies[1]",
    ),
    "policy-static-unknown-param": (
        {"name": "s", "kind": "static", "expose": ["gitlab"], "exposee": ["decoy_1"]},
        "unknown key 'exposee' in policies[1]",
    ),
    "policy-reactive-unknown-param": (
        {"kind": "reactive", "budget": 2},
        "unknown key 'budget' in policies[1]",
    ),
    "policy-scripted-unknown-param": (
        {"kind": "scripted", "replay": "x.json"},
        "unknown key 'replay' in policies[1]",
    ),
    "policy-mock-unknown-param": (
        {"kind": "mock", "replay": "x.json", "backend": "b"},
        "unknown key 'backend' in policies[1]",
    ),
    "policy-llm-unknown-param": (
        {"kind": "llm", "backend": "b", "temperature": 2},
        "unknown key 'temperature' in policies[1]",
    ),
    "policy-static-missing-param": (
        {"kind": "static"},
        "missing key 'expose' in policies[1]",
    ),
    "policy-expose-a-string": (
        {"kind": "static", "expose": "gitlab"},
        "'policies[1].expose' must be a list of strings, got 'gitlab'",
    ),
    "policy-replay-a-number": ({"kind": "mock", "replay": 5}, "'policies[1].replay' must be a string, got 5"),
    "policy-name-a-list": ({"name": ["a"], "kind": "oracle"}, "'policies[1].name' must be a string, got ['a']"),
    "policy-name-a-number": ({"name": 5, "kind": "oracle"}, "'policies[1].name' must be a string, got 5"),
    "policy-kind-a-list": ({"name": "a", "kind": ["oracle"]}, "'policies[1].kind' must be a string, got ['oracle']"),
    "policy-empty": ({}, "policies[1]: unknown policy kind None; the kinds are "),
    "policy-unknown-kind": ("ghost", f"policies[1]: unknown policy kind 'ghost'; the kinds are {', '.join(POLICY_KINDS)}"),
    "policy-a-number": (5, "'policies[1].kind' must be a string, got 5"),
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_CONFIG), encoding="utf-8")
    return str(path)


def _log_line(record: dict, **changes) -> str:
    """One episodes.jsonl line: ``record`` with ``changes`` applied."""
    return json.dumps({**record, **changes}, sort_keys=True) + "\n"


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


class TestExpandMatrix:
    def _matrix(self, n_policies=3, n_deployments=3, n_modes=3, n_seeds=3):
        return ExperimentMatrix(
            policies=[OracleKind(name=f"p{i}") for i in range(n_policies)],
            deployments=["fully_vulnerable", "small_mixed", "large_mixed"][:n_deployments],
            persistence_modes=["deterministic", "probabilistic", "consecutive"][:n_modes],
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
        with pytest.raises(ConfigError, match="matrix axis 'seeds' is empty"):
            replace(self._matrix(), seeds=[])

    @pytest.mark.parametrize(
        "axes, fault",
        [
            ({"policies": []}, "matrix axis 'policies' is empty"),
            (
                {"deployments": [], "persistence_modes": []},
                "matrix axis 'deployments' is empty; matrix axis 'persistence_modes' is empty",
            ),
            ({"policies": [OracleKind(name="a/b")]}, "policy label 'a/b' is not a safe directory name"),
            (
                {"policies": [OracleKind(name="persistence")]},
                "policy label 'persistence' would overwrite that column of summary_scores",
            ),
            (
                {"deployments": ["nowhere"]},
                "'deployments' holds 'nowhere', not one of fully_vulnerable, small_mixed, large_mixed, custom",
            ),
            (
                {"persistence_modes": ["stochastic"]},
                "'persistence_modes' holds 'stochastic', not one of deterministic, probabilistic, consecutive",
            ),
            ({"seeds": [3, 3], "n": 1}, "cells share a directory: p0__fully_vulnerable__deterministic__seed3"),
            (
                {"policies": [OracleKind(name="p" * 224)], "n": 1},
                f"cell name '{'p' * 224}__fully_vulnerable__deterministic__seed0' is longer than a directory name may "
                "be (255 bytes)",
            ),
            (
                {"deployments": ["nowhere"], "seeds": [1, 1], "n": 1},
                "'deployments' holds 'nowhere', not one of fully_vulnerable, small_mixed, large_mixed, custom; "
                "cells share a directory: p0__nowhere__deterministic__seed1",
            ),
        ],
        ids=[
            "no-policies",
            "no-deployments-or-modes",
            "unsafe-label",
            "label-a-column",
            "unknown-deployment",
            "unknown-mode",
            "repeated-seed",
            "name-over-255-bytes",
            "unknown-deployment-and-repeated-seed",
        ],
    )
    def test_the_matrix_refuses_each_fault_of_its_axes_when_it_is_built(self, axes, fault):
        """Each fault of the axes, in one ConfigError; ``replace`` checks the new matrix again, and no field is set."""
        n = axes.pop("n", 3)
        matrix = self._matrix(n, n, n, n)
        with pytest.raises(ConfigError) as refused:
            ExperimentMatrix(**{**vars(matrix), **axes})
        assert str(refused.value) == fault
        with pytest.raises(ConfigError) as refused:
            replace(matrix, **axes)
        assert str(refused.value) == fault
        with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
            matrix.seeds = matrix.seeds

    @pytest.mark.parametrize(
        "setting, value, fault",
        [
            ("seeds", ["x"], "'seeds[0]' must be an integer, got 'x'"),
            ("seeds", [True], "'seeds[0]' must be an integer, got True"),
            ("seeds", [1.5], "'seeds[0]' must be an integer, got 1.5"),
            ("seeds", 5, "'seeds' must be a list of integers, got 5"),
            ("deployments", "small_mixed", "'deployments' must be a list of strings, got 'small_mixed'"),
            ("persistence_modes", [None], "'persistence_modes[0]' must be a string, got None"),
            ("horizon", "5", "'horizon' must be an integer, got '5'"),
            ("budget", 2.0, "'budget' must be an integer, got 2.0"),
            ("budget", True, "'budget' must be an integer, got True"),
            ("seed_base", 1.5, "'seed_base' must be an integer, got 1.5"),
            ("belief_carryover", "no", "'belief_carryover' must be true or false, got 'no'"),
            ("bootstrap", 5, "'bootstrap' must be a string, got 5"),
            ("score_mode", None, "'score_mode' must be a string, got None"),
            ("abandon_on_failure", "yes", "'attacker.abandon_on_failure' must be true or false, got 'yes'"),
        ],
        ids=[
            "text-seed", "flag-seed", "fractional-seed", "seeds-a-number", "deployments-a-text", "null-mode",
            "text-horizon", "fractional-budget", "flag-budget", "fractional-seed-base", "text-carryover",
            "bootstrap-a-number", "null-score-mode", "text-abandon",
        ],
    )
    def test_the_matrix_refuses_a_setting_of_another_type_as_a_config_does(self, setting, value, fault):
        """A library-built matrix, and ``replace``, give the text that the setting's config or manifest key gives."""
        with pytest.raises(ConfigError) as refused:
            ExperimentMatrix(**{**vars(self._matrix()), setting: value})
        assert str(refused.value) == fault
        with pytest.raises(ConfigError) as refused:
            replace(self._matrix(), **{setting: value})
        assert str(refused.value) == fault
        # abandon_on_failure is the one setting a config holds in a section, ``attacker``
        config = {"attacker": {setting: value}} if setting == "abandon_on_failure" else {setting: value}
        with pytest.raises(ConfigError) as refused:
            matrix_from_dict({**TINY_CONFIG, **config})
        assert str(refused.value) == fault

    def test_a_kind_refuses_a_name_that_is_no_string(self):
        """A policy's label is its kind's ``name``, checked as the kind is built, so no matrix holds another type."""
        with pytest.raises(ConfigError) as refused:
            OracleKind(name=5)
        assert str(refused.value) == "'name' must be a string, got 5"

    @pytest.mark.parametrize("axis", ["policies", "deployments", "persistence_modes", "seeds", "attackers"])
    def test_no_axis_of_a_built_matrix_changes_in_place(self, axis):
        """Each axis, and the attacker queue, is held as a tuple: ``replace``, which checks again, changes one."""
        matrix = replace(self._matrix(1, 1, 1, 1), attackers=[AttackerProfile(target_service="gitlab")])
        values = getattr(matrix, axis)
        assert isinstance(values, tuple) and len(values) == 1
        with pytest.raises(AttributeError):
            values.append(values[0])


class TestValidate:
    def test_builtin_config_is_valid(self):
        matrix = load_builtin_config()
        assert validate_matrix(matrix) == []
        assert len(expand_matrix(matrix)) == 81

    def test_cli_validate_default_config_exits_zero(self):
        assert main(["validate"]) == 0

    @pytest.mark.parametrize(
        "override, line",
        [
            (
                {"persistence_modes": ["stochastic"]},
                "error: config unreadable: 'persistence_modes' holds 'stochastic', "
                "not one of deterministic, probabilistic, consecutive",
            ),
            (
                {"persistence": {"decay": 0}},
                "error: config unreadable: persistence: decay must be in (0, 1], got 0.0",
            ),
            (
                {"persistence": {"floor": 1.5}},
                "error: config unreadable: persistence: floor must be in [0, 1], got 1.5",
            ),
            (
                {"noise": {"false_positive_rate": 1.5}},
                "error: config unreadable: noise: false_positive_rate must be in [0, 1], got 1.5",
            ),
            ({"bootstrap": "bogus"}, "error: config unreadable: unknown bootstrap mode 'bogus'"),
            ({"horizon": 0}, "error: config unreadable: horizon must be at least 1, got 0"),
            ({"budget": 0, "deployments": TWO_DEPLOYMENTS}, "error: config unreadable: budget must be at least 1, got 0"),
            (
                {"budget": 0, "horizon": 0, "deployments": TWO_DEPLOYMENTS},
                "error: config unreadable: horizon must be at least 1, got 0; budget must be at least 1, got 0",
            ),
            (
                {"horizon": 0, "bootstrap": "bogus"},
                "error: config unreadable: horizon must be at least 1, got 0; unknown bootstrap mode 'bogus'",
            ),
            ({"schema_version": 7}, "error: config unreadable: schema_version 7 is unknown; the only version is 1"),
            (
                "horizon: [1\n",
                "error: config unreadable: bad.yaml is not YAML: expected ',' or ']', but got '<stream end>' "
                "at line 2, column 1",
            ),
            ("[" * 5000 + "\n", "error: config unreadable: bad.yaml is nested too deep to read"),
        ],
        ids=[
            "unknown-mode",
            "zero-decay",
            "floor-above-one",
            "false-positive-above-one",
            "bad-bootstrap",
            "zero-horizon",
            "zero-budget",
            "zero-budget-and-horizon",
            "zero-horizon-and-bad-bootstrap",
            "schema-version-7",
            "not-yaml",
            "nested-too-deep",
        ],
    )
    def test_cli_validate_broken_config_exits_nonzero(self, tmp_path, monkeypatch, capsys, override, line):
        """A range fault of a section or of a value no cell changes is one line at load, not one per cell.

        So is a file that is not YAML: an override that is text is the whole file.
        """
        monkeypatch.chdir(tmp_path)
        text = override if isinstance(override, str) else yaml.safe_dump({**TINY_CONFIG, **override})
        Path("bad.yaml").write_text(text, encoding="utf-8")
        assert main(["validate", "--config", "bad.yaml"]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"attackers": ["gitlab"]}, "error: config unreadable: 'attackers[0]' must be a mapping, got 'gitlab'"),
            ({"attackers": 5}, "error: config unreadable: 'attackers' must be a list, got 5"),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "bad.json"}]},
                "replay file 'bad.json' unusable",
            ),
            ({"policies": [{"name": "s", "kind": "static", "expose": ["ghost"]}]}, "exposes ['ghost']"),
            (
                {"seeds": [0, 0]},
                "error: config unreadable: cells share a directory: oracle__small_mixed__deterministic__seed0",
            ),
            (
                {"policies": ["oracle", {"name": "oracle", "kind": "random"}]},
                "error: config unreadable: cells share a directory",
            ),
            (
                {"policies": [{"name": "../up", "kind": "oracle"}]},
                "error: config unreadable: policy label '../up' is not a safe directory name",
            ),
            (
                {"policies": [{"name": "or\0acle", "kind": "oracle"}]},
                "error: config unreadable: policy label 'or\\x00acle' is not a safe",
            ),
            (
                {"policies": [{"name": "or\ud800acle", "kind": "oracle"}]},
                "error: config unreadable: policy label 'or\\ud800acle' is not a safe",
            ),
            (
                {"policies": [{"name": "o" * 221, "kind": "oracle"}]},
                f"error: config unreadable: cell name '{'o' * 221}__small_mixed__deterministic__seed0' "
                "is longer than a directory name may be (255 bytes)",
            ),
            (
                {"deployments": ["custom"], "catalog": "catalog.yaml"},
                "no signatures for (redis, InitialAccess)",
            ),
            ({"deployments": ["custom"], "catalog": "catalog.yaml", "budget": 3}, "budget exceeds catalog"),
            (
                {"policies": [{"name": "m", "kind": "llm", "backend": ["x"]}]},
                "error: config unreadable: 'policies[0].backend' must be a string, got ['x']",
            ),
            ({"prompt_template": ["x"]}, "error: config unreadable: 'prompt_template' must be a string, got ['x']"),
            (
                {"policies": [{"name": "deployment", "kind": "oracle"}]},
                "error: config unreadable: policy label 'deployment' would overwrite",
            ),
            (
                {"policies": ["oracle", {"name": "persistence", "kind": "random"}]},
                "error: config unreadable: policy label 'persistence'",
            ),
            ({"deployments": [["small_mixed"]]}, "error: config unreadable: 'deployments[0]' must be a string, got ['small_mixed']"),
            (
                {"attackers": [{"target": "gitlab", "abandon_on_failure": "false"}]},
                "error: config unreadable: 'attackers[0].abandon_on_failure' must be true or false, got 'false'",
            ),
            (
                {"attackers": [{"target": "gitlab", "objectve": "PrivEsc"}]},
                "error: config unreadable: unknown key 'objectve' in attackers[0]",
            ),
            (
                {"deployments": ["custom"], "catalog": "quoted_flag.yaml"},
                "catalog file unusable: 'services[0].vulnerable' must be true or false, got 'false'",
            ),
            (
                {"deployments": ["custom"], "catalog": "misspelt.yaml"},
                "violation: catalog file unusable: unknown key 'port', 'vulnerabel' in services[0]",
            ),
            (
                {"deployments": ["custom"], "catalog": "no_flag.yaml"},
                "violation: catalog file unusable: missing key 'vulnerable' in services[0]",
            ),
            (
                {"deployments": ["custom"], "catalog": "lateral.yaml"},
                "violation: catalog file unusable: services[0].stages[1]: unknown attack stage: 'Lateral'",
            ),
            (
                {"deployments": ["custom"], "catalog": "not_yaml.yaml"},
                "violation: catalog file unusable: not_yaml.yaml is not YAML: "
                "expected the node content, but found '<stream end>' at line 2, column 1\n",
            ),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "numbers.json"}]},
                "violation: policy m: replay file 'numbers.json' unusable: "
                "'episodes[0]' must be a list of strings, got 1",
            ),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "number_lists.json"}]},
                "violation: policy m: replay file 'number_lists.json' unusable: "
                "'episodes[0][0]' must be a string, got 1",
            ),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "empty_script.json"}]},
                "violation: policy m: replay file 'empty_script.json' unusable: episodes[0] is empty\n",
            ),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "deep.json"}]},
                "violation: policy m: replay file 'deep.json' unusable: nested too deep to decode\n",
            ),
            (
                {"policies": [{"name": "m", "kind": "mock", "replay": "mapping.json"}]},
                "violation: policy m: replay file 'mapping.json' unusable: "
                "expected a non-empty list of responses or episode lists\n",
            ),
            (
                {"deployments": ["custom"], "catalog": "deep.yaml"},
                "violation: catalog file unusable: deep.yaml is nested too deep to read\n",
            ),
        ],
        ids=[
            "bare-string-attacker",
            "attackers-not-a-list",
            "replay-not-json",
            "static-unknown-service",
            "duplicate-seeds",
            "duplicate-labels",
            "unsafe-label",
            "nul-in-label",
            "lone-surrogate-label",
            "cell-name-over-255-bytes",
            "custom-catalog-without-signatures",
            "custom-catalog-over-budget",
            "backend-not-a-name",
            "template-list",
            "label-deployment",
            "label-persistence",
            "deployment-a-list",
            "attacker-entry-abandon-text",
            "unknown-attacker-entry-key",
            "catalog-vulnerable-text",
            "catalog-row-unknown-keys",
            "catalog-row-without-vulnerable",
            "catalog-row-unknown-stage",
            "catalog-not-yaml",
            "replay-episodes-numbers",
            "replay-episode-of-numbers",
            "replay-empty-script",
            "replay-nested-too-deep",
            "replay-not-a-list",
            "catalog-nested-too-deep",
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
        quoted_flag = {"id": "redis", "vulnerable": "false", "stages": ["Reconnaissance", "InitialAccess"]}
        Path("quoted_flag.yaml").write_text(yaml.safe_dump({"services": [quoted_flag]}), encoding="utf-8")
        misspelt = {"id": "redis", "vulnerabel": False, "port": 22, "stages": ["Reconnaissance"]}
        Path("misspelt.yaml").write_text(yaml.safe_dump({"services": [misspelt]}), encoding="utf-8")
        no_flag = {"id": "redis", "stages": ["Reconnaissance"]}
        Path("no_flag.yaml").write_text(yaml.safe_dump({"services": [no_flag]}), encoding="utf-8")
        lateral = {"id": "redis", "vulnerable": True, "stages": ["Reconnaissance", "Lateral"]}
        Path("lateral.yaml").write_text(yaml.safe_dump({"services": [lateral]}), encoding="utf-8")
        Path("not_yaml.yaml").write_text("services: [\n", encoding="utf-8")
        Path("numbers.json").write_text("[1, 2]", encoding="utf-8")
        Path("number_lists.json").write_text("[[1, 2]]", encoding="utf-8")
        Path("empty_script.json").write_text('{"episodes": [[]]}', encoding="utf-8")
        Path("deep.json").write_text("[" * 100_000, encoding="utf-8")
        Path("mapping.json").write_text('{"foo": 1}', encoding="utf-8")
        Path("deep.yaml").write_text("[" * 5000 + "\n", encoding="utf-8")
        Path("bad.yaml").write_text(yaml.safe_dump({**TINY_CONFIG, **override}), encoding="utf-8")
        assert main(["validate", "--config", "bad.yaml"]) == 2
        err = capsys.readouterr().err
        # a mistyped policy parameter or a fault of the axes is refused as the config is read, the other rows as
        # its cells are built
        assert message in err and (message.startswith("error: ") or "violation: " in err)
        assert "Traceback" not in err
        # run refuses the same config before it writes anything
        assert main(["run", "--config", "bad.yaml", "--out", "out"]) == 2
        assert message in capsys.readouterr().err
        assert not Path("out", "run_manifest.json").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_custom_catalog_with_a_numeric_id_exits_2(self, tmp_path, monkeypatch, capsys, command):
        """YAML reads `id: 80` as a number; it is refused by name, not sorted against strings mid-run."""
        monkeypatch.chdir(tmp_path)
        catalog = {
            "services": [
                {"id": "gitlab", "vulnerable": True, "stages": ["Reconnaissance", "InitialAccess"]},
                {"id": 80, "vulnerable": False, "stages": ["Reconnaissance"]},
            ]
        }
        Path("catalog.yaml").write_text(yaml.safe_dump(catalog), encoding="utf-8")
        config = {
            **TINY_CONFIG,
            "policies": ["reactive", "random", "scripted"],
            "deployments": ["custom"],
            "catalog": "catalog.yaml",
            "attackers": [{"target": "gitlab"}],
        }
        Path("custom.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        extra = ["--out", "out"] if command == "run" else []
        assert main([command, "--offline", "--config", "custom.yaml", *extra]) == 2
        err = capsys.readouterr().err
        assert "violation: catalog file unusable: 'services[1].id' must be a string, got 80" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_custom_catalog_with_a_non_string_stage_exits_2(self, tmp_path, monkeypatch, capsys, command):
        """A stage list must hold stage names: `stages: [Reconnaissance, 1]` is refused naming its row."""
        monkeypatch.chdir(tmp_path)
        catalog = {
            "services": [
                {"id": "gitlab", "vulnerable": True, "stages": ["Reconnaissance", "InitialAccess"]},
                {"id": "decoy_1", "vulnerable": False, "stages": ["Reconnaissance", 1]},
            ]
        }
        Path("catalog.yaml").write_text(yaml.safe_dump(catalog), encoding="utf-8")
        config = {**TINY_CONFIG, "deployments": ["custom"], "catalog": "catalog.yaml", "attackers": [{"target": "gitlab"}]}
        Path("custom.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        extra = ["--out", "out"] if command == "run" else []
        assert main([command, "--offline", "--config", "custom.yaml", *extra]) == 2
        err = capsys.readouterr().err
        assert "violation: catalog file unusable: 'services[1].stages[1]' must be a string, got 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({**TINY_CONFIG, "persistence": [1]}, "'persistence' must be a mapping, got [1]"),
            ({**TINY_CONFIG, "noise": 5}, "'noise' must be a mapping, got 5"),
            ({**TINY_CONFIG, "attacker": True}, "'attacker' must be a mapping, got True"),
            ({**TINY_CONFIG, "backends": ["a"]}, "'backends' must be a mapping, got ['a']"),
            ({**TINY_CONFIG, "seeds": 5}, "'seeds' must be a list of integers, got 5"),
            (["oracle"], "the top level must be a mapping, got ['oracle']"),
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
            ({**TINY_CONFIG, "horizon": True}, "'horizon' must be an integer, got True"),
            ({**TINY_CONFIG, "budget": True}, "'budget' must be an integer, got True"),
            ({**TINY_CONFIG, "seeds": [False, True]}, "'seeds[0]' must be an integer, got False"),
            (
                {**TINY_CONFIG, "noise": {"false_positive_rate": True}},
                "'noise.false_positive_rate' must be a number, got True",
            ),
            ({**LLM_CONFIG, "backends": {"b": {"base_url": 5}}}, "'backends.b.base_url' must be a string, got 5"),
            (
                {**LLM_CONFIG, "backends": {"b": {"timeout": "soon"}}},
                "'backends.b.timeout' must be a number, got 'soon'",
            ),
            (
                {**LLM_CONFIG, "backends": {"b": {"temperature": "hot"}}},
                "'backends.b.temperature' must be a number, got 'hot'",
            ),
            ({**TINY_CONFIG, "belief_carryover": "false"}, "'belief_carryover' must be true or false, got 'false'"),
            (
                {**TINY_CONFIG, "attacker": {"abandon_on_failure": "false"}},
                "'attacker.abandon_on_failure' must be true or false, got 'false'",
            ),
            ({**TINY_CONFIG, "score_mod": "current_stage"}, "unknown key 'score_mod' at the top level"),
            ({**TINY_CONFIG, "horizn": 3}, "unknown key 'horizn' at the top level"),
            ({**TINY_CONFIG, "persistence": {"decy": 0.9}}, "unknown key 'decy' in persistence"),
            ({**TINY_CONFIG, "noise": {"false_positives": 0.2}}, "unknown key 'false_positives' in noise"),
            ({**TINY_CONFIG, "attacker": {"abandon": False}}, "unknown key 'abandon' in attacker"),
            ({**TINY_CONFIG, "horizon": "5"}, "'horizon' must be an integer, got '5'"),
            ({**TINY_CONFIG, "horizon": 5.0}, "'horizon' must be an integer, got 5.0"),
            ({**TINY_CONFIG, "prompt_template": 2}, "'prompt_template' must be a string, got 2"),
            ({**TINY_CONFIG, "prompt_template": True}, "'prompt_template' must be a string, got True"),
            ({**TINY_CONFIG, "catalog": True}, "'catalog' must be a string, got True"),
            (
                {**TINY_CONFIG, "attackers": [{"target": "gitlab", "objective": 3}]},
                "'attackers[0].objective' must be a string, got 3",
            ),
            ({**TINY_CONFIG, "attackers": [{"label": "a"}]}, "missing key 'target' in attackers[0]"),
            (
                {**TINY_CONFIG, "attackers": [{"target": "gitlab", "objective": "Lateral"}]},
                "attackers[0]: unknown attack stage: 'Lateral'",
            ),
            # first contact completes Reconnaissance and the next stage: validate took it, and run overshot or crashed
            *(
                (
                    {**TINY_CONFIG, "attackers": [{"target": "gitlab"}, {"target": "gitlab", "objective": stage}]},
                    "attackers[1]: objective must be a stage past Reconnaissance, which first contact completes",
                )
                for stage in ("Reconnaissance", "recon")
            ),
            ({**TINY_CONFIG, "bootstrap": 5}, "'bootstrap' must be a string, got 5"),
            ({**TINY_CONFIG, "score_mode": ["current_stage"]}, "'score_mode' must be a string, got ['current_stage']"),
            (
                {**TINY_CONFIG, "score_mode": "fuzzy"},
                "unknown score mode 'fuzzy'; score_mode is one of cumulative_sets, current_stage",
            ),
            ({**LLM_CONFIG, "backends": {"b": {"max_tokens": "512"}}}, "'backends.b.max_tokens' must be an integer"),
            ({**LLM_CONFIG, "backends": {"b": {"kind": "grpc"}}}, "backends.b: unknown kind 'grpc'"),
            # of the right type but out of range: validate took them, and run crashed, retried each turn or read a file
            (
                {**LLM_CONFIG, "backends": {"b": {"base_url": "file:///some/dir"}}},
                "backends.b: base_url must start with http:// or https://, got 'file:///some/dir'",
            ),
            (
                {**LLM_CONFIG, "backends": {"b": {"timeout": float("inf")}}},
                "backends.b: timeout must be a finite number above 0, got inf",
            ),
            (
                {**LLM_CONFIG, "backends": {"b": {"timeout": -1}}},
                "backends.b: timeout must be a finite number above 0, got -1.0",
            ),
            ({**LLM_CONFIG, "backends": {"b": {"max_tokens": 0}}}, "backends.b: max_tokens must be at least 1, got 0"),
            (
                {**LLM_CONFIG, "backends": {"b": {"temperature": float("nan")}}},
                "backends.b: temperature must be a finite number of at least 0, got nan",
            ),
            *(
                ({**TINY_CONFIG, "policies": ["oracle", entry]}, message)
                for entry, message in _HOSTILE_POLICY_ENTRIES.values()
            ),
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
            "horizon-bool",
            "budget-bool",
            "seeds-bools",
            "false-positive-bool",
            "backend-url-number",
            "backend-timeout-text",
            "backend-temperature-text",
            "belief-carryover-text",
            "abandon-text",
            "unknown-top-level-key",
            "misspelt-horizon",
            "unknown-persistence-key",
            "unknown-noise-key",
            "unknown-attacker-key",
            "horizon-quoted",
            "horizon-float",
            "template-a-number",
            "template-a-flag",
            "catalog-a-flag",
            "attacker-objective-a-number",
            "attacker-without-target",
            "attacker-unknown-objective",
            "attacker-objective-reconnaissance",
            "attacker-objective-recon",
            "bootstrap-a-number",
            "score-mode-a-list",
            "score-mode-unknown",
            "backend-max-tokens-quoted",
            "backend-unknown-kind",
            "backend-url-file",
            "backend-timeout-inf",
            "backend-timeout-negative",
            "backend-max-tokens-zero",
            "backend-temperature-nan",
            *_HOSTILE_POLICY_ENTRIES,
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
        matrix = replace(
            load_builtin_config(),
            policies=[LlmKind(name="m", backend="b")],
            backends={"b": HttpChatBackend(auth_env="TEST_TOKEN_VAR")},
        )
        problems = validate_matrix(matrix)
        assert any("backend-auth-missing" in p for p in problems)
        with pytest.raises(MatrixFaults, match="backend-auth-missing"):
            RunBuild(matrix).checked()  # run refuses it too, before any request
        monkeypatch.setenv("TEST_TOKEN_VAR", "x")
        assert validate_matrix(matrix) == []

    def test_retry_constants_are_no_backend_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**LLM_CONFIG, "backends": {"b": {"max_retries": 9}}}), encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error: config unreadable: unknown key 'max_retries' in backends.b\n" == err

    def test_backend_is_named_by_the_policy_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TEST_TOKEN_VAR", raising=False)
        config = tmp_path / "llm.yaml"
        backends = {"b": {"auth_env": "TEST_TOKEN_VAR"}}
        config.write_text(yaml.safe_dump({**LLM_CONFIG, "backends": backends}), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "violation: backend-auth-missing: set TEST_TOKEN_VAR for backend b" in capsys.readouterr().err
        assert main(["validate", "--offline", "--config", str(config)]) == 2
        assert "violation: policy m: HTTP backend b forbidden in offline mode" in capsys.readouterr().err
        monkeypatch.setenv("TEST_TOKEN_VAR", "x")
        assert main(["validate", "--config", str(config)]) == 0

    def test_run_offline_refuses_a_model_policy_before_any_request(self, tmp_path, monkeypatch, capsys):
        """`run --offline` refuses from the build it runs: one `violation:` line, no request, no `--out`."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TEST_TOKEN_VAR", "x")
        requests = []
        monkeypatch.setattr(HttpChatBackend, "complete", lambda self, prompt: requests.append(prompt))
        config = {**LLM_CONFIG, "backends": {"b": {"auth_env": "TEST_TOKEN_VAR"}}}
        Path("llm.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "--offline", "--config", "llm.yaml", "--out", "out"]) == 2
        assert capsys.readouterr() == ("", "violation: policy m: HTTP backend b forbidden in offline mode\n")
        assert requests == [] and not Path("out").exists()

    def test_offline_forbids_http_backends(self, monkeypatch):
        monkeypatch.setenv("TEST_TOKEN_VAR", "x")
        matrix = replace(
            load_builtin_config(),
            policies=[LlmKind(name="m", backend="b")],
            backends={"b": HttpChatBackend(auth_env="TEST_TOKEN_VAR")},
        )
        problems = validate_matrix(matrix, offline=True)
        assert any("forbidden in offline mode" in p for p in problems)


def test_readme_policy_table_lists_every_kind_and_parameter():
    """The README's policy table names exactly the kinds of POLICY_KINDS, each with its parameters and their types:
    every field but the ``name`` that every kind has."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Policies\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    listed = {}
    for row in table[2:]:  # past the header and its rule
        kind, parameters = (cell.strip() for cell in row.strip("|").split("|")[:2])
        listed[kind.strip("`")] = parameters
    expected = {
        kind: ", ".join(
            f"`{f.name}` ({TYPES[f.type][1].split(' ', 1)[1]})" for f in fields(cls) if f.name != "name"
        ) or "none"
        for kind, cls in POLICY_KINDS.items()
    }
    assert listed == expected



def _readme_table_defaults(intro: str) -> dict[str, str]:
    """Each key of the README table after the line ``intro``, with the text of its "default" column."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split(f"\n{intro}\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    rows = (row.strip("|").split("|") for row in table[2:])  # past the header and its rule
    return {key.strip().strip("`"): default.strip() for key, _, default, *_ in rows}


def _literal(default: str):
    """The value of a default written as one `literal`, as YAML reads it; None for a default in words."""
    if default.startswith("`") and default.endswith("`") and default.count("`") == 2:
        return yaml.safe_load(default.strip("`"))
    return None


def test_readme_key_tables_give_the_code_defaults():
    """Each literal in the "default" column of the README's top-level and backends tables is the code's default."""
    top = _readme_table_defaults("The top level and its three sections:")
    # what a config without the key gets: the matrix's dataclass defaults and its sections'
    # a matrix refuses an empty axis when it is built, and the axes have no defaults
    matrix = matrix_from_dict({"seeds": [0], "policies": ["oracle"], "deployments": ["small_mixed"],
                               "persistence_modes": ["deterministic"]})
    named = {"schema_version": engine.SCHEMA_VERSION, "attacker.abandon_on_failure": matrix.abandon_on_failure}
    in_words = {"seeds", "policies", "deployments", "persistence_modes", "backends", "catalog", "prompt_template",
                "attackers"}
    assert {key for key, default in top.items() if _literal(default) is None} == in_words
    for key, default in top.items():
        if key not in in_words:
            value = named[key] if key in named else functools.reduce(getattr, key.split("."), matrix)
            assert (key, _literal(default), type(_literal(default))) == (key, value, type(value))
    backend = _readme_table_defaults("Each `backends:` entry, every key optional:")
    assert list(backend) == [f.name for f in fields(HttpChatBackend)]
    for key, default in backend.items():
        value = getattr(HttpChatBackend(), key)
        assert (key, _literal(default), type(_literal(default))) == (key, value, type(value))


def test_readme_library_use_example_runs():
    """The ``python`` block under the README's Library use runs in a fresh interpreter and prints what it says."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("\n```python\n", 1)[1].split("\n```\n", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "completed True 1.0\n"


def test_package_root_holds_its_modules_and_version_only():
    """Each public name has one import path, the module that defines it; the root re-exports none."""
    exported = [name for name, value in vars(honeysim).items() if not isinstance(value, types.ModuleType)]
    assert [name for name in exported if not name.startswith("_")] == []


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

    def test_replay_refuses_a_rerun_stopped_before_its_last_cell(self, tmp_path, monkeypatch, capsys):
        """A rerun with another seed base and horizon stops at its third cell: its half-written directory holds
        no manifest, so replay exits 2 instead of scoring the rerun's axes over the first run's logs."""
        config = {
            "policies": ["reactive", "random"],
            "deployments": ["large_mixed"],
            "persistence_modes": ["probabilistic"],
            "seeds": [0, 1, 2, 3],
            "seed_base": 0,
            "horizon": 20,
        }
        first, rerun = tmp_path / "first.yaml", tmp_path / "rerun.yaml"
        first.write_text(yaml.safe_dump(config), encoding="utf-8")
        rerun.write_text(yaml.safe_dump({**config, "seed_base": 9, "horizon": 3}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0

        run_cell, started = harness.run_cell, []

        def stop_at_third_cell(cell, build, out_dir=None):
            started.append(cell.name)
            if len(started) == 3:
                raise KeyboardInterrupt
            return run_cell(cell, build, out_dir)

        monkeypatch.setattr(harness, "run_cell", stop_at_third_cell)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(rerun), "--out", str(out)])
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no run_manifest.json in {out}\n"
        assert not any(p.is_file() for p in out.iterdir())  # no manifest, run_stats.json or summary is left

        monkeypatch.setattr(harness, "run_cell", run_cell)
        assert main(["run", "--config", str(rerun), "--out", str(out)]) == 0
        ran = capsys.readouterr().out
        assert main(["replay", "--out", str(out)]) == 0
        assert ran.startswith(capsys.readouterr().out)

    def test_replay_derives_no_seeds(self, tiny_config, tmp_path, monkeypatch):
        """Replay reads cells by name; the seeds a run derives for them are in no summary."""
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        ran = {p.name: p.read_bytes() for p in out.glob("summary_*")}

        def refuse(*parts):
            raise AssertionError(f"replay derived a seed from {parts}")

        monkeypatch.setattr(harness, "derive_seed", refuse)
        monkeypatch.setattr(engine, "derive_seed", refuse)
        replay_out_dir(out)
        assert {p.name: p.read_bytes() for p in out.glob("summary_*")} == ran

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
        "log",
        [
            lambda rec: '{"bad": 1}\n',
            lambda rec: "plain text\n",
            lambda rec: "",
            lambda rec: _log_line(rec, epochs=[_without(rec["epochs"][0], "alerts"), *rec["epochs"][1:]]),
            lambda rec: _log_line(rec, note="extra"),
            lambda rec: _log_line(rec, epochs=json.dumps(rec["epochs"])),
            lambda rec: _log_line(rec, epochs=[{**rec["epochs"][0], "gt_stages": 3}]),
            lambda rec: json.dumps([rec]) + "\n",
            lambda rec: "[" * 100_000 + "\n",
            None,  # a directory in the log's place
        ],
        ids=[
            "no-epochs",
            "not-json",
            "empty",
            "epoch-without-alerts",
            "extra-record-key",
            "epochs-a-string",
            "gt-stages-a-number",
            "a-json-list",
            "nested-too-deep",
            "a-directory",
        ],
    )
    def test_replay_names_a_cell_whose_log_is_corrupt(self, tiny_config, tmp_path, capsys, log):
        """``log`` turns the cell's first logged record into the text of a corrupt episodes.jsonl; None, a directory."""
        out = tmp_path / "results"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        bad = ["oracle__small_mixed__deterministic__seed1", "reactive__small_mixed__deterministic__seed0"]
        for name in bad:
            path = out / name / "episodes.jsonl"
            if log is None:
                path.unlink()
                path.mkdir()
            else:
                path.write_text(log(json.loads(path.read_text(encoding="utf-8").splitlines()[0])), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cells in run_manifest.json with a corrupt or empty episodes.jsonl: {', '.join(bad)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: "{not json", "is not a JSON run manifest"),
            (lambda m: json.dumps(["oracle"]), "the top level must be a mapping, got ['oracle']"),
            (
                lambda m: json.dumps({k: v for k, v in m.items() if k != "deployments"}),
                "'deployments' must be a list of strings, got None",
            ),
            (lambda m: json.dumps({**m, "policies": "oracle"}), "'policies' must be a list of strings"),
            (lambda m: json.dumps({**m, "seeds": ["0"]}), "'seeds[0]' must be an integer, got '0'"),
            (lambda m: json.dumps({**m, "score_mode": "fuzzy"}), "unknown score mode 'fuzzy'"),
            (
                lambda m: json.dumps({**m, "deployments": ["x/../../elsewhere"]}),
                "'deployments' holds 'x/../../elsewhere', not one of fully_vulnerable, small_mixed, large_mixed, custom",
            ),
            (
                lambda m: json.dumps({**m, "persistence_modes": ["../deterministic"]}),
                "'persistence_modes' holds '../deterministic', not one of deterministic, probabilistic, consecutive",
            ),
            (lambda m: json.dumps({**m, "schema_version": 9}), "schema_version 9 is unknown; the only version is 1"),
            (lambda m: "[" * 100_000, "is not a JSON run manifest: nested too deep to decode"),
            (lambda m: json.dumps({**m, "seeds": []}), "matrix axis 'seeds' is empty"),
            (lambda m: json.dumps({**m, "seeds": [0, 0]}), "cells share a directory: "),
            (lambda m: json.dumps({**m, "policies": ["a/b"]}), "policy label 'a/b' is not a safe directory name"),
            (
                lambda m: json.dumps({**m, "policies": ["deployment"]}),
                "policy label 'deployment' would overwrite that column of summary_scores",
            ),
        ],
        ids=[
            "not-json",
            "not-an-object",
            "no-deployments",
            "policies-text",
            "seeds-text",
            "unknown-score-mode",
            "deployment-outside-out",
            "mode-outside-out",
            "schema-version-9",
            "nested-too-deep",
            "no-seeds",
            "seeds-repeated",
            "policy-with-a-separator",
            "policy-named-deployment",
        ],
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

    @pytest.mark.parametrize("occupied", ["out", "out/oracle__small_mixed__deterministic__seed0"], ids=["out", "cell"])
    def test_run_into_a_file_exits_2_naming_it(self, tiny_config, tmp_path, capsys, occupied):
        """A file where the output directory or a cell's directory goes is refused by name, without a traceback."""
        path = tmp_path / occupied
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a directory\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", tiny_config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path} is not a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, occupied",
        [
            ("run", "run_manifest.json"),
            ("run", "summary_scores.csv"),
            ("run", "oracle__small_mixed__deterministic__seed1/episodes.jsonl"),
            ("run", "oracle__small_mixed__deterministic__seed1/turns.jsonl"),
            ("replay", "summary_success_by_persistence.txt"),
        ],
        ids=["manifest", "summary", "cell-log", "turn-log", "replay-summary"],
    )
    def test_a_directory_where_a_file_goes_exits_2_naming_it(self, tiny_config, tmp_path, capsys, command, occupied):
        """A directory where `run` or `replay` writes a file is refused by name, without a traceback."""
        out = tmp_path / "out"
        if command == "replay":
            assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
            (out / occupied).unlink()
        (out / occupied).mkdir(parents=True)
        capsys.readouterr()
        args = ["--config", tiny_config] if command == "run" else []
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output file {out / occupied} is a directory\n"
        if command == "run" and "/" not in occupied:  # the manifest's and summaries' paths are checked before any cell
            assert [p.name for p in out.iterdir()] == [occupied]

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_refused_before_anything_is_written(self, tiny_config, tmp_path, capsys, workers):
        out = tmp_path / "out"
        assert main(["run", "--config", tiny_config, "--out", str(out), "--workers", workers]) == 2
        assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_execute_matrix_refuses_workers_below_one_before_it_builds_or_writes(self, tmp_path, monkeypatch, workers):
        builds, _ = _count_builds_and_calls(monkeypatch, "deployment_config")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^--workers must be at least 1, got {workers}$"):
            execute_matrix(load_builtin_config(), out, workers=workers)
        assert builds == [] and not out.exists()

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
        # a turn line holds no wall-clock value, so the turn log is as reproducible as the episode log
        for name in ("episodes.jsonl", "turns.jsonl"):
            assert (a / cell / name).read_bytes() == (b / cell / name).read_bytes()


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "honeysim.cli", "validate"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "config ok" in proc.stdout


def _scripted_matrix():
    return ExperimentMatrix(
        policies=[ScriptedKind(name="scripted")],
        deployments=["small_mixed"],
        persistence_modes=["deterministic"],
        seeds=[0],
        horizon=10,
    )


def test_run_cell_returns_turn_logs_for_scripted_policy(tmp_path):
    matrix = _scripted_matrix()
    cell = expand_matrix(matrix)[0]
    records, _ = run_cell(cell, RunBuild(matrix).checked(), out_dir=tmp_path)
    assert len(records) == 2
    assert all(r["outcome"] == "completed" for r in records)
    turn_file = tmp_path / cell.name / "turns.jsonl"
    turns = [json.loads(line) for line in turn_file.read_text(encoding="utf-8").splitlines()]
    assert turns and all("prompt" in t for t in turns)


def test_run_cell_streams_turns_to_disk(tmp_path):
    """Turn records land on disk during the run, not only at cell write-out."""
    matrix = _scripted_matrix()
    cell, build = expand_matrix(matrix)[0], RunBuild(matrix).checked()
    records, _ = run_cell(cell, build, out_dir=tmp_path)
    turn_file = tmp_path / cell.name / "turns.jsonl"
    assert turn_file.exists()  # written before write_cell was ever called
    turns = [json.loads(line) for line in turn_file.read_text(encoding="utf-8").splitlines()]
    # bootstrap turn plus one per epoch, for each of the two attackers
    assert len(turns) == sum(1 + r["epochs_used"] for r in records)
    # a rerun replaces rather than appends
    run_cell(cell, build, out_dir=tmp_path)
    assert len(turn_file.read_text(encoding="utf-8").splitlines()) == len(turns)


def test_run_cell_deletes_a_stale_turn_log_from_a_baseline_cell(tmp_path):
    """A rerun into an existing cell directory leaves no turn log that the cell did not write."""
    matrix = ExperimentMatrix(
        policies=[OracleKind(name="oracle")],
        deployments=["small_mixed"],
        persistence_modes=["deterministic"],
        seeds=[0],
    )
    cell = expand_matrix(matrix)[0]
    stale = tmp_path / cell.name / "turns.jsonl"
    stale.parent.mkdir()
    stale.write_text('{"epoch": 1}\n', encoding="utf-8")
    run_cell(cell, RunBuild(matrix).checked(), out_dir=tmp_path)
    assert stale.parent.is_dir()
    assert not stale.exists()


def _mock_matrix(tmp_path, replays, **axes):
    """One mock policy per (label, replay file name) in ``replays``; each file holds one gitlab reply."""
    policies = []
    for label, name in replays:
        path = tmp_path / name
        path.write_text(json.dumps(['{"expose": ["gitlab"], "stages": []}']), encoding="utf-8")
        policies.append(MockKind(name=label, replay=str(path)))
    return ExperimentMatrix(
        policies=policies,
        **{"deployments": ["small_mixed"], "persistence_modes": ["deterministic"], "seeds": [0], **axes},
    )


def test_turn_log_keeps_finished_turns_and_closes_when_a_cell_crashes(tmp_path, monkeypatch):
    """A backend that raises on turn k: the cell re-raises, k-1 turns are on disk, no handle is left open."""
    matrix = _mock_matrix(tmp_path, [("mock", "replay.json")], horizon=10)
    matrix = replace(matrix, policies=[*matrix.policies, OracleKind(name="oracle")])
    mock_cell, oracle_cell = expand_matrix(matrix)
    build = RunBuild(matrix).checked()
    k = 4
    turn_log = tmp_path / mock_cell.name / "turns.jsonl"
    turns, on_disk_at_crash = [], []
    complete = ScriptedMockBackend.complete

    def crash_on_turn_k(self, prompt):
        turns.append(prompt)
        if len(turns) == k:
            on_disk_at_crash.extend(turn_log.read_text(encoding="utf-8").splitlines())
            raise RuntimeError("backend crashed")
        return complete(self, prompt)

    monkeypatch.setattr(ScriptedMockBackend, "complete", crash_on_turn_k)
    unraisable = []
    hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append  # an unclosed file warns from its finalizer, which cannot raise
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="backend crashed"):
                run_cell(mock_cell, build, out_dir=tmp_path)
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [u.exc_value for u in unraisable] == []
    # each finished turn was flushed as it was written, not when the handle closed
    assert turn_log.read_text(encoding="utf-8").splitlines() == on_disk_at_crash
    assert [json.loads(line)["prompt"] for line in on_disk_at_crash] == turns[: k - 1]
    run_cell(oracle_cell, build, out_dir=tmp_path)
    assert (tmp_path / oracle_cell.name).is_dir()
    assert not (tmp_path / oracle_cell.name / "turns.jsonl").exists()


# one of each fault a model reply can have, in turns 0 to 2 of every episode; later turns repeat the clean last reply
FAULTY_SCRIPT = [
    json.dumps({"expose": ["gitlab", "redis"], "stages": ["Reconnaissance", "Lateral"], "done": "no"}),
    "no decision in this reply",
    json.dumps({"expose": ["gitlab", "decoy_1"], "stages": []}),
    json.dumps({"expose": ["gitlab"], "stages": ["Reconnaissance"]}),
]


def _degrading_matrix(tmp_path, **axes) -> ExperimentMatrix:
    """A faulty mock, a clean mock, an over-budget static policy and the oracle."""
    faulty, clean = tmp_path / "faulty.json", tmp_path / "clean.json"
    faulty.write_text(json.dumps(FAULTY_SCRIPT), encoding="utf-8")
    clean.write_text(json.dumps(FAULTY_SCRIPT[-1:]), encoding="utf-8")
    policies = [
        MockKind(name="faulty", replay=str(faulty)),
        MockKind(name="clean", replay=str(clean)),
        harness.StaticKind(name="wide", expose=["gitlab", "apache_struts"]),
        OracleKind(name="oracle"),
    ]
    return ExperimentMatrix(
        policies=policies,
        **{"deployments": ["small_mixed"], "persistence_modes": ["deterministic"], "seeds": [0], **axes},
    )


def test_a_degraded_cell_counts_each_fault_and_logs_one_line_naming_it(tmp_path, caplog):
    matrix = _degrading_matrix(tmp_path, horizon=6)
    faulty, clean, wide, oracle = expand_matrix(matrix)
    build = RunBuild(matrix).checked()
    with caplog.at_level("WARNING"):
        records, stats = run_cell(faulty, build, out_dir=tmp_path)
    episodes = len(records)
    assert episodes == 2 and all(r["epochs_used"] >= 2 for r in records)  # every episode reaches turn 2
    assert stats.as_dict()["turns"] == sum(1 + r["epochs_used"] for r in records)
    # per episode: one dropped service, stage and done, one fallback and one over-budget reply
    once_each = ("fallbacks", "unknown_services", "unknown_stages", "non_boolean_done", "over_budget")
    assert stats.counts == {**dict.fromkeys(once_each, episodes), "unlisted_services": 0}
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        (
            "WARNING",
            f"cell {faulty.name} degraded: fallbacks=2, unknown_services=2, unknown_stages=2, "
            "non_boolean_done=2, over_budget=2",
        )
    ]
    caplog.clear()
    with caplog.at_level("WARNING"):
        for cell in (clean, oracle):
            _, stats = run_cell(cell, build, out_dir=tmp_path)
            assert not any(stats.counts.values())
        _, wide_stats = run_cell(wide, build, out_dir=tmp_path)
    over = wide_stats.counts["over_budget"]
    assert [r.getMessage() for r in caplog.records] == [f"cell {wide.name} degraded: over_budget={over}"]
    assert over > 0 and wide_stats.latencies == []


def test_run_stats_counts_do_not_depend_on_workers(tmp_path):
    """Each cell counts into its own stats, so cells sharing threads count the same as cells run one by one."""
    matrix = _degrading_matrix(tmp_path, deployments=TWO_DEPLOYMENTS, seeds=[0, 1], horizon=5)
    stats = {}
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        execute_matrix(matrix, out, workers=workers)
        stats[workers] = json.loads((out / "run_stats.json").read_text(encoding="utf-8"))
        for cell in stats[workers]["cells"]:
            latency = cell.pop("latency_s")
            assert (latency is None) == (cell["turns"] == 0)
    assert stats[1] == stats[2]
    assert [cell["cell"] for cell in stats[1]["cells"]] == [cell.name for cell in expand_matrix(matrix)]
    assert stats[1]["totals"] == {
        key: sum(cell[key] for cell in stats[1]["cells"]) for key in stats[1]["totals"]
    }
    assert stats[1]["totals"]["fallbacks"] > 0 and stats[1]["totals"]["over_budget"] > 0


def test_a_mock_with_an_empty_script_is_refused_before_any_cell_runs(tmp_path, capsys):
    """An empty script could only fall back, as if the backend were unreachable: run refuses it by index."""
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"episodes": [["{}"], []]}), encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump({**TINY_CONFIG, "policies": [{"name": "m", "kind": "mock", "replay": str(replay)}]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"violation: policy m: replay file {str(replay)!r} unusable: episodes[1] is empty\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "attackers",
    [
        [{"target": "gitlab"}, {"target": "gitlab"}],
        [{"target": "gitlab"}, {"target": "apache_struts", "label": "gitlab_attacker"}],
    ],
    ids=["one-target-twice", "a-label-that-another-derives"],
)
def test_two_attackers_of_one_label_are_refused_before_any_cell_runs(tmp_path, capsys, attackers):
    """An attacker's label seeds its episode, so two attackers of one label would log the same episode twice."""
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump({**TINY_CONFIG, "deployments": TWO_DEPLOYMENTS, "attackers": attackers}), encoding="utf-8"
    )
    out = tmp_path / "out"
    for command in (["validate"], ["run", "--out", str(out)]):
        assert main([*command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "violation: attackers share the label 'gitlab_attacker'; each attacker's label must be unique\n"
        )
    assert not out.exists()


def test_a_refused_run_leaves_the_directory_as_it_was(tmp_path):
    """A matrix with a cell that cannot be built is refused before any file is made, deleted or written: the earlier
    run in the directory keeps every byte, and replay still reads it."""
    out = tmp_path / "out"
    oracle = OracleKind(name="oracle")
    axes = {"deployments": ["small_mixed"], "persistence_modes": ["deterministic"], "seeds": [0, 1], "horizon": 4}
    harness.execute_matrix(ExperimentMatrix(policies=[oracle], **axes), out)
    ran = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    missing = str(tmp_path / "missing.json")
    refused = ExperimentMatrix(policies=[oracle, MockKind(name="mock", replay=missing)], **axes)
    with pytest.raises(ConfigError, match=f"policy mock: replay file {re.escape(repr(missing))} unusable"):
        harness.execute_matrix(refused, out)
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == ran
    replay_out_dir(out)
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == ran


@pytest.mark.parametrize(
    "config, line",
    [
        ("[" * 5000 + "\n", "error: config unreadable: config.yaml is nested too deep to read"),
        (
            {**TINY_CONFIG, "policies": [{"name": "m", "kind": "mock", "replay": "deep.json"}]},
            "violation: policy m: replay file 'deep.json' unusable: nested too deep to decode",
        ),
        (
            {**TINY_CONFIG, "seeds": [0], "deployments": ["custom"], "catalog": "deep.yaml"},
            "violation: catalog file unusable: deep.yaml is nested too deep to read",
        ),
    ],
    ids=["config", "replay-file", "catalog"],
)
def test_run_refuses_input_nested_too_deep_before_any_cell_runs(tmp_path, monkeypatch, capsys, config, line):
    """A file nested deeper than its decoder recurses is one line naming it, not a RecursionError traceback."""
    monkeypatch.chdir(tmp_path)
    Path("deep.json").write_text("[" * 100_000, encoding="utf-8")
    Path("deep.yaml").write_text("[" * 5000 + "\n", encoding="utf-8")
    Path("config.yaml").write_text(config if isinstance(config, str) else yaml.safe_dump(config), encoding="utf-8")
    assert main(["run", "--config", "config.yaml", "--out", "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not Path("out").exists()


def test_each_call_loads_each_replay_file_and_the_template_once(tmp_path, monkeypatch):
    """validate_matrix and execute_matrix each read a replay path once and the template once, not once per cell,
    also when the file fails to load."""
    matrix = _mock_matrix(
        tmp_path,
        [("mock_a", "a.json"), ("mock_a_again", "a.json"), ("mock_b", "b.json")],
        deployments=["fully_vulnerable", "small_mixed", "large_mixed"],
        persistence_modes=["deterministic", "probabilistic", "consecutive"],
        seeds=[0, 1],
        horizon=3,
    )
    loads = Counter()
    load_replay_file, builtin_template = harness.load_replay_file, harness.builtin_template
    load_template = harness.load_template

    def counted_replay(path):
        loads[Path(path).name] += 1
        return load_replay_file(path)

    def counted_template():
        loads["template"] += 1
        return builtin_template()

    def counted_template_file(path):
        loads[Path(path).name] += 1
        return load_template(path)

    monkeypatch.setattr(harness, "load_replay_file", counted_replay)
    monkeypatch.setattr(harness, "builtin_template", counted_template)
    monkeypatch.setattr(harness, "load_template", counted_template_file)
    assert validate_matrix(matrix, offline=True) == []
    assert loads == {"a.json": 1, "b.json": 1, "template": 1}
    loads.clear()
    execute_matrix(matrix, tmp_path / "out")
    assert len(list((tmp_path / "out").glob("*/turns.jsonl"))) == 3 * 3 * 3 * 2
    assert loads == {"a.json": 1, "b.json": 1, "template": 1}
    # a file that fails is read once too: a replay file two policies share and a template, neither of which exists
    missing = str(tmp_path / "missing.json")
    failing = [MockKind(name=label, replay=missing) for label in ("mock_c", "mock_c_again")]
    matrix = replace(matrix, policies=[*matrix.policies, *failing], prompt_template_path=str(tmp_path / "missing.txt"))
    loads.clear()
    faults = validate_matrix(matrix, offline=True)
    heads = ["prompt template unusable", "policy mock_c", "policy mock_c_again"]
    assert [fault.split(":")[0] for fault in faults] == heads
    assert loads == {"a.json": 1, "b.json": 1, "missing.json": 1, "missing.txt": 1}
    loads.clear()
    with pytest.raises(MatrixFaults) as refused:
        execute_matrix(matrix, tmp_path / "refused")
    assert refused.value.faults == faults and str(refused.value) == "; ".join(faults)
    assert loads == {"a.json": 1, "b.json": 1, "missing.json": 1, "missing.txt": 1}
    assert not (tmp_path / "refused").exists()


def _count_builds_and_calls(monkeypatch, name) -> tuple[list, Counter]:
    """Count each ``harness.RunBuild`` made, and each call of the harness function ``name``, from here on."""
    builds, calls = [], Counter()
    run_build, function = harness.RunBuild, getattr(harness, name)

    class CountedBuild(run_build):
        def __init__(self, *args, **kwargs):
            builds.append(args)
            super().__init__(*args, **kwargs)

    def counted(*args):
        calls[name] += 1
        return function(*args)

    monkeypatch.setattr(harness, "RunBuild", CountedBuild)
    monkeypatch.setattr(harness, name, counted)
    return builds, calls


@pytest.mark.parametrize(
    "argv, name, calls",
    [(["run", "--out", "out"], "deployment_config", 3), (["mock-demo", "--out", "out"], "builtin_template", 1)],
    ids=["run", "mock-demo"],
)
def test_run_and_mock_demo_build_once(tmp_path, monkeypatch, capsys, argv, name, calls):
    """`run` on the built-in config, with its 3 deployments, and `mock-demo` make one build, the one that runs."""
    monkeypatch.chdir(tmp_path)
    builds, counted = _count_builds_and_calls(monkeypatch, name)
    assert main(argv) == 0
    assert len(builds) == 1 and counted == {name: calls}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv", [["validate"], ["run", "--out", "out"], ["mock-demo", "--out", "out"]], ids=["validate", "run", "mock-demo"]
)
def test_each_command_expands_the_matrix_once(tmp_path, monkeypatch, capsys, argv):
    """The build checks no axis, since the matrix did when it was built: one expansion per command, for its cells."""
    monkeypatch.chdir(tmp_path)
    calls, expand = [], harness.expand_matrix

    def counted(matrix):
        calls.append(matrix)
        return expand(matrix)

    monkeypatch.setattr(harness, "expand_matrix", counted)
    monkeypatch.setattr(cli, "expand_matrix", counted)  # validate counts its cells with the name it imported
    assert main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().err == ""


def _count_run_config_checks(monkeypatch) -> list:
    """Each `RunConfig` checked from here on."""
    checks, post_init = [], engine.RunConfig.__post_init__

    def counted(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(engine.RunConfig, "__post_init__", counted)
    return checks


def test_execute_matrix_checks_one_run_config_per_deployment_and_mode(tmp_path, monkeypatch):
    """Every policy and seed at one deployment and mode runs the one `RunConfig` that the build checked."""
    checks = _count_run_config_checks(monkeypatch)
    modes, seeds = ["deterministic", "probabilistic"], [0, 1, 2]
    matrix = matrix_from_dict({**TINY_CONFIG, "deployments": TWO_DEPLOYMENTS, "persistence_modes": modes, "seeds": seeds})
    execute_matrix(matrix, tmp_path / "out")
    assert len(list((tmp_path / "out").glob("*/episodes.jsonl"))) == 2 * 2 * 2 * 3
    assert len(checks) == 2 * 2  # deployments and modes; not policies or seeds


def test_every_builtin_cell_runs_from_one_build_that_checks_one_run_config_per_deployment_and_mode(monkeypatch):
    """The built-in 81 cells, each run by the module's `run_cell` from one build: 3 x 3 checks, not 9 per cell."""
    checks = _count_run_config_checks(monkeypatch)
    matrix = load_builtin_config()
    build, cells = RunBuild(matrix).checked(), expand_matrix(matrix)
    for cell in cells:
        records, _ = harness.run_cell(cell, build)
        assert records
    assert len(cells) == 81 and len(checks) == 3 * 3


def test_a_config_makes_one_matrix_and_the_run_overrides_make_one_more(tmp_path, monkeypatch, capsys):
    """Reading a config with `attackers:` builds, and so checks, one matrix; `--policy` with `--seed-base` one more."""
    monkeypatch.chdir(tmp_path)
    config = {**TINY_CONFIG, "attackers": [{"target": "gitlab"}]}
    Path("config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    built, post_init = [], ExperimentMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ExperimentMatrix, "__post_init__", counted)
    assert load_run_file("config.yaml").attackers == (AttackerProfile(target_service="gitlab"),)
    assert len(built) == 1
    built.clear()
    argv = ["run", "--config", "config.yaml", "--out", "out", "--policy", "oracle", "--seed-base", "7"]
    assert main(argv) == 0
    assert len(built) <= 2
    assert [p.name for p in built[-1].policies] == ["oracle"] and built[-1].seed_base == 7
    axes = ("policies", "deployments", "persistence_modes", "seeds", "attackers")
    assert all(isinstance(getattr(matrix, axis), tuple) for matrix in built for axis in axes)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [["validate"], ["run", "--out", "out"]], ids=["validate", "run"])
def test_faults_of_the_axes_are_one_line_at_load(tmp_path, monkeypatch, capsys, command):
    """Repeated seeds, an unknown deployment and an unknown mode: one `error:` line naming the three, no `--out`."""
    monkeypatch.chdir(tmp_path)
    config = {**TINY_CONFIG, "seeds": [0, 0], "deployments": ["nowhere"], "persistence_modes": ["stochastic"]}
    Path("config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main([*command, "--config", "config.yaml"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: config unreadable: "
        "'deployments' holds 'nowhere', not one of fully_vulnerable, small_mixed, large_mixed, custom; "
        "'persistence_modes' holds 'stochastic', not one of deterministic, probabilistic, consecutive; "
        "cells share a directory: oracle__nowhere__stochastic__seed0, reactive__nowhere__stochastic__seed0\n",
    )
    assert not Path("out").exists()


@pytest.mark.parametrize("command", [["validate"], ["run", "--out", "out"]], ids=["validate", "run"])
def test_a_catalog_file_that_fails_is_read_once(tmp_path, monkeypatch, capsys, command):
    """An unreadable catalog under 3 policies x 3 modes on `custom`: one read, one build, one `violation:` line."""
    monkeypatch.chdir(tmp_path)
    config = {
        **TINY_CONFIG,
        "policies": ["oracle", "random", "reactive"],
        "deployments": ["custom"],
        "persistence_modes": ["deterministic", "probabilistic", "consecutive"],
        "catalog": "missing.yaml",
    }
    Path("config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    builds, counted = _count_builds_and_calls(monkeypatch, "load_catalog")
    assert main([*command, "--config", "config.yaml"]) == 2
    assert len(builds) == 1 and counted == {"load_catalog": 1}
    err = capsys.readouterr().err
    assert err == "violation: catalog file unusable: [Errno 2] No such file or directory: 'missing.yaml'\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("command", [["validate"], ["run", "--out", "out"]], ids=["validate", "run"])
@pytest.mark.parametrize("key, head", [("catalog", "catalog file"), ("prompt_template", "prompt template")])
def test_a_set_file_that_fails_is_refused_when_no_cell_loads_it(tmp_path, monkeypatch, capsys, command, key, head):
    """A catalog or prompt template that fails is one `violation:` line even when no `custom` or model cell would
    load it, and the file is read once."""
    monkeypatch.chdir(tmp_path)
    Path("config.yaml").write_text(yaml.safe_dump({**TINY_CONFIG, key: "missing.txt"}), encoding="utf-8")
    load = {"catalog": "load_catalog", "prompt_template": "load_template"}[key]
    _, counted = _count_builds_and_calls(monkeypatch, load)
    assert main([*command, "--config", "config.yaml"]) == 2
    assert counted == {load: 1}
    err = capsys.readouterr().err
    assert err == f"violation: {head} unusable: [Errno 2] No such file or directory: 'missing.txt'\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("policies", [1, 6])
def test_a_fault_raised_at_every_cell_keeps_a_traceback_of_one_raise(tmp_path, policies):
    """The build keeps each load's fault and raises it again at each cell that needs it, with a traceback of that
    raise alone: one that grew at every raise would keep every cell's frames alive."""
    labels = [{"name": f"p{i}", "kind": "oracle"} for i in range(policies)]
    config = {**TINY_CONFIG, "policies": labels, "deployments": ["custom"], "catalog": str(tmp_path / "missing.yaml")}
    build = RunBuild(matrix_from_dict(config))
    assert build.faults == [f"catalog file unusable: [Errno 2] No such file or directory: '{tmp_path / 'missing.yaml'}'"]
    depths = []
    for fault in build._loads.values():
        depth, frame = 0, fault.__traceback__
        while frame is not None:
            depth, frame = depth + 1, frame.tb_next
        depths.append(depth)
    # the catalog's fault, the honeynet's and the run config's, each raised by _load
    assert len(depths) == 3 and max(depths) <= 3


def test_load_run_file_round_trip(tiny_config):
    matrix = load_run_file(tiny_config)
    assert [p.name for p in matrix.policies] == ["oracle", "reactive"]
    assert matrix.horizon == 8
    assert matrix.noise.false_positive_rate == 0.1


def test_the_builtin_config_writes_every_default_as_the_dataclasses_declare_it():
    """Deleting each key that has a default from default_config.yaml leaves the built-in matrix unchanged."""
    from importlib import resources

    text = resources.files("honeysim.data").joinpath("default_config.yaml").read_text(encoding="utf-8")
    written = yaml.safe_load(text)
    without_defaults = {
        key: written[key] for key in ("seeds", "policies", "deployments", "persistence_modes", "backends")
    }
    assert len(without_defaults) < len(written)
    assert load_builtin_config() == matrix_from_dict(without_defaults)


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


@pytest.mark.parametrize("score_mode", ["cumulative_sets", "current_stage"])
def test_replay_equals_run_for_every_offline_policy_without_rebuilding_records(tmp_path, monkeypatch, score_mode):
    """Replay scores the logged mappings: the six summaries match run's, and no episode is run again."""
    replay = tmp_path / "replay.json"
    replies = [
        {"expose": ["gitlab"], "stages": []},
        {"expose": ["gitlab"], "stages": ["Reconnaissance", "InitialAccess"]},
        {"expose": ["apache_struts"], "stages": ["Reconnaissance", "PrivEsc"], "done": False},
        {"expose": ["decoy_1", "gitlab"], "stages": ["RootDataExfil"]},
    ]
    replay.write_text(json.dumps([json.dumps(r) for r in replies]), encoding="utf-8")
    config = tmp_path / "all_offline.yaml"
    policies = [
        "oracle",
        "random",
        "reactive",
        {"name": "static", "kind": "static", "expose": ["gitlab"]},
        "scripted",
        {"name": "mock", "kind": "mock", "replay": str(replay)},
    ]
    config.write_text(
        yaml.safe_dump(
            {
                **TINY_CONFIG,
                "policies": policies,
                "persistence_modes": ["deterministic", "probabilistic"],
                "score_mode": score_mode,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "results"
    assert main(["run", "--offline", "--config", str(config), "--out", str(out)]) == 0
    ran = {p.name: p.read_bytes() for p in out.glob("summary_*")}
    assert len(ran) == 6

    def refuse(*args, **kwargs):
        raise AssertionError("replay ran an episode")

    monkeypatch.setattr(engine, "run_episode", refuse)
    monkeypatch.setattr(harness, "run_simulation", refuse)
    for name in ran:
        (out / name).unlink()
    assert replay_out_dir(out) is not None
    assert {p.name: p.read_bytes() for p in out.glob("summary_*")} == ran


def _json_form(record: dict) -> dict:
    """A record as ``run_episode`` builds it, in its JSON form: named tuples as mappings, stages as labels."""

    def action(a):
        if isinstance(a, ScanAction):
            return {"kind": "scan", "services": list(a.services)}
        return {"kind": "exploit", "service": a.service, "stage": a.stage.label}

    def alert(a):
        return {**a._asdict(), "stage_hint": None if a.stage_hint is None else a.stage_hint.label}

    epochs = [
        {
            **epoch,
            "actions": list(map(action, epoch["actions"])),
            "alerts": list(map(alert, epoch["alerts"])),
            "decision": epoch["decision"]._asdict(),
        }
        for epoch in record["epochs"]
    ]
    return {**record, "epochs": epochs}


def test_logged_lines_are_built_in_sorted_key_order(tmp_path):
    """Records are rendered from the engine's values and turns assembled from their fields, without sorting.

    Every line equals its JSON form encoded with sorted keys: a field declared
    out of order, or a value written unlike ``json.dumps``, fails here, not
    only in a pinned digest.
    """
    replay = tmp_path / "replay.json"
    replies = [
        json.dumps({"expose": ["GitLab"], "stages": ["recon"], "done": False}),
        "no decision in this reply",
        "```json\n" + json.dumps({"expose": ["apache-struts", "redis"], "stages": ["PrivEsc", "Pivot"]}) + "\n```",
    ]
    replay.write_text(json.dumps(replies), encoding="utf-8")
    policies = [
        "oracle",
        "random",
        "reactive",
        {"name": "static", "kind": "static", "expose": ["gitlab"]},
        "scripted",
        {"name": "mock", "kind": "mock", "replay": str(replay)},
    ]
    matrix = harness.matrix_from_dict({**TINY_CONFIG, "policies": policies, "seeds": [0]})
    assert sorted(p.__class__.__name__ for p in matrix.policies) == sorted(
        kind.__name__ for name, kind in POLICY_KINDS.items() if name != "llm"
    )
    build = RunBuild(matrix).checked()  # one build for every cell, as run makes
    for cell in expand_matrix(matrix):
        records, _ = run_cell(cell, build, out_dir=tmp_path)
        assert records
        for record in records:
            assert engine.records_to_jsonl([record]) == json.dumps(_json_form(record), sort_keys=True)
    turns = (tmp_path / expand_matrix(matrix)[-1].name / "turns.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["parsed_ok"] for line in turns} == {True, False}
    for line in turns:
        turn = json.loads(line)
        assert line == json.dumps(turn, sort_keys=True)
        assert turn["parsed_ok"] == (not turn["fallback_used"])


# service ids and attacker labels that json.dumps escapes: quotes, backslashes, control and non-ASCII characters
_AWKWARD_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "a", "_", "\u00e9", "\u03a9", "\u2028", "\U0001f600"]),
    min_size=1,
    max_size=6,
)


@settings(max_examples=15, deadline=None)
@given(
    decoys=st.lists(_AWKWARD_TEXT, min_size=1, max_size=3, unique=True),
    labels=st.lists(_AWKWARD_TEXT, min_size=2, max_size=2, unique=True),  # a run config refuses a shared label
    budget=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_every_offline_kind_logs_its_json_form_with_sorted_keys(decoys, labels, budget, seed):
    """A custom catalog and attacker labels with awkward characters: each line is ``json.dumps`` of its JSON form."""
    with tempfile.TemporaryDirectory() as tmp:
        catalog, replay = Path(tmp, "catalog.yaml"), Path(tmp, "replay.json")
        services = [
            {"id": "gitlab", "vulnerable": True, "stages": ["Reconnaissance", "InitialAccess", "PrivEsc"]},
            {"id": "apache_struts", "vulnerable": True, "stages": ["Reconnaissance", "InitialAccess"]},
            *({"id": d, "display_name": d + "\t", "vulnerable": False, "stages": ["Reconnaissance"]} for d in decoys),
        ]
        catalog.write_text(yaml.safe_dump({"services": services}, allow_unicode=True), encoding="utf-8")
        replies = [
            json.dumps({"expose": [decoys[-1], "gitlab"], "stages": ["InitialAccess"], "done": False}),
            "no decision in this reply",
        ]
        replay.write_text(json.dumps(replies), encoding="utf-8")
        matrix = harness.matrix_from_dict({
            **TINY_CONFIG,
            "horizon": 4,
            "budget": budget,
            "seeds": [0],
            "seed_base": seed,
            "catalog": str(catalog),
            "deployments": ["custom"],
            "persistence_modes": ["deterministic", "probabilistic"],
            "attackers": [{"target": "gitlab", "label": labels[0]}, {"target": "apache_struts", "label": labels[1]}],
            "policies": [
                "oracle",
                "random",
                "reactive",
                {"name": "static", "kind": "static", "expose": [decoys[0]]},
                "scripted",
                {"name": "mock", "kind": "mock", "replay": str(replay)},
            ],
        })
        assert {p.__class__ for p in matrix.policies} == set(POLICY_KINDS.values()) - {LlmKind}
        build = RunBuild(matrix).checked()  # one build for every cell, as run makes
        for cell in expand_matrix(matrix):
            records, _ = run_cell(cell, build)
            assert [r["attacker_label"] for r in records] == labels
            for record in records:
                assert engine.records_to_jsonl([record]) == json.dumps(_json_form(record), sort_keys=True)


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

    def test_stages_past_the_objective_need_no_signatures(self, tmp_path, monkeypatch):
        """signatures.json has no docker_api PrivEsc; an attacker that stops before it runs."""
        monkeypatch.chdir(tmp_path)
        stages = ["Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc"]
        catalog = {
            "services": [
                {"id": "docker_api", "vulnerable": True, "stages": stages},
                {"id": "decoy_1", "vulnerable": False, "stages": ["Reconnaissance"]},
            ]
        }
        Path("catalog.yaml").write_text(yaml.safe_dump(catalog), encoding="utf-8")
        config = {
            **TINY_CONFIG,
            "policies": ["oracle", "reactive", "scripted"],
            "deployments": ["custom"],
            "catalog": "catalog.yaml",
            "attackers": [{"target": "docker_api", "objective": "UserDataExfil"}],
        }
        Path("custom.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", "--offline", "--config", "custom.yaml"]) == 0
        assert main(["run", "--offline", "--config", "custom.yaml", "--out", "out"]) == 0
        cell = Path("out") / "oracle__custom__deterministic__seed0" / "episodes.jsonl"
        record = json.loads(cell.read_text(encoding="utf-8"))
        assert (record["objective_stage"], record["outcome"]) == ("UserDataExfil", "completed")
        # without the objective the attacker aims at PrivEsc, which renders no alerts
        config["attackers"] = [{"target": "docker_api"}]
        Path("custom.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", "--offline", "--config", "custom.yaml"]) == 2


_POLICY_ENTRIES = [
    "oracle",
    "reactive",
    "random",
    "scripted",
    "ghost",
    {"name": "static", "kind": "static", "expose": ["gitlab"]},
    {"name": "static", "kind": "static", "expose": ["decoy_1"]},
    {"name": "static", "kind": "static", "expose": ["gitlab"], "exposee": ["decoy_1"]},
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
        try:
            matrix = load_run_file(str(config))
        except ConfigError:  # refused as it is read
            return
        if validate_matrix(matrix, offline=True):
            return
        out = Path(tmp) / "out"
        assert main(["run", "--offline", "--config", str(config), "--out", str(out)]) == 0
        assert len([p for p in out.iterdir() if p.is_dir()]) == len(expand_matrix(matrix))


def _live_episode_records() -> int:
    gc.collect()
    # a record built by a run or decoded by a replay: a mapping with exactly the keys of a logged record
    return sum(type(obj) is dict and obj.keys() == engine._RECORD_KEYS for obj in gc.get_objects())


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
