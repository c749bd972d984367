"""Every mapping a user writes is read under one rule: a value of another type, or an unknown key, exits 2 naming it."""

import contextlib
import copy
import io
import os
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honeysim.cli import main
from honeysim.harness import ConfigError, load_run_file
from honeysim.llm import HttpChatBackend, builtin_template
from honeysim.telemetry import NoiseConfig

# a config that validates offline and reads every mapping there is: each section, a backend entry,
# policy entries with parameters, an attacker entry, and a custom catalog with one row per service
BASE_CONFIG = {
    "schema_version": 1,
    "horizon": 4,
    "budget": 1,
    "seed_base": 0,
    "seeds": [0],
    "policies": [
        "oracle",
        {"name": "s", "kind": "static", "expose": ["gitlab"]},
        {"name": "m", "kind": "mock", "replay": "REPLAY"},
    ],
    "deployments": ["small_mixed", "custom"],
    "persistence_modes": ["deterministic"],
    "persistence": {"decay": 0.25, "floor": 0.1},
    "noise": {"false_positive_rate": 0.1, "hint_corruption_rate": 0.1},
    "attacker": {"abandon_on_failure": True},
    "belief_carryover": False,
    "bootstrap": "policy",
    "score_mode": "cumulative_sets",
    "backends": {
        "b": {
            "kind": "http_chat_completion",
            "base_url": "http://127.0.0.1:9/v1",
            "model": "m",
            "auth_env": "HONEYSIM_TEST_TOKEN",
            "temperature": 0.0,
            "max_tokens": 8,
            "timeout": 1.0,
        }
    },
    "catalog": "CATALOG",
    "prompt_template": "TEMPLATE",
    "attackers": [{"target": "gitlab", "objective": "PrivEsc", "label": "a", "abandon_on_failure": True}],
}
BASE_CATALOG = {
    "services": [
        {
            "id": "gitlab",
            "display_name": "GitLab",
            "vulnerable": True,
            "stages": ["Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc"],
        },
        {"id": "decoy_1", "display_name": "Decoy", "vulnerable": False, "stages": ["Reconnaissance"]},
    ]
}

# what each key holds, as the README's key tables say; "?" also takes null, as absent
_STR, _INT, _NUMBER, _BOOL, _NAMES, _INTS, _LIST, _MAPPING = (
    "string", "integer", "number", "bool", "list of strings", "list of integers", "list", "mapping"
)
_TOP = {
    "schema_version": _INT,
    "horizon": _INT,
    "budget": _INT,
    "seed_base": _INT,
    "seeds": _INTS,
    "policies": _LIST,
    "deployments": _NAMES,
    "persistence_modes": _NAMES,
    "persistence": _MAPPING + "?",
    "noise": _MAPPING + "?",
    "attacker": _MAPPING + "?",
    "belief_carryover": _BOOL,
    "bootstrap": _STR,
    "score_mode": _STR,
    "backends": _MAPPING + "?",
    "catalog": _STR + "?",
    "prompt_template": _STR + "?",
    "attackers": _LIST + "?",
}
_BACKEND = {
    "kind": _STR,
    "base_url": _STR,
    "model": _STR,
    "auth_env": _STR,
    "temperature": _NUMBER,
    "max_tokens": _INT,
    "timeout": _NUMBER,
}
# (the file, the path of the mapping, its name in an error line, key, type)
SITES = [
    *(("config", (), None, key, kind) for key, kind in _TOP.items()),
    ("config", ("persistence",), "persistence", "decay", _NUMBER),
    ("config", ("persistence",), "persistence", "floor", _NUMBER),
    ("config", ("noise",), "noise", "false_positive_rate", _NUMBER),
    ("config", ("noise",), "noise", "hint_corruption_rate", _NUMBER),
    ("config", ("attacker",), "attacker", "abandon_on_failure", _BOOL),
    *(("config", ("backends", "b"), "backends.b", key, kind) for key, kind in _BACKEND.items()),
    ("config", ("policies", 1), "policies[1]", "name", _STR),
    ("config", ("policies", 1), "policies[1]", "kind", _STR),
    ("config", ("policies", 1), "policies[1]", "expose", _NAMES),
    ("config", ("policies", 2), "policies[2]", "replay", _STR),
    ("config", ("policies", 3), "policies[3]", "backend", _STR),  # an llm entry, added for this key only
    ("config", ("attackers", 0), "attackers[0]", "target", _STR),
    ("config", ("attackers", 0), "attackers[0]", "objective", _STR),
    ("config", ("attackers", 0), "attackers[0]", "label", _STR),
    ("config", ("attackers", 0), "attackers[0]", "abandon_on_failure", _BOOL),
    ("catalog", (), None, "services", _LIST),
    ("catalog", ("services", 0), "services[0]", "id", _STR),
    ("catalog", ("services", 0), "services[0]", "display_name", _STR),
    ("catalog", ("services", 0), "services[0]", "vulnerable", _BOOL),
    ("catalog", ("services", 0), "services[0]", "stages", _NAMES),
]


def _has_type(value, kind: str) -> bool:
    if kind.endswith("?") and value is None:
        return True
    kind = kind.rstrip("?")
    if kind == _BOOL:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    items = {_NAMES: str, _INTS: int}.get(kind)
    if items is not None:
        return isinstance(value, list) and all(_has_type(item, _STR if items is str else _INT) for item in value)
    return isinstance(value, {_STR: str, _INT: int, _NUMBER: (int, float), _LIST: list, _MAPPING: dict}[kind])


_SCALARS = st.one_of(
    st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(["5", "true", "2.0"])
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
)


def _write_inputs(tmp: Path, site=None, value=None) -> Path:
    """The base config and its files in ``tmp``, with ``value`` at the key of ``site``; the config's path."""
    config, catalog = copy.deepcopy(BASE_CONFIG), copy.deepcopy(BASE_CATALOG)
    config["policies"][2]["replay"] = str(tmp / "replay.json")
    config["catalog"] = str(tmp / "catalog.yaml")
    config["prompt_template"] = str(tmp / "prompt.txt")
    if site is not None:
        document, path, _, key, _ = site
        if path == ("policies", 3):
            config["policies"].append({"name": "l", "kind": "llm", "backend": "b"})
        mapping = config if document == "config" else catalog
        for step in path:
            mapping = mapping[step]
        mapping[key] = value
    (tmp / "replay.json").write_text('["{\\"expose\\": [\\"gitlab\\"], \\"stages\\": []}"]', encoding="utf-8")
    (tmp / "prompt.txt").write_text(builtin_template().text, encoding="utf-8")
    (tmp / "catalog.yaml").write_text(yaml.safe_dump(catalog), encoding="utf-8")
    (tmp / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    return tmp / "config.yaml"


def test_the_base_config_validates_and_runs(tmp_path):
    """The property below starts from a config that is fine, so each exit 2 comes from the one value it changes."""
    config = _write_inputs(tmp_path)
    assert main(["validate", "--offline", "--config", str(config)]) == 0
    assert main(["run", "--offline", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len([p for p in (tmp_path / "out").iterdir() if p.is_dir()]) == 3 * 2


def test_null_is_absent_for_a_section_or_an_optional_path(tmp_path):
    """A null section, path or attacker list reads as if the key were not there."""
    nulls = ("persistence", "noise", "attacker", "backends", "catalog", "prompt_template", "attackers")
    config = {key: value for key, value in BASE_CONFIG.items() if key not in nulls and key != "policies"}
    config["deployments"] = ["small_mixed"]
    config["policies"] = ["oracle"]  # a matrix refuses an empty axis when it is built
    (tmp_path / "absent.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    (tmp_path / "null.yaml").write_text(yaml.safe_dump({**config, **dict.fromkeys(nulls)}), encoding="utf-8")
    absent = load_run_file(str(tmp_path / "absent.yaml"))
    try:
        null = load_run_file(str(tmp_path / "null.yaml"))
    except ConfigError as exc:
        raise AssertionError(f"a null key is refused, not read as absent: {exc}") from None
    assert null == absent
    assert null.attackers is None and null.backends == {} and null.catalog_path is None


@pytest.mark.parametrize(
    "cls, key, value",
    [(HttpChatBackend, "temperature", 0), (HttpChatBackend, "timeout", 5), (NoiseConfig, "false_positive_rate", 1)],
)
def test_a_setting_built_in_code_holds_what_a_config_gives(cls, key, value):
    """A whole number given for a number is held as a float, built in code as read from a config."""
    built, read = getattr(cls(**{key: value}), key), getattr(cls.read({key: value}, "x"), key)
    assert (type(built), built) == (type(read), read) == (float, float(value))


@pytest.mark.parametrize("site", SITES, ids=[f"{s[0]}:{s[2] or 'top'}.{s[3]}" for s in SITES])
@settings(max_examples=8, deadline=None)
@given(value=_VALUES)
@example(value=True)  # a bool is no integer or number, which no random draw of 8 is sure to try
def test_a_value_of_another_type_exits_2_naming_its_entry_and_key(site, value):
    """validate and run both exit 2 with one line naming the entry and the key, and every standard stream stays open."""
    _, _, entry, key, kind = site
    if _has_type(value, kind):
        return
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_inputs(Path(tmp), site, value)
        out = Path(tmp) / "out"
        for command in (["validate"], ["run", "--out", str(out)]):
            with contextlib.redirect_stderr(io.StringIO()) as stderr:
                code = main([*command, "--offline", "--config", str(config)])
            err = stderr.getvalue()
            assert code == 2, err
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(("error: ", "violation: ")), err
            assert repr(key) in lines[0] or f".{key}" in lines[0] or f"'{key}[" in lines[0], err
            assert entry is None or entry in lines[0], err
            for fd in (0, 1, 2):
                os.fstat(fd)
        assert not out.exists()
