"""The README's run contracts as properties over small matrices: at most 8 cells, horizon at most 5.

- A cell's logs do not depend on the matrix around it: run alone, or inside
  a larger matrix whose axes are permuted, it writes the same bytes.
- ``replay`` of a run of every offline policy kind, in either score mode,
  reduces each cell to the run's metrics and writes the run's summaries.
- No reply text a model sends can expose a service outside the catalog or
  over the budget, or end an episode other than in one of the four outcomes;
  and ``replay`` rebuilds the run's summaries byte for byte.
- A rerun into the first run's directory writes the same bytes in every file,
  ``run_stats.json`` with its latencies masked.
- A rerun with another seed base that stops at any cell leaves a directory
  that ``replay`` refuses, and a complete rerun after it writes the first
  run's bytes again.
- A run on two worker threads writes the bytes a run on one writes in every
  file, ``run_stats.json`` with its latencies masked.

Each property's body is a plain function, so ``test_faults_are_caught.py``
can show it fails on a planted fault.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_output_bytes import masked_run_stats

from honeysim import engine, harness
from honeysim.attackers import PERSISTENCE_MODES
from honeysim.catalog import DEPLOYMENT_NAMES, deployment_config
from honeysim.harness import ConfigError, execute_matrix, expand_matrix, matrix_from_dict, replay_out_dir

CELL_FILES = ("cell.json", "episodes.jsonl", "turns.jsonl")
OUTCOMES = {
    engine.OUTCOME_COMPLETED,
    engine.OUTCOME_ABANDONED,
    engine.OUTCOME_DECLARED_DONE,
    engine.OUTCOME_HORIZON,
}
MAX_CELLS = 8
AXES = ("policies", "deployments", "persistence_modes", "seeds")


def _run(config: dict, out: Path, workers: int = 1) -> list:
    """Run ``config`` into ``out`` on ``workers`` threads; its cells in matrix order."""
    matrix = matrix_from_dict(config)
    execute_matrix(matrix, out, workers)
    return expand_matrix(matrix)


def _cell_bytes(out: Path, name: str) -> dict:
    """Each of a cell's files as bytes, None for one it lacks (a cell without model turns has no turn log)."""
    files = {f: out / name / f for f in CELL_FILES}
    return {f: path.read_bytes() if path.exists() else None for f, path in files.items()}


def _run_bytes(out: Path) -> dict:
    """Every file under ``out`` as bytes by its relative path; run_stats.json with its latencies masked."""
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    files[harness.STATS_NAME] = masked_run_stats(out).encode("utf-8")
    return files


@st.composite
def _axes(draw, policies) -> dict:
    """The four axes of a matrix of at most ``MAX_CELLS`` cells, ``policies`` drawn from the given labels."""
    axes = {
        "policies": draw(st.lists(st.sampled_from(policies), min_size=1, max_size=2, unique=True)),
        "deployments": draw(st.lists(st.sampled_from(DEPLOYMENT_NAMES), min_size=1, max_size=2, unique=True)),
        "persistence_modes": draw(st.lists(st.sampled_from(PERSISTENCE_MODES), min_size=1, max_size=2, unique=True)),
    }
    room = MAX_CELLS // (len(axes["policies"]) * len(axes["deployments"]) * len(axes["persistence_modes"]))
    axes["seeds"] = draw(st.lists(st.integers(0, 99), min_size=1, max_size=room, unique=True))
    return axes


_SETTINGS = {
    "horizon": st.integers(1, 5),
    "budget": st.integers(1, 3),
    "seed_base": st.integers(0, 2**16),
    "belief_carryover": st.booleans(),
    "bootstrap": st.sampled_from(["policy", "first_service"]),
}

# a bootstrap reply over budget, then one without a decision, so the model cells fall back and clamp too
_MOCK_REPLIES = [
    json.dumps({"expose": ["gitlab", "apache_struts", "decoy_1", "ghost"], "stages": ["Reconnaissance"]}),
    "no decision in this reply",
    json.dumps({"expose": ["apache_struts"], "stages": ["Reconnaissance", "InitialAccess"]}),
]


def _with_mock_replies(tmp: Path, axes: dict, cell_settings: dict) -> dict:
    """The matrix config of ``axes`` and ``cell_settings``, its ``mock`` policy replaying ``_MOCK_REPLIES``
    and its ``static`` policy exposing gitlab, which every deployment has."""
    replay = tmp / "replay.json"
    replay.write_text(json.dumps(_MOCK_REPLIES), encoding="utf-8")
    entries = {
        "mock": {"name": "mock", "kind": "mock", "replay": str(replay)},
        "static": {"name": "static", "kind": "static", "expose": ["gitlab"]},
    }
    return {**cell_settings, **axes, "policies": [entries.get(p, p) for p in axes["policies"]]}


def check_cell_independence(tmp: Path, config: dict, cell: dict, permuted: dict) -> None:
    """The cell with the axis values ``cell`` gives writes the same bytes inside ``config``'s matrix, run alone,
    and inside the matrix with its axes in the orders ``permuted`` gives."""
    _run(config, tmp / "matrix")
    name = _run({**config, **{axis: [value] for axis, value in cell.items()}}, tmp / "alone")[0].name
    _run({**config, **permuted}, tmp / "permuted")

    expected = _cell_bytes(tmp / "matrix", name)
    assert expected["episodes.jsonl"]
    assert _cell_bytes(tmp / "alone", name) == expected
    assert _cell_bytes(tmp / "permuted", name) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    axes=_axes(["oracle", "random", "reactive", "scripted", "mock"]),
    cell_settings=st.fixed_dictionaries(_SETTINGS),
    data=st.data(),
)
def test_a_cell_writes_the_same_bytes_alone_as_inside_a_permuted_matrix(axes, cell_settings, data):
    with tempfile.TemporaryDirectory() as tmp:
        config = _with_mock_replies(Path(tmp), axes, cell_settings)
        cell = {axis: data.draw(st.sampled_from(config[axis]), label=f"cell {axis}") for axis in AXES}
        permuted = {axis: data.draw(st.permutations(config[axis]), label=axis) for axis in AXES}
        check_cell_independence(Path(tmp), config, cell, permuted)


def check_replay_equals_run(tmp: Path, config: dict) -> None:
    """``replay`` of ``config``'s run reduces every cell to the run's metrics and rewrites its six summaries."""
    out = tmp / "out"
    write_summaries, reduced = harness.write_summaries, []

    def keep(out_dir, runs, matrix):
        reduced.append(list(runs))
        return write_summaries(out_dir, runs, matrix)

    with mock.patch.object(harness, "write_summaries", keep):
        _run(config, out)
        summaries = {p.name: p.read_bytes() for p in out.glob("summary_*")}
        assert len(summaries) == 6
        for name in summaries:
            (out / name).unlink()
        try:
            replay_out_dir(out)
        except Exception as exc:  # a replay that cannot score what run logged gives no summaries at all
            raise AssertionError(f"replay of {out} failed: {exc!r}") from exc
    assert reduced[1] == reduced[0]
    assert {p.name: p.read_bytes() for p in out.glob("summary_*")} == summaries


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    axes=_axes(["oracle", "random", "reactive", "static", "scripted", "mock"]),
    cell_settings=st.fixed_dictionaries({**_SETTINGS, "score_mode": st.sampled_from(["cumulative_sets", "current_stage"])}),
)
def test_replay_reduces_every_cell_as_run_did(axes, cell_settings):
    with tempfile.TemporaryDirectory() as tmp:
        check_replay_equals_run(Path(tmp), _with_mock_replies(Path(tmp), axes, cell_settings))


_SERVICE_NAMES = ["gitlab", "GitLab", "xdebug", "apache_struts", "docker_api", "decoy_1", "decoy_4", "ghost", ""]
_STAGE_NAMES = ["Reconnaissance", "recon", "InitialAccess", "PrivEsc", "RootDataExfil", "Lateral", 3]
_DECISIONS = st.builds(
    lambda expose, stages, done: json.dumps({"expose": expose, "stages": stages, "done": done}),
    st.lists(st.sampled_from(_SERVICE_NAMES), max_size=7),  # as often over budget as not
    st.lists(st.sampled_from(_STAGE_NAMES), max_size=3),
    st.sampled_from([False, True, "false", 1, None]),
)
_FRAGMENTS = st.lists(
    st.sampled_from(
        ["{", "}", "[", "]", ":", ",", '"', "\\", '"expose"', '"stages"', '"done"', '"gitlab"', '"decoy_1"',
         "true", "null", "```json\n", "```", " prose "]
    ),
    max_size=24,
).map("".join)
_REPLIES = st.one_of(
    _DECISIONS,
    _DECISIONS.map(lambda d: f"Here is my decision:\n```json\n{d}\n```\nThanks."),
    _FRAGMENTS,
    st.text(max_size=30),
)
# a flat script, or one script per episode
_SCRIPTS = st.one_of(
    st.lists(_REPLIES, min_size=1, max_size=6),
    st.lists(st.lists(_REPLIES, min_size=1, max_size=4), min_size=1, max_size=3),
)


def check_replies_keep_the_contracts(tmp: Path, config: dict) -> None:
    """Every exposure of ``config``'s run is in the catalog and within the budget, every episode ends in one of
    the four outcomes, and ``replay`` rewrites the run's summaries byte for byte."""
    out = tmp / "out"
    cells = _run(config, out)

    budget = config["budget"]
    for cell in cells:
        catalog = set(deployment_config(cell.deployment).catalog.ids)
        lines = (out / cell.name / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines
        for record in map(json.loads, lines):
            assert record["outcome"] in OUTCOMES
            exposures = [record["bootstrap_exposed"]]
            for epoch in record["epochs"]:
                exposures += [epoch["exposed"], epoch["decision"]["exposed"]]
            for exposed in exposures:
                assert len(set(exposed)) == len(exposed) <= budget, (cell.name, exposed)
                assert catalog.issuperset(exposed), (cell.name, exposed)

    summaries = {p.name: p.read_bytes() for p in out.glob("summary_*")}
    assert len(summaries) == 6
    replay_out_dir(out)
    assert {p.name: p.read_bytes() for p in out.glob("summary_*")} == summaries


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    axes=_axes(["mock_a", "mock_b"]),
    scripts=st.tuples(_SCRIPTS, _SCRIPTS),
    cell_settings=st.fixed_dictionaries(_SETTINGS),
)
def test_no_reply_text_breaks_the_budget_the_outcomes_or_replay(axes, scripts, cell_settings):
    with tempfile.TemporaryDirectory() as tmp:
        entries = {}
        for label, script in zip(("mock_a", "mock_b"), scripts):
            replay = Path(tmp, f"{label}.json")
            replay.write_text(json.dumps(script), encoding="utf-8")
            entries[label] = {"name": label, "kind": "mock", "replay": str(replay)}
        config = {**cell_settings, **axes, "policies": [entries[p] for p in axes["policies"]]}
        check_replies_keep_the_contracts(Path(tmp), config)


def check_rerun(tmp: Path, config: dict) -> None:
    """A rerun of ``config`` into the first run's directory writes the same bytes in every file."""
    out = tmp / "out"
    _run(config, out)
    first = _run_bytes(out)
    _run(config, out)
    assert _run_bytes(out) == first


@settings(max_examples=30, deadline=None, derandomize=True)
@given(axes=_axes(["oracle", "random", "reactive", "scripted", "mock"]), cell_settings=st.fixed_dictionaries(_SETTINGS))
def test_a_rerun_writes_the_same_bytes_in_every_file(axes, cell_settings):
    with tempfile.TemporaryDirectory() as tmp:
        check_rerun(Path(tmp), _with_mock_replies(Path(tmp), axes, cell_settings))


def check_interrupted_rerun(tmp: Path, config: dict, seed_base: int, stop_at: int) -> None:
    """A rerun of ``config`` with ``seed_base``, stopped as its cell ``stop_at`` (counted from 0) starts, leaves a
    directory that ``replay`` refuses; a complete rerun of ``config`` after it writes the first run's bytes again."""
    out = tmp / "out"
    _run(config, out)
    first = _run_bytes(out)

    run_cell, started = harness.run_cell, []

    def stop(cell, build, out_dir=None):
        started.append(cell.name)
        if len(started) > stop_at:
            raise KeyboardInterrupt
        return run_cell(cell, build, out_dir)

    with mock.patch.object(harness, "run_cell", stop), pytest.raises(KeyboardInterrupt):
        _run({**config, "seed_base": seed_base}, out)
    try:
        replay_out_dir(out)
    except ConfigError:
        pass
    else:
        raise AssertionError(f"replay read {out} after a rerun stopped at cell {stop_at}")
    _run(config, out)
    assert _run_bytes(out) == first


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    axes=_axes(["oracle", "random", "reactive", "scripted", "mock"]),
    cell_settings=st.fixed_dictionaries(_SETTINGS),
    data=st.data(),
)
def test_replay_refuses_an_interrupted_rerun_until_a_complete_one(axes, cell_settings, data):
    with tempfile.TemporaryDirectory() as tmp:
        config = _with_mock_replies(Path(tmp), axes, cell_settings)
        cells = len(expand_matrix(matrix_from_dict(config)))
        other = data.draw(st.integers(0, 2**16).filter(lambda base: base != config["seed_base"]), label="seed_base")
        stop_at = data.draw(st.integers(0, cells - 1), label="stop_at")
        check_interrupted_rerun(Path(tmp), config, other, stop_at)


def check_workers(tmp: Path, config: dict) -> None:
    """A run of ``config`` on two worker threads writes the bytes a run on one writes in every file."""
    _run(config, tmp / "one", workers=1)
    _run(config, tmp / "two", workers=2)
    assert _run_bytes(tmp / "two") == _run_bytes(tmp / "one")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    axes=_axes(["oracle", "random", "reactive", "static", "scripted", "mock"]),
    cell_settings=st.fixed_dictionaries(_SETTINGS),
)
def test_two_workers_write_the_bytes_one_worker_writes(axes, cell_settings):
    with tempfile.TemporaryDirectory() as tmp:
        check_workers(Path(tmp), _with_mock_replies(Path(tmp), axes, cell_settings))
