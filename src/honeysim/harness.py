"""Experiment matrix: config loading, expansion, execution, and replay.

A run config is one declarative YAML file: catalog and deployment axes,
persistence modes, policies (baselines, scripted mocks, or HTTP model
backends), seeds, and noise parameters. The matrix expands to one cell per
(policy, deployment, persistence, seed) combination, each with its own
derived seed, so any cell reruns independently and reproducibly.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import yaml

from .attackers import PERSISTENCE_MODES, AttackerProfile, PersistenceModel, default_attacker_queue
from .catalog import (
    DEPLOYMENT_NAMES, AttackGraph, AttackStage, HoneynetConfig, deployment_config, load_catalog, load_yaml
)
from .engine import (
    SCHEMA_VERSION,
    PolicyFactory,
    RunConfig,
    derive_seed,
    records_from_jsonl,
    records_to_jsonl,
    run_simulation,
)
from .llm import (
    HttpChatBackend,
    LlmPolicy,
    PromptTemplate,
    ScriptedMockBackend,
    aligned_mock_script,
    builtin_template,
    load_replay_file,
    load_template,
)
# run_metrics is looked up on the module at each call, so a wrapper installed
# on metrics.run_metrics (as perfbench's tracer does) sees every reduction
from . import metrics
from .metrics import (
    SCORE_COORDINATES,
    SCORE_MODE_SETS,
    SCORE_MODES,
    RunMetrics,
    SummaryTables,
    aggregate,
)
from .policies import DEGRADATIONS, CellStats, OraclePolicy, RandomPolicy, ReactivePolicy, StaticPolicy
from .settings import ConfigError, Settings, check, read
from .telemetry import NoiseConfig

logger = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"
STATS_NAME = "run_stats.json"
NAME_MAX = 255  # the longest directory name, in bytes, that common file systems take


# each axis, in expansion order: its name, which is its matrix field and its run config and run manifest key, and its
# type; a policy is a PolicyKind, which refuses a name that is no string
_AXIS_TYPES = {"policies": "list", "deployments": "list[str]", "persistence_modes": "list[str]", "seeds": "list[int]"}
# each scalar setting that a run config's top level names as its matrix field, and its type
_SCALAR_TYPES = {
    "horizon": "int", "budget": "int", "seed_base": "int",
    "belief_carryover": "bool", "bootstrap": "str", "score_mode": "str",
}


@dataclass(frozen=True)
class ExperimentMatrix:
    policies: Sequence[PolicyKind]
    deployments: Sequence[str]
    persistence_modes: Sequence[str]
    seeds: Sequence[int]
    horizon: int = RunConfig.horizon
    budget: int = HoneynetConfig.budget
    seed_base: int = 0
    # the decay and floor of every cell's attackers; each cell sets the mode
    persistence: PersistenceModel = PersistenceModel()
    noise: NoiseConfig = RunConfig.noise
    abandon_on_failure: bool = AttackerProfile.abandon_on_failure
    belief_carryover: bool = RunConfig.belief_carryover
    bootstrap: str = RunConfig.bootstrap
    score_mode: str = SCORE_MODE_SETS
    backends: dict[str, HttpChatBackend] = field(default_factory=dict)
    catalog_path: Optional[str] = None
    prompt_template_path: Optional[str] = None
    # explicit attacker queue, each cell setting its persistence; None derives one attacker per exploitable service
    attackers: Optional[Sequence[AttackerProfile]] = None

    def __post_init__(self) -> None:
        """Hold each axis, and ``attackers`` when set, as a tuple, and refuse a setting of another type as configs do;
        then refuse, in one line, each fault of the axes and of the settings no cell changes (cells check them again)."""
        for axis, kind in _AXIS_TYPES.items():
            object.__setattr__(self, axis, tuple(check(getattr(self, axis), kind, axis)))
        for key, kind in _SCALAR_TYPES.items():
            check(getattr(self, key), kind, key)
        check(self.abandon_on_failure, "bool", "attacker.abandon_on_failure")
        object.__setattr__(self, "attackers", None if self.attackers is None else tuple(self.attackers))
        faults = self._axis_faults()
        for check_value, value in (
            (RunConfig.check_horizon, self.horizon),
            (RunConfig.check_bootstrap, self.bootstrap),
            (HoneynetConfig.check_budget, self.budget),
        ):
            try:
                check_value(value)
            except ValueError as exc:
                faults.append(str(exc))
        if self.score_mode not in SCORE_MODES:
            faults.append(f"unknown score mode {self.score_mode!r}; score_mode is one of {', '.join(SCORE_MODES)}")
        if faults:
            raise ConfigError("; ".join(faults))

    def _axis_faults(self) -> list[str]:
        """Each fault of the axes; without one, every cell gets a directory of its own that the file system can make."""
        labels = [policy.name for policy in self.policies]
        axes = {**{axis: getattr(self, axis) for axis in _AXIS_TYPES}, "policies": labels}
        faults = [f"matrix axis {axis!r} is empty" for axis, values in axes.items() if not values]
        for label in labels:
            if not _safe_directory_name(label):
                faults.append(f"policy label {label!r} is not a safe directory name")
            elif label in SCORE_COORDINATES:
                faults.append(f"policy label {label!r} would overwrite that column of summary_scores")
        for axis, known in (("deployments", (*DEPLOYMENT_NAMES, "custom")), ("persistence_modes", PERSISTENCE_MODES)):
            faults += [f"{axis!r} holds {v!r}, not one of {', '.join(known)}" for v in axes[axis] if v not in known]
        if not all(axes.values()) or not all(map(_safe_directory_name, labels)):  # no cell, or an unwritable name
            return faults
        names = [_cell_name(*coordinates) for coordinates in itertools.product(*axes.values())]
        shared = sorted(name for name, n in Counter(names).items() if n > 1)
        if shared:
            faults.append(f"cells share a directory: {', '.join(shared)}")
        too_long = [name for name in names if len(name.encode("utf-8")) > NAME_MAX]
        if too_long:
            faults.append(f"cell name {too_long[0]!r} is longer than a directory name may be ({NAME_MAX} bytes)")
        return faults


@dataclass(frozen=True)
class CellSpec:
    policy: str  # the policy's label
    deployment: str
    persistence: str
    seed: int
    seed_base: int

    @property
    def name(self) -> str:
        return _cell_name(self.policy, self.deployment, self.persistence, self.seed)

    @cached_property
    def derived_seed(self) -> int:
        """The seed of this cell's run, from its coordinates; derived at first use, so ``replay`` derives none."""
        return derive_seed(self.seed_base, self.policy, self.deployment, self.persistence, self.seed)


def _cell_name(label: str, deployment: str, mode: str, seed: int) -> str:
    return f"{label}__{deployment}__{mode}__seed{seed}"


def expand_matrix(matrix: ExperimentMatrix) -> list[CellSpec]:
    """Cartesian expansion in lexicographic axis order; each cell derives its own seed and has its own directory."""
    return [
        CellSpec(policy.name, deployment, mode, seed, matrix.seed_base)
        for policy, deployment, mode, seed in itertools.product(*(getattr(matrix, axis) for axis in _AXIS_TYPES))
    ]


def _safe_directory_name(label: str) -> bool:
    """Whether ``label`` names one directory in the output directory: no separator or NUL, and UTF-8 to write."""
    try:
        label.encode("utf-8")  # a lone surrogate, which YAML's escapes can spell, has no UTF-8 bytes
    except UnicodeEncodeError:
        return False
    return label not in ("", ".", "..") and not any(c in label for c in "/\\\0")


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------


def _parse_policy_entry(index: int, entry) -> PolicyKind:
    """A ``policies:`` entry: a kind, or a mapping of ``name``, ``kind`` (each defaults to the other) and parameters."""
    where = f"policies[{index}]"
    params = dict(entry) if isinstance(entry, dict) else {"kind": entry}
    names = {key: params.pop(key) for key in ("name", "kind") if key in params}
    names = read(names, {"name": "str", "kind": "str"}, where)
    kind = names.get("kind") or names.get("name")
    if kind not in POLICY_KINDS:
        raise ConfigError(f"{where}: unknown policy kind {kind!r}; the kinds are {', '.join(POLICY_KINDS)}")
    return POLICY_KINDS[kind].read({**params, "name": names.get("name") or kind}, where)


def _parse_attacker_entry(index: int, entry, attacker: dict) -> AttackerProfile:
    """An ``attackers:`` entry, its persistence left for each cell to set; it overrides the ``attacker:`` section."""
    where = f"attackers[{index}]"
    kinds = {"target": "str", "objective": "str", "label": "str", "abandon_on_failure": "bool"}
    settings = {**attacker, **read(entry, kinds, where, ("target",))}
    target, objective = settings.pop("target"), settings.pop("objective", None)
    try:
        stage = None if objective is None else AttackStage.from_label(objective)
        return AttackerProfile(target, objective_stage=stage, **settings)  # and label, when the entry has one
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_run_file(path: str) -> ExperimentMatrix:
    data = load_yaml(path)
    return matrix_from_dict({} if data is None else data)


def load_builtin_config() -> ExperimentMatrix:
    from importlib import resources

    text = resources.files("honeysim.data").joinpath("default_config.yaml").read_text(encoding="utf-8")
    return matrix_from_dict(yaml.safe_load(text))


# the type of each key of a run config's top level; null leaves a section or an optional path at its default
_RUN_CONFIG = {
    "schema_version": "int",  # written by the built-in config; version 1 is the only one
    **_SCALAR_TYPES,
    **_AXIS_TYPES,
    "persistence": "Optional[dict]",
    "noise": "Optional[dict]",
    "attacker": "Optional[dict]",
    "backends": "Optional[dict]",
    "catalog": "Optional[str]",
    "prompt_template": "Optional[str]",
    "attackers": "Optional[list]",
}


def _check_schema_version(version) -> None:
    """Refuse a config or run manifest of any schema but this one, before any other of its values is used."""
    if check(version, "int", "schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version} is unknown; the only version is {SCHEMA_VERSION}")


def matrix_from_dict(data) -> ExperimentMatrix:
    top = read(data, _RUN_CONFIG)
    _check_schema_version(top.get("schema_version", SCHEMA_VERSION))
    # these top-level keys, and attacker's, name their matrix fields; an absent one keeps its default
    same_named = {key: top[key] for key in _SCALAR_TYPES if key in top}
    # one persistence model for every cell, each setting its mode; ``mode`` is no key of this section
    persistence = read(top.get("persistence", {}), {"decay": "float", "floor": "float"}, "persistence")
    try:
        persistence = PersistenceModel(**persistence)
    except ValueError as exc:
        raise ConfigError(f"persistence: {exc}") from None
    attacker = read(top.get("attacker", {}), {"abandon_on_failure": "bool"}, "attacker")
    axes = {axis: top.get(axis, []) for axis in _AXIS_TYPES}
    axes["policies"] = [_parse_policy_entry(i, entry) for i, entry in enumerate(axes["policies"])]
    return ExperimentMatrix(
        **axes,
        persistence=persistence,
        noise=NoiseConfig.read(top.get("noise", {}), "noise"),
        backends={
            name: HttpChatBackend.read(entry, f"backends.{name}") for name, entry in top.get("backends", {}).items()
        },
        catalog_path=top.get("catalog"),
        prompt_template_path=top.get("prompt_template"),
        attackers=None if "attackers" not in top else [
            _parse_attacker_entry(i, entry, attacker) for i, entry in enumerate(top["attackers"])
        ],
        **same_named,
        **attacker,
    )


def validate_matrix(matrix: ExperimentMatrix, offline: bool = False) -> list[str]:
    """Collect everything that would make a run fail; empty means runnable.

    Builds the inputs of every cell as ``execute_matrix`` does, without running
    an episode; with ``offline`` set, an HTTP model backend is one of the problems.
    """
    return RunBuild(matrix, offline).faults


class MatrixFaults(ConfigError):
    """A matrix that cannot be built: ``faults`` lists each fault, as ``validate_matrix`` does; its text joins them."""

    def __init__(self, faults: list[str]) -> None:
        super().__init__("; ".join(faults))
        self.faults = faults


# ---------------------------------------------------------------------------
# Cell inputs
# ---------------------------------------------------------------------------


class RunBuild:
    """Every cell's inputs, built once, on one thread, before any cell runs; ``offline`` forbids HTTP model backends.

    ``inputs`` maps each (policy label, deployment, persistence mode) to its
    cells' run config and policy factory; every policy at one deployment and
    mode shares one run config. ``faults`` names each (policy, deployment,
    mode)'s fault once, in matrix order, then the catalog's and the prompt
    template's. Each honeynet, run config, the catalog, the template and each
    replay file loads, or fails, once, at the first cell that needs it; nothing
    outlives the build.
    ``run_cell`` runs each cell from the build that ``checked`` returns.
    """

    def __init__(self, matrix: ExperimentMatrix, offline: bool = False) -> None:
        self._matrix = matrix
        self.offline, self.backends = offline, matrix.backends
        self._loads: dict[tuple, object] = {}  # each load's value, or the fault it raised, by load and arguments
        self.inputs: dict[tuple[str, str, str], tuple[RunConfig, PolicyFactory]] = {}
        self.faults: list[str] = []
        for cell_inputs in itertools.product(matrix.policies, matrix.deployments, matrix.persistence_modes):
            self._collect(self._build, *cell_inputs)
        # only custom cells load the catalog, and only model cells the template, so check each when set, used or not
        if matrix.catalog_path:
            self._collect(self.catalog)
        if matrix.prompt_template_path:
            self._collect(self.template)

    def _collect(self, build, *args) -> None:
        try:
            build(*args)
        except (ValueError, KeyError, OSError) as exc:  # ConfigError is a ValueError
            if str(exc) not in self.faults:  # one bad setting fails many cells alike
                self.faults.append(str(exc))

    def checked(self) -> RunBuild:
        """This build; MatrixFaults naming every fault, when it has one."""
        if self.faults:
            raise MatrixFaults(self.faults)
        return self

    def _load(self, load, *args):
        """``load(*args)`` at its first call in this build; a later call returns its value, or raises its fault."""
        key = (load, *args)
        if key not in self._loads:
            try:
                self._loads[key] = load(*args)
            except (ValueError, KeyError, OSError) as exc:
                self._loads[key] = exc
        value = self._loads[key]
        if isinstance(value, Exception):
            raise value.with_traceback(None)  # a fresh traceback each time, not one that grows with every cell
        return value

    def _build(self, policy: PolicyKind, deployment: str, mode: str) -> None:
        cfg = self._load(self._run_config, deployment, mode)
        self.inputs[policy.name, deployment, mode] = cfg, policy.factory(cfg, self)

    def _run_config(self, deployment: str, mode: str) -> RunConfig:
        """The run config that every policy's cells at ``deployment`` and ``mode`` share."""
        matrix = self._matrix
        honeynet = self._load(self._honeynet, deployment)
        persistence = replace(matrix.persistence, mode=mode)
        if matrix.attackers is None:
            queue = default_attacker_queue(honeynet.catalog, persistence, abandon_on_failure=matrix.abandon_on_failure)
        else:  # RunConfig refuses an attacker that the honeynet cannot run
            queue = [replace(profile, persistence=persistence) for profile in matrix.attackers]
        return RunConfig(honeynet, tuple(queue), matrix.horizon, noise=matrix.noise, bootstrap=matrix.bootstrap,
                         belief_carryover=matrix.belief_carryover)

    def _honeynet(self, deployment: str) -> HoneynetConfig:
        """The deployment's honeynet; ConfigError naming the catalog file, or the deployment, at fault."""
        budget = self._matrix.budget
        catalog = self.catalog() if deployment == "custom" else None
        try:
            return deployment_config(deployment, budget) if catalog is None else HoneynetConfig(catalog, budget)
        except ValueError as exc:
            raise ConfigError(f"{deployment}: {exc}") from None

    def catalog(self) -> AttackGraph:
        """The matrix's catalog file, which deployment ``custom`` requires, loaded once per build."""
        if not self._matrix.catalog_path:
            raise ConfigError("deployment 'custom' requires a catalog file")
        try:
            return self._load(load_catalog, self._matrix.catalog_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"catalog file unusable: {exc}") from None

    def template(self) -> PromptTemplate:
        path = self._matrix.prompt_template_path
        try:
            return self._load(load_template, path) if path else self._load(builtin_template)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"prompt template unusable: {exc}") from None

    def replay(self, path: str) -> list[list[str]]:
        """``load_replay_file(path)``; raises what it raises."""
        return self._load(load_replay_file, path)


@dataclass(frozen=True, kw_only=True)
class PolicyKind(Settings):
    """A ``policies:`` entry: its ``name``, the label of its cells and its summary column, and its kind's parameters,
    the entry's keys besides ``kind``.

    A kind's ``factory(cfg, build)`` builds the policies of the cells of one (deployment, persistence mode), whose
    run config is ``cfg``, or raises ConfigError on what they or the environment lack; ``build`` is the run's build,
    which holds the backends and ``offline`` and loads the template and replay files. A bare ``PolicyKind``, as a
    run manifest gives, names a policy and builds none.
    """

    name: str


class OracleKind(PolicyKind):
    def factory(self, cfg, build) -> PolicyFactory:
        return lambda index, seed: OraclePolicy()


class RandomKind(PolicyKind):
    def factory(self, cfg, build) -> PolicyFactory:
        return lambda index, seed: RandomPolicy(seed)


@dataclass(frozen=True, kw_only=True)
class StaticKind(PolicyKind):
    expose: list[str]

    def factory(self, cfg, build) -> PolicyFactory:
        if not self.expose:
            raise ConfigError(f"policy {self.name}: static policy needs a non-empty 'expose' list")
        unknown = [name for name in self.expose if name not in cfg.honeynet.catalog]
        if unknown:
            raise ConfigError(f"policy {self.name}: exposes {unknown}, not in {cfg.honeynet.deployment_name}")
        return lambda index, seed: StaticPolicy(self.expose)


class ReactiveKind(PolicyKind):
    def factory(self, cfg, build) -> PolicyFactory:
        return lambda index, seed: ReactivePolicy()


class ScriptedKind(PolicyKind):
    def scripts(self, cfg, build) -> list[list[str]]:
        catalog = cfg.honeynet.catalog
        return [aligned_mock_script(catalog.get(p.target_service), p.objective_stage) for p in cfg.attackers]

    def factory(self, cfg, build) -> PolicyFactory:
        scripts, template = self.scripts(cfg, build), build.template()
        # the episode of the i-th attacker replays script i, cycling
        return lambda index, seed: LlmPolicy(ScriptedMockBackend(scripts[index % len(scripts)]), template=template)


@dataclass(frozen=True, kw_only=True)
class MockKind(ScriptedKind):
    replay: str

    def scripts(self, cfg, build) -> list[list[str]]:
        try:
            return build.replay(self.replay)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"policy {self.name}: replay file {self.replay!r} unusable: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class LlmKind(PolicyKind):
    backend: str

    def factory(self, cfg, build) -> PolicyFactory:
        backend = build.backends.get(self.backend)
        if backend is None:
            raise ConfigError(f"policy {self.name}: unknown backend {self.backend!r}")
        if build.offline:
            raise ConfigError(f"policy {self.name}: HTTP backend {self.backend} forbidden in offline mode")
        if not os.environ.get(backend.auth_env):
            raise ConfigError(f"backend-auth-missing: set {backend.auth_env} for backend {self.backend}")
        template = build.template()
        return lambda index, seed: LlmPolicy(backend, template=template)


POLICY_KINDS: dict[str, type[PolicyKind]] = {
    "oracle": OracleKind,
    "random": RandomKind,
    "static": StaticKind,
    "reactive": ReactiveKind,
    "scripted": ScriptedKind,
    "mock": MockKind,
    "llm": LlmKind,
}


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


def run_cell(cell: CellSpec, build: RunBuild, out_dir: Optional[Path] = None) -> tuple[list[dict], CellStats]:
    """Execute one cell from ``build``, the checked build of its matrix: its records, as the epoch loop builds them,
    and its ``CellStats``.

    Every policy of the cell counts its turns and degradations into the
    cell's stats; with ``out_dir`` set, the stats also write each model turn
    to the cell's turns.jsonl as they count it, so partial runs still leave
    an audit trail. A cell that degraded logs one warning with its counts.
    """
    cfg, build_policy = build.inputs[cell.policy, cell.deployment, cell.persistence]
    stats = CellStats() if out_dir is None else CellStats(out_dir / cell.name / "turns.jsonl")

    def make_policy(index: int, seed: int):
        policy = build_policy(index, seed)
        policy.stats = stats
        return policy

    if stats.turns_path is not None:
        # one mkdir for a fresh cell directory; a rerun also deletes the stale turn log, even of a cell without turns
        try:
            stats.turns_path.parent.mkdir(parents=True)
        except FileExistsError:
            try:
                stats.turns_path.unlink(missing_ok=True)
            except NotADirectoryError:
                raise ConfigError(f"cell path {stats.turns_path.parent} is not a directory") from None
            except IsADirectoryError:
                raise ConfigError(f"output file {stats.turns_path} is a directory") from None
    try:
        records = run_simulation(cfg, make_policy, cell.derived_seed)
    finally:
        stats.close()
    degraded = stats.degraded()
    if degraded:
        logger.warning("cell %s degraded: %s", cell.name, degraded)
    return records, stats


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in one write; ConfigError naming ``path`` when a directory stands there."""
    try:
        path.write_bytes(text.encode("utf-8"))
    except IsADirectoryError:
        raise ConfigError(f"output file {path} is a directory") from None


def write_cell(out_dir: Path, cell: CellSpec, records: Sequence[dict]) -> None:
    """Write the cell's ``cell.json`` and ``episodes.jsonl`` into the directory ``run_cell`` made, one write each."""
    cell_dir = out_dir / cell.name
    manifest = {
        "policy": cell.policy,
        "deployment": cell.deployment,
        "persistence": cell.persistence,
        "seed": cell.seed,
        "derived_seed": cell.derived_seed,
    }
    _write(cell_dir / "cell.json", json.dumps(manifest, sort_keys=True) + "\n")
    _write(cell_dir / "episodes.jsonl", records_to_jsonl(records) + "\n")


def write_summaries(out_dir: Path, runs: Sequence[RunMetrics], matrix: ExperimentMatrix) -> SummaryTables:
    tables = aggregate(
        runs,
        policies=[p.name for p in matrix.policies],
        deployments=matrix.deployments,
        modes=matrix.persistence_modes,
    )
    for name, text in tables.files():
        _write(out_dir / name, text)
    return tables


def _run_stats(cells: Sequence[CellSpec], stats: Sequence[CellStats]) -> str:
    """``run_stats.json``: each cell's counts and latencies in matrix order, one cell a line, then the counts summed."""
    rows = [{"cell": cell.name, **s.as_dict()} for cell, s in zip(cells, stats)]
    totals = {key: sum(row[key] for row in rows) for key in ("turns", *DEGRADATIONS)}
    return '{"cells": [\n' + ",\n".join(map(json.dumps, rows)) + f'\n], "totals": {json.dumps(totals)}}}\n'


def execute_matrix(matrix: ExperimentMatrix, out_dir: str | Path, workers: int = 1,
                   offline: bool = False) -> SummaryTables:
    """Run every cell, write per-cell logs, ``run_stats.json``, the summary tables and, last, the run manifest.

    ``workers`` below 1 is refused first. Every cell's inputs are then built,
    once, with ``offline`` forbidding HTTP model backends: a matrix with a cell
    that cannot be built raises one MatrixFaults listing every fault, and
    ``out_dir`` is left as it was. An earlier run's manifest, ``run_stats.json``
    and summaries are then deleted before the first cell, so a run that stops
    early leaves no manifest, and ``replay`` refuses its directory rather than
    mixing two runs' logs.
    """
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    build = RunBuild(matrix, offline).checked()
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # the path, or one of its parents, is a file
        raise ConfigError(f"output path {out} is not a directory") from None
    cells = expand_matrix(matrix)
    # a directory where the manifest or a summary table goes is refused before the first cell, not after the last
    run_files = (MANIFEST_NAME, STATS_NAME, *(name for name, _ in SummaryTables({}, (), (), ()).files()))
    for name in run_files:
        if (out / name).is_dir():
            raise ConfigError(f"output file {out / name} is a directory")
    for name in run_files:  # the manifest first: once it is gone, no replay reads this directory
        (out / name).unlink(missing_ok=True)

    def job(cell: CellSpec) -> tuple[RunMetrics, CellStats]:
        logger.info("running cell %s", cell.name)
        records, stats = run_cell(cell, build, out_dir=out)
        write_cell(out, cell, records)
        # only the metrics and counts outlive the cell, so memory grows with cells, not episodes
        return metrics.run_metrics(cell, records, matrix.score_mode), stats

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(job, cells))
    else:
        done = [job(c) for c in cells]

    runs = [run for run, _ in done]
    _write(out / STATS_NAME, _run_stats(cells, [stats for _, stats in done]))
    tables = write_summaries(out, runs, matrix)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        **{key: getattr(matrix, key) for key in (*_AXIS_TYPES, "horizon", "budget", "seed_base", "score_mode")},
        "policies": [p.name for p in matrix.policies],  # a manifest names each policy by its label
    }
    _write(out / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return tables


def replay_out_dir(out_dir: str | Path) -> SummaryTables:
    """Recompute summary tables from the episode logs of exactly the cells the manifest names."""
    out = Path(out_dir)
    matrix, cells = _manifest_cells(out)
    runs, missing, corrupt = [], [], []
    for cell in cells:
        try:
            # the bytes as written: a line ends at "\n" alone, so no newline is translated
            with open(os.path.join(out_dir, cell.name, "episodes.jsonl"), "rb") as fh:
                text = fh.read().decode("utf-8")
            # each line is decoded and checked once, then reduced in the same expression,
            # bound to no name: no cell's records outlive it
            runs.append(metrics.run_metrics(cell, records_from_jsonl(text), matrix.score_mode))
        except FileNotFoundError:
            missing.append(cell.name)
        # ValueError: also not JSON, not UTF-8, nested too deep, or no record to average; OSError: unreadable,
        # say a directory
        except (OSError, TypeError, ValueError):
            corrupt.append(cell.name)
    problems = [
        f"cells in {MANIFEST_NAME} {what}: {', '.join(names)}"
        for what, names in (("without episodes.jsonl", missing), ("with a corrupt or empty episodes.jsonl", corrupt))
        if names
    ]
    if problems:
        raise ConfigError("; ".join(problems))
    return write_summaries(out, runs, matrix)


def _manifest_cells(out: Path) -> tuple[ExperimentMatrix, list[CellSpec]]:
    """The matrix that ``out``'s run manifest names, and its cells; ConfigError naming the manifest if unusable."""
    path = out / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no {MANIFEST_NAME} in {out}") from None
    except RecursionError:
        raise ConfigError(f"{path} is not a JSON run manifest: nested too deep to decode") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path} is not a JSON run manifest: {exc}") from None
    try:
        check(manifest, "dict", "")
        _check_schema_version(manifest.get("schema_version", SCHEMA_VERSION))
        # the matrix refuses what ``run`` refuses, so no cell path leaves ``out``; a manifest names each policy by its
        # label, and a text, which is no list, would otherwise name one policy per character
        axes = {axis: manifest.get(axis) for axis in _AXIS_TYPES}
        axes["policies"] = [PolicyKind(name=label) for label in check(axes["policies"], "list[str]", "policies")]
        score_mode = check(manifest.get("score_mode", SCORE_MODE_SETS), "str", "score_mode")
        matrix = ExperimentMatrix(**axes, score_mode=score_mode)
        return matrix, expand_matrix(matrix)
    except ConfigError as exc:  # another schema, a mistyped axis, or axes or a score mode the matrix refuses
        raise ConfigError(f"{path}: {exc}") from None
