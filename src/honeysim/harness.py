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
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import yaml

from .attackers import AttackerProfile, PersistenceModel, default_attacker_queue
from .catalog import (
    AttackStage,
    HoneynetConfig,
    deployment_config,
    load_catalog,
    validate_deployment,
)
from .engine import (
    PolicyFactory,
    RunConfig,
    derive_seed,
    record_to_dict,
    records_from_jsonl,
    records_to_jsonl,
    run_simulation,
)
from .llm import (
    HttpChatBackend,
    LlmPolicy,
    PromptTemplate,
    ScriptedMockBackend,
    TurnLog,
    aligned_mock_script,
    builtin_template,
    check_settings,
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
    RunResult,
    SummaryTables,
    aggregate,
)
from .policies import OraclePolicy, RandomPolicy, ReactivePolicy, StaticPolicy
from .telemetry import NoiseConfig, SignatureCatalogMissError, signature_rows

logger = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"


class ConfigError(ValueError):
    """The run config cannot be executed as written."""


@dataclass(frozen=True)
class PolicySpec:
    label: str
    # None in a matrix read back from a run manifest, which keeps labels only: replay builds no policy
    kind: Optional[PolicyKind] = None


@dataclass
class ExperimentMatrix:
    policies: list[PolicySpec]
    deployments: list[str]
    modes: list[str]
    seeds: list[int]
    horizon: int = RunConfig.horizon
    budget: int = HoneynetConfig.budget
    seed_base: int = 0
    decay: float = PersistenceModel.decay
    floor: float = PersistenceModel.floor
    noise: NoiseConfig = RunConfig.noise
    abandon_on_failure: bool = AttackerProfile.abandon_on_failure
    belief_carryover: bool = RunConfig.belief_carryover
    bootstrap: str = RunConfig.bootstrap
    score_mode: str = SCORE_MODE_SETS
    backends: dict[str, HttpChatBackend] = field(default_factory=dict)
    catalog_path: Optional[str] = None
    prompt_template_path: Optional[str] = None
    # explicit attacker queue; None derives one attacker per exploitable service
    attackers: Optional[list[dict]] = None


@dataclass(frozen=True)
class CellSpec:
    policy: PolicySpec
    deployment: str
    persistence: str
    seed: int
    seed_base: int

    @property
    def name(self) -> str:
        return f"{self.policy.label}__{self.deployment}__{self.persistence}__seed{self.seed}"

    @cached_property
    def derived_seed(self) -> int:
        """The seed of this cell's run, from its coordinates; derived at first use, so ``replay`` derives none."""
        return derive_seed(self.seed_base, self.policy.label, self.deployment, self.persistence, self.seed)


def expand_matrix(matrix: ExperimentMatrix) -> list[CellSpec]:
    """Cartesian expansion in lexicographic axis order; each cell derives its own seed.

    Raises ConfigError unless every cell gets a directory of its own.
    """
    for axis, values in (
        ("policies", matrix.policies),
        ("deployments", matrix.deployments),
        ("persistence_modes", matrix.modes),
        ("seeds", matrix.seeds),
    ):
        if not values:
            raise ConfigError(f"matrix axis {axis!r} is empty")
    for policy in matrix.policies:
        if policy.label in ("", ".", "..") or "/" in policy.label or "\\" in policy.label:
            raise ConfigError(f"policy label {policy.label!r} is not a safe directory name")
        if policy.label in SCORE_COORDINATES:
            raise ConfigError(f"policy label {policy.label!r} would overwrite that column of summary_scores")
    cells = [
        CellSpec(policy, deployment, mode, seed, matrix.seed_base)
        for policy, deployment, mode, seed in itertools.product(
            matrix.policies, matrix.deployments, matrix.modes, matrix.seeds
        )
    ]
    shared = sorted(name for name, n in Counter(c.name for c in cells).items() if n > 1)
    if shared:
        raise ConfigError(f"cells share a directory: {', '.join(shared)}")
    return cells


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------


def _parse_policy_entry(index: int, entry) -> PolicySpec:
    """A ``policies:`` entry: a kind, or a mapping of ``name``, ``kind`` (each defaults to the other) and parameters."""
    where = f"policies[{index}]"
    params = dict(entry) if isinstance(entry, dict) else {"kind": entry}
    name, kind = params.pop("name", None), params.pop("kind", None)
    for key, value in (("name", name), ("kind", kind)):
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{where}: {key!r} must be a string, got {value!r}")
    kind = kind or name
    if kind not in POLICY_KINDS:
        raise ConfigError(f"{where}: unknown policy kind {kind!r}; the kinds are {', '.join(POLICY_KINDS)}")
    try:
        return PolicySpec(label=name or kind, kind=POLICY_KINDS[kind](**params))
    except (TypeError, ValueError) as exc:  # TypeError: an unknown or missing parameter
        raise ConfigError(f"{where}: {exc}") from None


def load_run_file(path: str) -> ExperimentMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path} is not YAML: {exc}") from None
    return matrix_from_dict(data or {})


def load_builtin_config() -> ExperimentMatrix:
    from importlib import resources

    text = resources.files("honeysim.data").joinpath("default_config.yaml").read_text(encoding="utf-8")
    return matrix_from_dict(yaml.safe_load(text))


class _Reads:
    """A mapping of a run config that records the keys read from it, so the others can be refused.

    The keys a reader asks for are the keys it accepts: a misspelt one is
    refused by name instead of leaving its setting at the default.
    """

    def __init__(self, data: dict, where: str) -> None:
        self._data = data
        self._where = where
        self._read: set = set()

    def get(self, key: str, default=None):
        self._read.add(key)
        return self._data.get(key, default)

    def refuse_unread(self) -> None:
        unknown = sorted(str(key) for key in self._data if key not in self._read)
        if unknown:
            raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {self._where}")


def _section(data: _Reads, key: str, kind: type):
    """``data[key]``, empty when absent or null; ConfigError when it is not a ``kind``."""
    value = data.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ConfigError(f"{key!r} must be a {'mapping' if kind is dict else 'list'}, got {value!r}")
    return value


def _number(value, kind: type, key: str):
    """``kind(value)``; ConfigError naming ``key`` when ``value`` is no ``kind``.

    A fractional integer (``horizon: 2.9``) is refused rather than truncated,
    and a boolean (``budget: true``) rather than read as 1 or 0.
    """
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None


def _flag(value, key: str) -> bool:
    """``value``; ConfigError naming ``key`` when it is no boolean (``bool("false")`` would be True)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def matrix_from_dict(data: dict) -> ExperimentMatrix:
    if not isinstance(data, dict):
        raise ConfigError(f"a run config must be a mapping, got {data!r}")
    top = _Reads(data, "the run config")
    top.get("schema_version")  # written by the built-in config; version 1 is the only one
    persistence, noise, attacker = (
        _Reads(_section(top, key, dict), repr(key)) for key in ("persistence", "noise", "attacker")
    )
    backends = {}
    for name, entry in _section(top, "backends", dict).items():
        try:
            backends[name] = HttpChatBackend(**entry)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"backend {name!r}: {exc}") from None
    matrix = ExperimentMatrix(
        policies=[_parse_policy_entry(i, p) for i, p in enumerate(_section(top, "policies", list))],
        deployments=_section(top, "deployments", list),
        modes=_section(top, "persistence_modes", list),
        seeds=[_number(s, int, f"seeds[{i}]") for i, s in enumerate(_section(top, "seeds", list))],
        horizon=_number(top.get("horizon", ExperimentMatrix.horizon), int, "horizon"),
        budget=_number(top.get("budget", ExperimentMatrix.budget), int, "budget"),
        seed_base=_number(top.get("seed_base", ExperimentMatrix.seed_base), int, "seed_base"),
        decay=_number(persistence.get("decay", ExperimentMatrix.decay), float, "persistence.decay"),
        floor=_number(persistence.get("floor", ExperimentMatrix.floor), float, "persistence.floor"),
        noise=NoiseConfig(
            **{
                rate: _number(noise.get(rate, getattr(NoiseConfig, rate)), float, f"noise.{rate}")
                for rate in ("false_positive_rate", "hint_corruption_rate")
            }
        ),
        abandon_on_failure=_flag(
            attacker.get("abandon_on_failure", ExperimentMatrix.abandon_on_failure), "attacker.abandon_on_failure"
        ),
        belief_carryover=_flag(top.get("belief_carryover", ExperimentMatrix.belief_carryover), "belief_carryover"),
        bootstrap=str(top.get("bootstrap", ExperimentMatrix.bootstrap)),
        score_mode=str(top.get("score_mode", ExperimentMatrix.score_mode)),
        backends=backends,
        catalog_path=top.get("catalog"),
        prompt_template_path=top.get("prompt_template"),
        attackers=top.get("attackers"),
    )
    for section in (top, persistence, noise, attacker):
        section.refuse_unread()
    return matrix


def validate_matrix(matrix: ExperimentMatrix, offline: bool = False) -> list[str]:
    """Collect everything that would make a run fail; empty means runnable.

    Builds the inputs of every (policy, deployment, persistence) cell with
    ``run_cell``'s own builder, without running an episode; with ``offline``
    set, an HTTP model backend is one of the problems.
    """
    problems: list[str] = []
    files = _RunFiles(matrix, offline)

    def check(build, *args) -> None:
        try:
            build(*args)
        except (ConfigError, ValueError, KeyError, OSError) as exc:
            if str(exc) not in problems:  # one bad setting fails many cells alike
                problems.append(str(exc))

    check(expand_matrix, matrix)
    for policy, deployment, mode in itertools.product(matrix.policies, matrix.deployments, matrix.modes):
        check(_cell_inputs, CellSpec(policy, deployment, mode, 0, matrix.seed_base), matrix, files, None)
    # baseline cells never load the template, so check it even when none uses it
    if matrix.prompt_template_path:
        check(files.template)
    if matrix.score_mode not in SCORE_MODES:
        problems.append(f"unknown score mode {matrix.score_mode!r}")
    return problems


# ---------------------------------------------------------------------------
# Cell inputs
# ---------------------------------------------------------------------------


def _honeynet_for(matrix: ExperimentMatrix, deployment: str) -> HoneynetConfig:
    if deployment == "custom":
        if not matrix.catalog_path:
            raise ConfigError("deployment 'custom' requires a catalog file")
        try:
            catalog = load_catalog(matrix.catalog_path)
        except (OSError, ValueError, KeyError, TypeError, yaml.YAMLError) as exc:
            raise ConfigError(f"catalog file unusable: {exc}") from None
        honeynet = HoneynetConfig(catalog=catalog, budget=matrix.budget, deployment_name="custom")
    else:
        honeynet = deployment_config(deployment, matrix.budget)
    violations = validate_deployment(honeynet)
    if violations:
        raise ConfigError(f"{deployment}: {'; '.join(violations)}")
    return honeynet


def _attacker_queue(matrix: ExperimentMatrix, honeynet: HoneynetConfig, persistence: PersistenceModel):
    """The cell's attackers, each checked to be runnable against ``honeynet``."""
    if matrix.attackers is None:
        queue = default_attacker_queue(
            honeynet.catalog, persistence, abandon_on_failure=matrix.abandon_on_failure
        )
    elif not isinstance(matrix.attackers, list):
        raise ConfigError(f"'attackers' must be a list of entries, got {matrix.attackers!r}")
    else:
        queue = []
        for index, entry in enumerate(matrix.attackers):
            if not isinstance(entry, dict) or not entry.get("target"):
                raise ConfigError(f"attacker entry needs a 'target': {entry!r}")
            where = f"attackers[{index}]"
            entry = _Reads(entry, where)
            objective = entry.get("objective")
            queue.append(
                AttackerProfile(
                    target_service=entry.get("target"),
                    persistence=persistence,
                    objective_stage=AttackStage.from_label(str(objective)) if objective else None,
                    label=str(entry.get("label", "")),
                    abandon_on_failure=_flag(
                        entry.get("abandon_on_failure", matrix.abandon_on_failure), f"{where}.abandon_on_failure"
                    ),
                )
            )
            entry.refuse_unread()
    for profile in queue:
        if profile.target_service not in honeynet.catalog:
            raise ConfigError(f"attacker target {profile.target_service!r} not in {honeynet.deployment_name}")
        svc = honeynet.catalog.get(profile.target_service)
        objective = profile.resolve_objective(svc)
        # every exploit on the way to the objective must render as alerts
        for stage in svc.supported_stages:
            if AttackStage.RECONNAISSANCE < stage <= objective:
                try:
                    signature_rows().exploit(svc.id, stage)
                except SignatureCatalogMissError as exc:
                    raise ConfigError(f"attacker target {svc.id!r}: {exc.args[0]}") from None
    return queue


class _RunFiles:
    """The deployments, prompt template and replay files of one ``execute_matrix`` or ``validate_matrix`` call.

    Each is built or loaded at the first cell that needs it and shared by the
    rest, also across worker threads. Nothing outlives the call, so a file
    edited between two runs is read again. ``offline`` forbids HTTP model backends.
    """

    def __init__(self, matrix: ExperimentMatrix, offline: bool = False) -> None:
        self._matrix = matrix
        self.offline = offline
        self._honeynets: dict[str, HoneynetConfig] = {}
        self._template: Optional[PromptTemplate] = None
        self._replays: dict[str, list[list[str]]] = {}
        self._lock = threading.Lock()

    def honeynet(self, deployment: str) -> HoneynetConfig:
        """``_honeynet_for(deployment)``; raises what it raises, and caches only what it returns."""
        if not isinstance(deployment, str):  # a config file's list or mapping: no deployment, and no key
            return _honeynet_for(self._matrix, deployment)
        with self._lock:
            if deployment not in self._honeynets:
                self._honeynets[deployment] = _honeynet_for(self._matrix, deployment)
            return self._honeynets[deployment]

    def template(self) -> PromptTemplate:
        with self._lock:
            if self._template is None:
                path = self._matrix.prompt_template_path
                try:
                    self._template = load_template(path) if path else builtin_template()
                except (OSError, ValueError, TypeError) as exc:
                    raise ConfigError(f"prompt template unusable: {exc}") from None
            return self._template

    def replay(self, path: str) -> list[list[str]]:
        """``load_replay_file(path)``; raises what it raises."""
        with self._lock:
            if path not in self._replays:
                self._replays[path] = load_replay_file(path)
            return self._replays[path]


@dataclass(frozen=True, kw_only=True)
class PolicyKind:
    """A policy kind's parameters, each checked against its field's annotation.

    A kind's ``factory`` builds a cell's policies, or raises ConfigError on what the cell or environment lacks.
    """

    def __post_init__(self) -> None:
        check_settings(self)


class OracleKind(PolicyKind):
    def factory(self, label, matrix, honeynet, queue, files, turn_log) -> PolicyFactory:
        return lambda index, seed: OraclePolicy()


class RandomKind(PolicyKind):
    def factory(self, label, matrix, honeynet, queue, files, turn_log) -> PolicyFactory:
        return lambda index, seed: RandomPolicy(seed)


@dataclass(frozen=True, kw_only=True)
class StaticKind(PolicyKind):
    expose: list

    def factory(self, label, matrix, honeynet, queue, files, turn_log) -> PolicyFactory:
        if not self.expose:
            raise ConfigError(f"policy {label}: static policy needs a non-empty 'expose' list")
        unknown = [name for name in self.expose if name not in honeynet.catalog]
        if unknown:
            raise ConfigError(f"policy {label}: exposes {unknown}, not in {honeynet.deployment_name}")
        return lambda index, seed: StaticPolicy(self.expose)


class ReactiveKind(PolicyKind):
    def factory(self, label, matrix, honeynet, queue, files, turn_log) -> PolicyFactory:
        return lambda index, seed: ReactivePolicy()


class ScriptedKind(PolicyKind):
    def scripts(self, label, honeynet, queue, files) -> list[list[str]]:
        return [aligned_mock_script(honeynet.catalog.get(p.target_service), p.objective_stage) for p in queue]

    def factory(self, label, matrix, honeynet, queue, files, turn_log) -> PolicyFactory:
        scripts, template = self.scripts(label, honeynet, queue, files), files.template()
        # the episode of the i-th attacker replays script i, cycling
        return lambda index, seed: LlmPolicy(
            ScriptedMockBackend(scripts[index % len(scripts)]), template=template, label=label, turn_log=turn_log
        )


@dataclass(frozen=True, kw_only=True)
class MockKind(ScriptedKind):
    replay: str

    def scripts(self, label, honeynet, queue, files) -> list[list[str]]:
        try:
            return files.replay(self.replay)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"policy {label}: replay file {self.replay!r} unusable: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class LlmKind(PolicyKind):
    backend: str

    def factory(self, label, matrix, honeynet, queue, files, turn_log) -> PolicyFactory:
        backend = matrix.backends.get(self.backend)
        if backend is None:
            raise ConfigError(f"policy {label}: unknown backend {self.backend!r}")
        if files.offline:
            raise ConfigError(f"policy {label}: HTTP backend {self.backend} forbidden in offline mode")
        if not os.environ.get(backend.auth_env):
            raise ConfigError(f"backend-auth-missing: set {backend.auth_env} for backend {self.backend}")
        template = files.template()
        return lambda index, seed: LlmPolicy(backend, template=template, label=label, turn_log=turn_log)


POLICY_KINDS: dict[str, type[PolicyKind]] = {
    "oracle": OracleKind,
    "random": RandomKind,
    "static": StaticKind,
    "reactive": ReactiveKind,
    "scripted": ScriptedKind,
    "mock": MockKind,
    "llm": LlmKind,
}


def _cell_inputs(
    cell: CellSpec, matrix: ExperimentMatrix, files: _RunFiles, turn_log: Optional[TurnLog]
) -> tuple[RunConfig, PolicyFactory]:
    """Build one cell's run config and policy factory; raise what makes the cell unrunnable.

    Model policies read their template and scripts from ``files`` and append
    their turns to ``turn_log`` unless it is None.

    ``run_cell`` runs what this returns. ``validate_matrix`` only builds it, so
    a config passes validation exactly when every cell can be built.
    """
    honeynet = files.honeynet(cell.deployment)
    queue = _attacker_queue(
        matrix, honeynet, PersistenceModel(mode=cell.persistence, decay=matrix.decay, floor=matrix.floor)
    )
    cfg = RunConfig(
        honeynet=honeynet,
        attackers=tuple(queue),
        horizon=matrix.horizon,
        seed=cell.derived_seed,
        noise=matrix.noise,
        belief_carryover=matrix.belief_carryover,
        bootstrap=matrix.bootstrap,
    )
    return cfg, cell.policy.kind.factory(cell.policy.label, matrix, honeynet, queue, files, turn_log)


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


def run_cell(
    cell: CellSpec, matrix: ExperimentMatrix, out_dir: Optional[Path] = None, files: Optional[_RunFiles] = None
) -> RunResult:
    """Execute one cell.

    With ``out_dir`` set, model turns stream to the cell's turns.jsonl as they
    happen, so partial runs still leave an audit trail. ``files`` shares the
    loaded template and replay files between the cells of one run.
    """
    turn_log = None if out_dir is None else TurnLog(out_dir / cell.name / "turns.jsonl")
    cfg, make_policy = _cell_inputs(cell, matrix, files or _RunFiles(matrix), turn_log)
    if turn_log is not None:
        # one mkdir for a fresh cell directory; a rerun also deletes the stale turn log, even of a cell without turns
        try:
            turn_log.path.parent.mkdir(parents=True)
        except FileExistsError:
            try:
                turn_log.path.unlink(missing_ok=True)
            except NotADirectoryError:
                raise ConfigError(f"cell path {turn_log.path.parent} is not a directory") from None
            except IsADirectoryError:
                raise ConfigError(f"output file {turn_log.path} is a directory") from None
    try:
        # the records as record_to_dict maps them: write_cell writes them and run_metrics scores them
        return _cell_result(cell, map(record_to_dict, run_simulation(cfg, make_policy)))
    finally:
        if turn_log is not None:
            turn_log.close()


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in one write; ConfigError naming ``path`` when a directory stands there."""
    try:
        path.write_bytes(text.encode("utf-8"))
    except IsADirectoryError:
        raise ConfigError(f"output file {path} is a directory") from None


def _cell_result(cell: CellSpec, records) -> RunResult:
    return RunResult(cell.policy.label, cell.deployment, cell.persistence, cell.seed, tuple(records))


def write_cell(out_dir: Path, cell: CellSpec, result: RunResult) -> None:
    """Write the cell's ``cell.json`` and ``episodes.jsonl`` into the directory ``run_cell`` made, one write each."""
    cell_dir = out_dir / cell.name
    manifest = {
        "policy": cell.policy.label,
        "deployment": cell.deployment,
        "persistence": cell.persistence,
        "seed": cell.seed,
        "derived_seed": cell.derived_seed,
    }
    _write(cell_dir / "cell.json", json.dumps(manifest, sort_keys=True) + "\n")
    _write(cell_dir / "episodes.jsonl", records_to_jsonl(result.records) + "\n")


def write_summaries(out_dir: Path, runs: Sequence[RunMetrics], matrix: ExperimentMatrix) -> SummaryTables:
    tables = aggregate(
        runs,
        policies=[p.label for p in matrix.policies],
        deployments=matrix.deployments,
        modes=matrix.modes,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in tables.files():
        _write(out_dir / name, text)
    return tables


def execute_matrix(matrix: ExperimentMatrix, out_dir: str | Path, workers: int = 1) -> SummaryTables:
    """Run every cell, write per-cell logs plus the summary tables."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # the path, or one of its parents, is a file
        raise ConfigError(f"output path {out} is not a directory") from None
    cells = expand_matrix(matrix)

    manifest = {
        "schema_version": 1,
        "policies": [p.label for p in matrix.policies],
        "deployments": list(matrix.deployments),
        "persistence_modes": list(matrix.modes),
        "seeds": list(matrix.seeds),
        "horizon": matrix.horizon,
        "budget": matrix.budget,
        "seed_base": matrix.seed_base,
        "score_mode": matrix.score_mode,
    }
    _write(out / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    files = _RunFiles(matrix)

    def job(cell: CellSpec) -> RunMetrics:
        logger.info("running cell %s", cell.name)
        result = run_cell(cell, matrix, out_dir=out, files=files)
        write_cell(out, cell, result)
        # only the metrics outlive the cell, so memory grows with cells, not episodes
        return metrics.run_metrics(result, matrix.score_mode)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(job, cells))
    else:
        runs = [job(c) for c in cells]

    return write_summaries(out, runs, matrix)


def replay_out_dir(out_dir: str | Path) -> SummaryTables:
    """Recompute summary tables from the episode logs of exactly the cells the manifest names."""
    out = Path(out_dir)
    matrix = _manifest_matrix(out)
    runs, missing, corrupt = [], [], []
    for cell in expand_matrix(matrix):
        try:
            text = (out / cell.name / "episodes.jsonl").read_text(encoding="utf-8")
            # each line is decoded and checked once, then reduced in the same expression,
            # bound to no name: no cell's records outlive it
            runs.append(metrics.run_metrics(_cell_result(cell, records_from_jsonl(text)), matrix.score_mode))
        except FileNotFoundError:
            missing.append(cell.name)
        # ValueError: also not JSON, not UTF-8, or no record to average; OSError: unreadable, say a directory
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


def _manifest_matrix(out: Path) -> ExperimentMatrix:
    """The matrix that ``out``'s run manifest names; ConfigError naming the manifest when it is unusable."""
    path = out / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no {MANIFEST_NAME} in {out}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path} is not a JSON run manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {manifest!r}")
    axes = {}
    for key, kind in (("policies", str), ("deployments", str), ("persistence_modes", str), ("seeds", int)):
        values = manifest.get(key)
        if not isinstance(values, list) or not all(isinstance(v, kind) for v in values):
            raise ConfigError(f"{path}: {key!r} must be a list of {kind.__name__}, got {values!r}")
        axes[key] = values
    score_mode = manifest.get("score_mode", SCORE_MODE_SETS)
    if score_mode not in SCORE_MODES:
        raise ConfigError(f"{path}: unknown score mode {score_mode!r}")
    return ExperimentMatrix(
        policies=[PolicySpec(label) for label in axes["policies"]],
        deployments=axes["deployments"],
        modes=axes["persistence_modes"],
        seeds=axes["seeds"],
        score_mode=score_mode,
    )
