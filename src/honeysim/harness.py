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
from dataclasses import dataclass, field
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
    SCORE_MODE_CURRENT,
    SCORE_MODE_SETS,
    RunMetrics,
    RunResult,
    SummaryTables,
    aggregate,
    scores_csv,
    scores_text,
    success_csv,
    success_text,
)
from .policies import OraclePolicy, RandomPolicy, ReactivePolicy, StaticPolicy
from .telemetry import NoiseConfig, SignatureCatalogMissError, exploit_signatures

logger = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"
BACKEND_KINDS = ("http_chat_completion",)


class ConfigError(ValueError):
    """The run config cannot be executed as written."""


@dataclass(frozen=True)
class PolicySpec:
    label: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BackendSpec:
    name: str
    kind: str = "http_chat_completion"
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4.1-mini"
    auth_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")


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
    backends: dict = field(default_factory=dict)
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
    derived_seed: int

    @property
    def name(self) -> str:
        return f"{self.policy.label}__{self.deployment}__{self.persistence}__seed{self.seed}"


def expand_matrix(matrix: ExperimentMatrix) -> list[CellSpec]:
    """Cartesian expansion in lexicographic axis order with per-cell seeds.

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
    cells = []
    for policy in matrix.policies:
        for deployment in matrix.deployments:
            for mode in matrix.modes:
                for seed in matrix.seeds:
                    cells.append(
                        CellSpec(
                            policy=policy,
                            deployment=deployment,
                            persistence=mode,
                            seed=seed,
                            derived_seed=derive_seed(
                                matrix.seed_base, policy.label, deployment, mode, seed
                            ),
                        )
                    )
    shared = sorted(name for name, n in Counter(c.name for c in cells).items() if n > 1)
    if shared:
        raise ConfigError(f"cells share a directory: {', '.join(shared)}")
    return cells


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------


def _parse_policy_entry(entry) -> PolicySpec:
    if isinstance(entry, str):
        return PolicySpec(label=entry, kind=entry)
    if isinstance(entry, dict):
        kind = entry.get("kind") or entry.get("name")
        label = entry.get("name") or kind
        params = {k: v for k, v in entry.items() if k not in ("name", "kind")}
        return PolicySpec(label=str(label), kind=str(kind), params=params)
    raise ConfigError(f"unparseable policy entry: {entry!r}")


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


def _section(data: dict, key: str, kind: type):
    """``data[key]``, empty when absent or null; ConfigError when it is not a ``kind``."""
    value = data.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ConfigError(f"{key!r} must be a {'mapping' if kind is dict else 'list'}, got {value!r}")
    return value


def _number(value, kind: type, key: str):
    """``kind(value)``; ConfigError naming ``key`` when ``value`` is no ``kind``.

    A fractional integer (``horizon: 2.9``) is refused rather than truncated.
    """
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None


def matrix_from_dict(data: dict) -> ExperimentMatrix:
    if not isinstance(data, dict):
        raise ConfigError(f"a run config must be a mapping, got {data!r}")
    persistence, noise, attacker = (_section(data, key, dict) for key in ("persistence", "noise", "attacker"))
    backends = {}
    for name, entry in _section(data, "backends", dict).items():
        try:
            backends[name] = BackendSpec(name=name, **entry)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"backend {name!r}: {exc}") from None
    return ExperimentMatrix(
        policies=[_parse_policy_entry(p) for p in _section(data, "policies", list)],
        deployments=_section(data, "deployments", list),
        modes=_section(data, "persistence_modes", list),
        seeds=[_number(s, int, f"seeds[{i}]") for i, s in enumerate(_section(data, "seeds", list))],
        horizon=_number(data.get("horizon", ExperimentMatrix.horizon), int, "horizon"),
        budget=_number(data.get("budget", ExperimentMatrix.budget), int, "budget"),
        seed_base=_number(data.get("seed_base", ExperimentMatrix.seed_base), int, "seed_base"),
        decay=_number(persistence.get("decay", ExperimentMatrix.decay), float, "persistence.decay"),
        floor=_number(persistence.get("floor", ExperimentMatrix.floor), float, "persistence.floor"),
        noise=NoiseConfig(
            **{
                rate: _number(noise.get(rate, getattr(NoiseConfig, rate)), float, f"noise.{rate}")
                for rate in ("false_positive_rate", "hint_corruption_rate")
            }
        ),
        abandon_on_failure=bool(attacker.get("abandon_on_failure", ExperimentMatrix.abandon_on_failure)),
        belief_carryover=bool(data.get("belief_carryover", ExperimentMatrix.belief_carryover)),
        bootstrap=str(data.get("bootstrap", ExperimentMatrix.bootstrap)),
        score_mode=str(data.get("score_mode", ExperimentMatrix.score_mode)),
        backends=backends,
        catalog_path=data.get("catalog"),
        prompt_template_path=data.get("prompt_template"),
        attackers=data.get("attackers"),
    )


def validate_matrix(matrix: ExperimentMatrix, offline: bool = False) -> list[str]:
    """Collect everything that would make a run fail; empty means runnable.

    Builds the inputs of every (policy, deployment, persistence) cell with
    ``run_cell``'s own builder, without running an episode, then adds the
    checks that depend on this environment.
    """
    problems: list[str] = []

    def check(build, *args) -> None:
        try:
            build(*args)
        except (ConfigError, ValueError, KeyError, OSError) as exc:
            if str(exc) not in problems:  # one bad setting fails many cells alike
                problems.append(str(exc))

    check(expand_matrix, matrix)
    for policy, deployment, mode in itertools.product(matrix.policies, matrix.deployments, matrix.modes):
        check(_cell_inputs, CellSpec(policy, deployment, mode, seed=0, derived_seed=0), matrix)
    # baseline cells never load the template, so check it even when none uses it
    if matrix.prompt_template_path:
        check(_prompt_template, matrix)
    if matrix.score_mode not in (SCORE_MODE_SETS, SCORE_MODE_CURRENT):
        problems.append(f"unknown score mode {matrix.score_mode!r}")

    for spec in matrix.policies:
        backend = _backend_spec(spec, matrix) if spec.kind == "llm" else None
        if backend is None:
            continue
        if offline:
            problems.append(f"policy {spec.label}: HTTP backend {backend.name} forbidden in offline mode")
        elif not os.environ.get(backend.auth_env):
            problems.append(f"backend-auth-missing: set {backend.auth_env} for backend {backend.name}")
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
        for entry in matrix.attackers:
            if not isinstance(entry, dict) or not entry.get("target"):
                raise ConfigError(f"attacker entry needs a 'target': {entry!r}")
            objective = entry.get("objective")
            queue.append(
                AttackerProfile(
                    target_service=entry["target"],
                    persistence=persistence,
                    objective_stage=AttackStage.from_label(str(objective)) if objective else None,
                    label=str(entry.get("label", "")),
                    abandon_on_failure=bool(entry.get("abandon_on_failure", matrix.abandon_on_failure)),
                )
            )
    for profile in queue:
        if profile.target_service not in honeynet.catalog:
            raise ConfigError(f"attacker target {profile.target_service!r} not in {honeynet.deployment_name}")
        svc = honeynet.catalog.get(profile.target_service)
        objective = profile.resolve_objective(svc)
        # every exploit on the way to the objective must render as alerts
        for stage in svc.supported_stages:
            if AttackStage.RECONNAISSANCE < stage <= objective:
                try:
                    exploit_signatures(svc.id, stage)
                except SignatureCatalogMissError as exc:
                    raise ConfigError(f"attacker target {svc.id!r}: {exc.args[0]}") from None
    return queue


def _prompt_template(matrix: ExperimentMatrix) -> PromptTemplate:
    if not matrix.prompt_template_path:
        return builtin_template()
    try:
        return load_template(matrix.prompt_template_path)
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"prompt template unusable: {exc}") from None


def _backend_spec(spec: PolicySpec, matrix: ExperimentMatrix) -> Optional[BackendSpec]:
    """The configured backend that the policy's ``backend`` names; None for any other value."""
    name = spec.params.get("backend")
    return matrix.backends.get(name) if isinstance(name, str) else None


def _policy_factory(
    spec: PolicySpec, matrix: ExperimentMatrix, honeynet: HoneynetConfig, queue
) -> PolicyFactory:
    if spec.kind == "oracle":
        return lambda index, seed: OraclePolicy()
    if spec.kind == "random":
        return lambda index, seed: RandomPolicy(seed)
    if spec.kind == "reactive":
        return lambda index, seed: ReactivePolicy()
    if spec.kind == "static":
        exposed = spec.params.get("expose")
        if not isinstance(exposed, list) or not exposed:
            raise ConfigError(f"policy {spec.label}: static policy needs an 'expose' list")
        unknown = [name for name in exposed if name not in honeynet.catalog]
        if unknown:
            raise ConfigError(f"policy {spec.label}: exposes {unknown}, not in {honeynet.deployment_name}")
        exposed = tuple(exposed)
        return lambda index, seed: StaticPolicy(exposed)
    template = _prompt_template(matrix)
    if spec.kind == "scripted":
        scripts = []
        for profile in queue:
            svc = honeynet.catalog.get(profile.target_service)
            scripts.append(aligned_mock_script(svc, profile.resolve_objective(svc)))
        return lambda index, seed: LlmPolicy(
            ScriptedMockBackend(scripts[index % len(scripts)]), template=template, label=spec.label
        )
    if spec.kind == "mock":
        replay = spec.params.get("replay")
        if not replay:
            raise ConfigError(f"policy {spec.label}: mock policy needs a 'replay' file")
        try:
            episodes = load_replay_file(replay)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"policy {spec.label}: replay file {replay!r} unusable: {exc}") from None
        return lambda index, seed: LlmPolicy(
            ScriptedMockBackend(episodes[index % len(episodes)]), template=template, label=spec.label
        )
    if spec.kind == "llm":
        backend_spec = _backend_spec(spec, matrix)
        if backend_spec is None:
            raise ConfigError(f"policy {spec.label}: unknown backend {spec.params.get('backend')!r}")
        backend = HttpChatBackend(
            base_url=backend_spec.base_url,
            model=backend_spec.model,
            auth_env=backend_spec.auth_env,
            temperature=backend_spec.temperature,
            max_tokens=backend_spec.max_tokens,
            timeout=backend_spec.timeout,
        )
        return lambda index, seed: LlmPolicy(backend, template=template, label=spec.label)
    raise ConfigError(f"unknown policy kind {spec.kind!r}")


def _cell_inputs(cell: CellSpec, matrix: ExperimentMatrix) -> tuple[RunConfig, PolicyFactory]:
    """Build one cell's run config and policy factory; raise what makes the cell unrunnable.

    ``run_cell`` runs what this returns. ``validate_matrix`` only builds it, so
    a config passes validation exactly when every cell can be built.
    """
    honeynet = _honeynet_for(matrix, cell.deployment)
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
    return cfg, _policy_factory(cell.policy, matrix, honeynet, queue)


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


def run_cell(cell: CellSpec, matrix: ExperimentMatrix, out_dir: Optional[Path] = None) -> RunResult:
    """Execute one cell.

    With ``out_dir`` set, model turns stream to the cell's turns.jsonl as they
    happen, so partial runs still leave an audit trail.
    """
    cfg, make_policy = _cell_inputs(cell, matrix)

    turn_log: Optional[Path] = None
    if out_dir is not None:
        cell_dir = out_dir / cell.name
        cell_dir.mkdir(parents=True, exist_ok=True)
        turn_log = cell_dir / "turns.jsonl"
        turn_log.unlink(missing_ok=True)  # reruns must not append to stale logs

    def factory(index: int, seed: int):
        policy = make_policy(index, seed)
        if turn_log is not None and isinstance(policy, LlmPolicy):
            policy.attach_turn_log(turn_log)
        return policy

    return _cell_result(cell, run_simulation(cfg, factory))


def _cell_result(cell: CellSpec, records) -> RunResult:
    return RunResult(cell.policy.label, cell.deployment, cell.persistence, cell.seed, tuple(records))


def write_cell(out_dir: Path, cell: CellSpec, result: RunResult) -> None:
    cell_dir = out_dir / cell.name
    cell_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "policy": cell.policy.label,
        "deployment": cell.deployment,
        "persistence": cell.persistence,
        "seed": cell.seed,
        "derived_seed": cell.derived_seed,
    }
    (cell_dir / "cell.json").write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    (cell_dir / "episodes.jsonl").write_text(records_to_jsonl(result.records) + "\n", encoding="utf-8")


def write_summaries(out_dir: Path, runs: Sequence[RunMetrics], matrix: ExperimentMatrix) -> SummaryTables:
    tables = aggregate(
        runs,
        policies=[p.label for p in matrix.policies],
        deployments=matrix.deployments,
        modes=matrix.modes,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary_success_by_deployment.csv").write_text(
        success_csv(tables.success_by_deployment, "deployment"), encoding="utf-8"
    )
    (out_dir / "summary_success_by_deployment.txt").write_text(
        success_text(tables.success_by_deployment, "deployment", "Exploitation success by deployment"),
        encoding="utf-8",
    )
    (out_dir / "summary_success_by_persistence.csv").write_text(
        success_csv(tables.success_by_persistence, "persistence"), encoding="utf-8"
    )
    (out_dir / "summary_success_by_persistence.txt").write_text(
        success_text(tables.success_by_persistence, "persistence", "Exploitation success by persistence"),
        encoding="utf-8",
    )
    (out_dir / "summary_scores.csv").write_text(
        scores_csv(tables.scores, tables.policy_order), encoding="utf-8"
    )
    (out_dir / "summary_scores.txt").write_text(
        scores_text(tables.scores, tables.policy_order, "Stage-inference score (mean ± std over seeds)"),
        encoding="utf-8",
    )
    return tables


def execute_matrix(matrix: ExperimentMatrix, out_dir: str | Path, workers: int = 1) -> SummaryTables:
    """Run every cell, write per-cell logs plus the summary tables."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def job(cell: CellSpec) -> RunMetrics:
        logger.info("running cell %s", cell.name)
        result = run_cell(cell, matrix, out_dir=out)
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
    runs, missing = [], []
    for cell in expand_matrix(matrix):
        try:
            text = (out / cell.name / "episodes.jsonl").read_text(encoding="utf-8")
        except FileNotFoundError:
            missing.append(cell.name)
            continue
        # parsed and reduced in one expression, bound to no name: no cell's records outlive it
        runs.append(metrics.run_metrics(_cell_result(cell, records_from_jsonl(text)), matrix.score_mode))
    if missing:
        raise ConfigError(f"cells in {MANIFEST_NAME} without episodes.jsonl: {', '.join(missing)}")
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
    if score_mode not in (SCORE_MODE_SETS, SCORE_MODE_CURRENT):
        raise ConfigError(f"{path}: unknown score mode {score_mode!r}")
    # the manifest keeps policy labels only; replay needs no policy kind
    return ExperimentMatrix(
        policies=[PolicySpec(label=label, kind="") for label in axes["policies"]],
        deployments=axes["deployments"],
        modes=axes["persistence_modes"],
        seeds=axes["seeds"],
        score_mode=score_mode,
    )
