"""Experiment matrix: config loading, expansion, execution, and replay.

A run config is one declarative YAML file: catalog and deployment axes,
persistence modes, policies (baselines, scripted mocks, or HTTP model
backends), seeds, and noise parameters. The matrix expands to one cell per
(policy, deployment, persistence, seed) combination, each with its own
derived seed, so any cell reruns independently and reproducibly.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import yaml

from .attackers import AttackerProfile, PersistenceModel, default_attacker_queue
from .catalog import (
    AttackGraph,
    AttackStage,
    DEPLOYMENT_NAMES,
    HoneynetConfig,
    deployment_config,
    load_catalog,
    validate_deployment,
)
from .engine import (
    RunConfig,
    derive_seed,
    records_from_jsonl,
    records_to_jsonl,
    run_simulation,
)
from .llm import (
    HttpChatBackend,
    LlmPolicy,
    ScriptedMockBackend,
    aligned_mock_script,
    builtin_template,
    load_replay_file,
    load_template,
)
from .metrics import (
    SCORE_MODE_CURRENT,
    SCORE_MODE_SETS,
    RunResult,
    SummaryTables,
    aggregate,
    scores_csv,
    scores_text,
    success_csv,
    success_text,
)
from .policies import OraclePolicy, RandomPolicy, ReactivePolicy, StaticPolicy
from .telemetry import NoiseConfig

logger = logging.getLogger(__name__)

POLICY_KINDS = ("oracle", "random", "reactive", "static", "scripted", "mock", "llm")

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
    """Cartesian expansion in lexicographic axis order with per-cell seeds."""
    for axis, values in (
        ("policies", matrix.policies),
        ("deployments", matrix.deployments),
        ("persistence_modes", matrix.modes),
        ("seeds", matrix.seeds),
    ):
        if not values:
            raise ConfigError(f"matrix axis {axis!r} is empty")
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
        return matrix_from_dict(yaml.safe_load(fh) or {})


def load_builtin_config() -> ExperimentMatrix:
    from importlib import resources

    text = resources.files("honeysim.data").joinpath("default_config.yaml").read_text(encoding="utf-8")
    return matrix_from_dict(yaml.safe_load(text))


def matrix_from_dict(data: dict) -> ExperimentMatrix:
    persistence = data.get("persistence", {})
    noise = data.get("noise", {})
    attacker = data.get("attacker", {})
    backends = {}
    for name, entry in (data.get("backends") or {}).items():
        try:
            backends[name] = BackendSpec(name=name, **entry)
        except TypeError as exc:
            raise ConfigError(f"backend {name!r}: {exc}") from None
    return ExperimentMatrix(
        policies=[_parse_policy_entry(p) for p in data.get("policies", [])],
        deployments=list(data.get("deployments", [])),
        modes=list(data.get("persistence_modes", [])),
        seeds=[int(s) for s in data.get("seeds", [])],
        horizon=int(data.get("horizon", ExperimentMatrix.horizon)),
        budget=int(data.get("budget", ExperimentMatrix.budget)),
        seed_base=int(data.get("seed_base", ExperimentMatrix.seed_base)),
        decay=float(persistence.get("decay", ExperimentMatrix.decay)),
        floor=float(persistence.get("floor", ExperimentMatrix.floor)),
        noise=NoiseConfig(
            false_positive_rate=float(noise.get("false_positive_rate", NoiseConfig.false_positive_rate)),
            hint_corruption_rate=float(noise.get("hint_corruption_rate", NoiseConfig.hint_corruption_rate)),
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


def _attacker_queue(matrix: ExperimentMatrix, honeynet: HoneynetConfig, persistence: PersistenceModel):
    if matrix.attackers is None:
        return default_attacker_queue(
            honeynet.catalog, persistence, abandon_on_failure=matrix.abandon_on_failure
        )
    queue = []
    for entry in matrix.attackers:
        objective = entry.get("objective")
        queue.append(
            AttackerProfile(
                target_service=entry["target"],
                persistence=persistence,
                objective_stage=AttackStage.from_label(objective) if objective else None,
                label=entry.get("label", ""),
                abandon_on_failure=bool(entry.get("abandon_on_failure", matrix.abandon_on_failure)),
            )
        )
    return queue


def validate_matrix(matrix: ExperimentMatrix, offline: bool = False) -> list[str]:
    """Collect everything that would make a run fail; empty means runnable."""
    problems: list[str] = []
    if matrix.horizon < 1:
        problems.append(f"horizon must be at least 1, got {matrix.horizon}")
    if not matrix.seeds:
        problems.append("no seeds configured")
    if not matrix.policies:
        problems.append("no policies configured")
    if not matrix.deployments:
        problems.append("no deployments configured")
    if not matrix.modes:
        problems.append("no persistence modes configured")
    for mode in matrix.modes:
        try:
            PersistenceModel(mode, matrix.decay, matrix.floor)
        except ValueError as exc:
            problem = f"persistence: {exc}"
            if problem not in problems:  # a bad decay or floor fails every mode alike
                problems.append(problem)
    if matrix.score_mode not in (SCORE_MODE_SETS, SCORE_MODE_CURRENT):
        problems.append(f"unknown score mode {matrix.score_mode!r}")

    custom_catalog: Optional[AttackGraph] = None
    if matrix.catalog_path:
        try:
            custom_catalog = load_catalog(matrix.catalog_path)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"catalog file unusable: {exc}")
    for deployment in matrix.deployments:
        if deployment == "custom":
            if custom_catalog is None:
                problems.append("deployment 'custom' requires a catalog file")
            continue
        if deployment not in DEPLOYMENT_NAMES:
            problems.append(f"unknown deployment {deployment!r}")
            continue
        cfg = deployment_config(deployment, matrix.budget)
        problems.extend(f"{deployment}: {v}" for v in validate_deployment(cfg))

    if matrix.prompt_template_path:
        try:
            load_template(matrix.prompt_template_path)
        except (OSError, ValueError) as exc:
            problems.append(f"prompt template unusable: {exc}")

    if matrix.attackers is not None:
        if not matrix.attackers:
            problems.append("explicit attacker queue is empty")
        for entry in matrix.attackers:
            target = entry.get("target")
            if not target:
                problems.append(f"attacker entry missing 'target': {entry}")
                continue
            for deployment in matrix.deployments:
                if deployment == "custom":
                    catalog = custom_catalog
                elif deployment in DEPLOYMENT_NAMES:
                    catalog = deployment_config(deployment, matrix.budget).catalog
                else:
                    continue
                if catalog is None:
                    continue
                if target not in catalog or not catalog.get(target).vulnerable:
                    problems.append(f"attacker target {target!r} not exploitable in {deployment}")
                    continue
                objective = entry.get("objective")
                if objective:
                    try:
                        stage = AttackStage.from_label(objective)
                    except ValueError as exc:
                        problems.append(str(exc))
                        break
                    if stage not in catalog.get(target).supported_stages:
                        problems.append(
                            f"objective {objective} not supported by {target} in {deployment}"
                        )

    for spec in matrix.policies:
        if spec.kind not in POLICY_KINDS:
            problems.append(f"unknown policy kind {spec.kind!r}")
            continue
        if spec.kind == "static" and not spec.params.get("expose"):
            problems.append(f"policy {spec.label}: static policy needs an 'expose' list")
        if spec.kind == "mock":
            replay = spec.params.get("replay")
            if not replay:
                problems.append(f"policy {spec.label}: mock policy needs a 'replay' file")
            elif not Path(replay).exists():
                problems.append(f"policy {spec.label}: replay file {replay} not found")
        if spec.kind == "llm":
            backend_name = spec.params.get("backend")
            backend = matrix.backends.get(backend_name)
            if backend is None:
                problems.append(f"policy {spec.label}: unknown backend {backend_name!r}")
                continue
            if backend.kind not in BACKEND_KINDS:
                problems.append(f"backend {backend.name}: unknown kind {backend.kind!r}")
            elif backend.kind == "http_chat_completion":
                if offline:
                    problems.append(
                        f"policy {spec.label}: HTTP backend {backend.name} forbidden in offline mode"
                    )
                elif not os.environ.get(backend.auth_env):
                    problems.append(
                        f"backend-auth-missing: set {backend.auth_env} for backend {backend.name}"
                    )
    return problems


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


def _honeynet_for(matrix: ExperimentMatrix, deployment: str) -> HoneynetConfig:
    if deployment == "custom":
        catalog = load_catalog(matrix.catalog_path)
        return HoneynetConfig(catalog=catalog, budget=matrix.budget, deployment_name="custom")
    return deployment_config(deployment, matrix.budget)


def _policy_factory(spec: PolicySpec, matrix: ExperimentMatrix, honeynet: HoneynetConfig, queue):
    if spec.kind == "oracle":
        return lambda index, seed: OraclePolicy()
    if spec.kind == "random":
        return lambda index, seed: RandomPolicy(seed)
    if spec.kind == "reactive":
        return lambda index, seed: ReactivePolicy()
    if spec.kind == "static":
        exposed = tuple(spec.params["expose"])
        return lambda index, seed: StaticPolicy(exposed)
    template = (
        load_template(matrix.prompt_template_path) if matrix.prompt_template_path else builtin_template()
    )
    if spec.kind == "scripted":
        scripts = []
        for profile in queue:
            svc = honeynet.catalog.get(profile.target_service)
            scripts.append(aligned_mock_script(svc, profile.resolve_objective(svc)))
        return lambda index, seed: LlmPolicy(
            ScriptedMockBackend(scripts[index % len(scripts)]), template=template, label=spec.label
        )
    if spec.kind == "mock":
        episodes = load_replay_file(spec.params["replay"])
        return lambda index, seed: LlmPolicy(
            ScriptedMockBackend(episodes[index % len(episodes)]), template=template, label=spec.label
        )
    if spec.kind == "llm":
        backend_spec: BackendSpec = matrix.backends[spec.params["backend"]]
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


def run_cell(cell: CellSpec, matrix: ExperimentMatrix, out_dir: Optional[Path] = None) -> RunResult:
    """Execute one cell.

    With ``out_dir`` set, model turns stream to the cell's turns.jsonl as they
    happen, so partial runs still leave an audit trail.
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
    make_policy = _policy_factory(cell.policy, matrix, honeynet, queue)

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

    return RunResult(
        policy=cell.policy.label,
        deployment=cell.deployment,
        persistence=cell.persistence,
        seed=cell.seed,
        records=tuple(run_simulation(cfg, factory)),
    )


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


def write_summaries(
    out_dir: Path,
    results: Sequence[RunResult],
    *,
    policies: Sequence[str],
    deployments: Sequence[str],
    modes: Sequence[str],
    score_mode: str = SCORE_MODE_SETS,
) -> SummaryTables:
    tables = aggregate(
        results, policies=policies, deployments=deployments, modes=modes, score_mode=score_mode
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

    def job(cell: CellSpec) -> RunResult:
        logger.info("running cell %s", cell.name)
        result = run_cell(cell, matrix, out_dir=out)
        write_cell(out, cell, result)
        return result

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, cells))
    else:
        results = [job(c) for c in cells]

    return write_summaries(
        out,
        results,
        policies=[p.label for p in matrix.policies],
        deployments=matrix.deployments,
        modes=matrix.modes,
        score_mode=matrix.score_mode,
    )


def replay_out_dir(out_dir: str | Path) -> SummaryTables:
    """Recompute summary tables from stored episode logs alone."""
    out = Path(out_dir)
    manifest_path = out / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError(f"no {MANIFEST_NAME} in {out}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    results = []
    for cell_dir in sorted(p for p in out.iterdir() if p.is_dir()):
        cell_file = cell_dir / "cell.json"
        episodes_file = cell_dir / "episodes.jsonl"
        if not cell_file.exists() or not episodes_file.exists():
            continue
        meta = json.loads(cell_file.read_text(encoding="utf-8"))
        results.append(
            RunResult(
                policy=meta["policy"],
                deployment=meta["deployment"],
                persistence=meta["persistence"],
                seed=meta["seed"],
                records=tuple(records_from_jsonl(episodes_file.read_text(encoding="utf-8"))),
            )
        )
    if not results:
        raise ConfigError(f"no cell results found under {out}")
    return write_summaries(
        out,
        results,
        policies=manifest["policies"],
        deployments=manifest["deployments"],
        modes=manifest["persistence_modes"],
        score_mode=manifest.get("score_mode", SCORE_MODE_SETS),
    )
