"""honeysim: adaptive honeypot exposure under a budget, simulated end to end.

Discrete-time episodes alternate an attacker phase and a defender phase. The
attacker advances a scripted exploitation chain only when its target service
is exposed; the defender sees nothing but synthetic IDS alerts and must keep
the right services reachable while predicting how deep the attack has gone.
"""

from .attackers import (
    AttackerProfile,
    AttackerState,
    PersistenceModel,
    attacker_step,
    attempt_probability,
    default_attacker_queue,
    make_attacker_state,
)
from .catalog import (
    AttackGraph,
    AttackStage,
    HoneynetConfig,
    ServiceSpec,
    deployment_config,
    load_catalog,
    next_stage,
)
from .engine import RunConfig, derive_seed, run_episode, run_simulation
from .harness import ExperimentMatrix, PolicySpec, execute_matrix, expand_matrix, load_run_file
from .llm import (
    HttpChatBackend,
    LlmPolicy,
    PromptTemplate,
    ScriptedMockBackend,
    build_prompt,
    builtin_template,
    llm_decide,
    parse_response,
)
from .metrics import (
    RunResult,
    aggregate,
    exploitation_achieved,
    inference_score,
)
from .policies import (
    BeliefState,
    ExposureDecision,
    OraclePolicy,
    Policy,
    RandomPolicy,
    ReactivePolicy,
    StagePrediction,
    StaticPolicy,
    policy_decide,
    update_belief,
)
from .telemetry import (
    EpochObservation,
    IdsAlert,
    NoiseConfig,
    aggregate_epoch,
    summarize_for_prompt,
    synthesize_alerts,
)

__version__ = "0.1.0"
