"""Benchmark workloads: seeded run configs and mock replay files.

Every generated input derives from the workload seed alone. The seed becomes
the matrix ``seed_base`` and seeds the mock replay generator, so the same seed
always yields byte-identical configs and therefore byte-identical outputs.
The inputs are written as ordinary files, so ``honeysim run --config
<run dir>/config.yaml --workers <n>`` reproduces any run outside the
benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

DEPLOYMENTS = ["fully_vulnerable", "small_mixed", "large_mixed"]
MODES = ["deterministic", "probabilistic", "consecutive"]
BASELINES = ["oracle", "reactive", "random"]

# The seed count of each workload is its length knob: it sets how much work
# one run/replay iteration does.
SWEEP_SEEDS = 20
LONG_HORIZON_SEEDS = 12
MODEL_TURNS_SEEDS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    cells: int
    # sweep_parallel must produce sweep's bytes, so both share one digest table
    digest_key: str


WORKLOADS = {
    "sweep": Workload("sweep", 1, 3 * 3 * 3 * SWEEP_SEEDS, "sweep"),
    "sweep_parallel": Workload("sweep_parallel", 2, 3 * 3 * 3 * SWEEP_SEEDS, "sweep"),
    "long_horizon": Workload("long_horizon", 1, 2 * 3 * 3 * LONG_HORIZON_SEEDS, "long_horizon"),
    "model_turns": Workload("model_turns", 1, 1 * 3 * 3 * MODEL_TURNS_SEEDS, "model_turns"),
}


def _base_config(seed: int, policies: list, seeds: int) -> dict:
    return {
        "schema_version": 1,
        "horizon": 20,
        "budget": 1,
        "seed_base": seed,
        "seeds": list(range(seeds)),
        "policies": policies,
        "deployments": list(DEPLOYMENTS),
        "persistence_modes": list(MODES),
        "persistence": {"decay": 0.25, "floor": 0.1},
        "noise": {"false_positive_rate": 0.1, "hint_corruption_rate": 0.1},
        "attacker": {"abandon_on_failure": True},
        "belief_carryover": False,
        "bootstrap": "policy",
    }


def write_inputs(name: str, seed: int, run_dir: Path) -> Path:
    """Write the workload's config (and replay file) into ``run_dir``; return the config path."""
    if name in ("sweep", "sweep_parallel"):
        config = _base_config(seed, list(BASELINES), SWEEP_SEEDS)
    elif name == "long_horizon":
        config = _base_config(seed, ["reactive", "random"], LONG_HORIZON_SEEDS)
        config["horizon"] = 200
        config["attacker"]["abandon_on_failure"] = False
        config["noise"] = {"false_positive_rate": 0.5, "hint_corruption_rate": 0.3}
    elif name == "model_turns":
        replay = run_dir / "replay.json"
        replay.write_text(json.dumps(mock_replay(seed), indent=1) + "\n", encoding="utf-8")
        policy = {"name": "mock", "kind": "mock", "replay": str(replay.resolve())}
        config = _base_config(seed, [policy], MODEL_TURNS_SEEDS)
    else:
        raise KeyError(name)
    path = run_dir / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Mock model responses
# ---------------------------------------------------------------------------

# Script i is replayed to the i-th attacker of every cell, and the harness
# uses no other script, so a seed-drawn exposure choice would change episode
# lengths (and the run's work) from seed to seed. Each script therefore keeps
# one service in focus, spelt in different ways; the seed draws the prose,
# formats, stage lists, and the positions of the faulty replies. In
# fully_vulnerable the focus of script 1 is not deployed, so that attacker
# runs the full horizon; elsewhere each focus is the attacker's own target.
_FOCUS = [
    ["gitlab", "GitLab"],
    ["decoy_1", "Decoy service 1"],
    ["apache_struts", "Apache Struts", "apache-struts"],
    ["docker_api", "Docker API"],
]
# names no deployment has (dropped with a warning)
_UNKNOWN_SERVICES = ["redis", "jenkins", "decoy_9"]
# over-budget tails; they never name an attacker's target, and truncation keeps the focus
_EXTRA_SERVICES = ["decoy_2", "decoy_3", "Decoy service 4"]
_STAGES = ["Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc", "RootDataExfil"]
_STAGE_VARIANTS = ["recon", "initial_access", "privilege escalation", "root-exfil"]
_UNKNOWN_STAGES = ["Persistence", "LateralMovement"]
_WORDS = (
    "alerts suggest the attacker keeps probing the exposed service while noise from "
    "unrelated scanners stays low severity the exploitation chain looks consistent with "
    "initial access followed by data staging so keeping the target reachable should "
    "reveal the next stage without exceeding the exposure budget evidence weight rises "
    "on the web endpoint and the decoys only saw sweeps"
).split()

TURNS_PER_SCRIPT = 21  # bootstrap turn plus one per epoch at horizon 20
# Faults per script, at seed-drawn positions after the first reply: about one
# reply in ten has no usable JSON (the policy falls back), and a few name an
# unknown service or stage or go over budget.
_FAULTS = {"no_json": 2, "unknown_service": 2, "unknown_stage": 2, "over_budget": 2}
MIN_REPLY_CHARS, MAX_REPLY_CHARS = 200, 1500


def _prose(rng: random.Random, chars: int) -> str:
    words: list[str] = []
    used = 0
    while used < chars:
        word = rng.choice(_WORDS)
        words.append(word)
        used += len(word) + 1
    sentences = [" ".join(words[i : i + 14]).capitalize() + "." for i in range(0, len(words), 14)]
    return " ".join(sentences)


def _decision(rng: random.Random, focus: list[str], faults: set[str]) -> dict:
    expose = [rng.choice(focus)]
    if "over_budget" in faults:
        expose += rng.sample(_EXTRA_SERVICES, 2)
    if "unknown_service" in faults:
        expose.insert(0, rng.choice(_UNKNOWN_SERVICES))
    depth = rng.randrange(len(_STAGES) + 1)
    stages = [rng.choice((s, s, rng.choice(_STAGE_VARIANTS))) for s in _STAGES[:depth]]
    if "unknown_stage" in faults:
        stages.append(rng.choice(_UNKNOWN_STAGES))
    return {"expose": expose, "stages": stages, "done": False, "rationale": _prose(rng, rng.randrange(40, 160))}


def mock_response(rng: random.Random, size: int, fenced: bool, focus: list[str], faults: set[str]) -> str:
    """One reply of about ``size`` characters: prose around a fenced or inline JSON decision."""
    head = _prose(rng, rng.randrange(size // 4, size // 2))
    if "no_json" in faults:
        # braces that are not a decision object still exercise the scanner
        return f"{head} I cannot decide {{yet}} without more alerts. {_prose(rng, size - len(head) - 50)}"
    payload = json.dumps(_decision(rng, focus, faults), indent=rng.choice((None, 2)))
    tail = _prose(rng, size - len(head) - len(payload))
    if fenced:
        return f"{head}\n\n```json\n{payload}\n```\n\n{tail}"
    return f"{head} {payload} {tail}"


def _script(rng: random.Random, focus: list[str]) -> list[str]:
    n = TURNS_PER_SCRIPT
    # stratified sizes and formats keep the parsing work per script nearly seed-independent
    span = MAX_REPLY_CHARS - MIN_REPLY_CHARS
    sizes = [MIN_REPLY_CHARS + int(span * (k + rng.random()) / n) for k in range(n)]
    rng.shuffle(sizes)
    fenced = [k % 2 == 0 for k in range(n)]
    rng.shuffle(fenced)
    faults: list[set[str]] = [set() for _ in range(n)]
    for fault, count in _FAULTS.items():
        for k in rng.sample(range(1, n), count):
            faults[k].add(fault)
    return [mock_response(rng, sizes[k], fenced[k], focus, faults[k]) for k in range(n)]


def mock_replay(seed: int) -> dict:
    """Per-attacker response scripts for the ``mock`` policy, seeded by ``seed``."""
    rng = random.Random(f"honeysim-bench:model_turns:{seed}")
    return {"episodes": [_script(rng, focus) for focus in _FOCUS]}
