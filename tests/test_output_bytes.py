"""Pinned output bytes: a small matrix over every offline policy kind.

The digest covers the bytes of every cell's ``cell.json``, ``episodes.jsonl``
and ``turns.jsonl``, every summary file, and what ``honeysim run`` prints
with the output path masked. No turn line holds a wall-clock value. A second
digest covers ``run_stats.json`` with each cell's ``latency_s``, the one
wall-clock value it holds, masked. A refactor that claims "same bytes" must
leave both unchanged; a deliberate output change re-pins them and says so.
"""

import contextlib
import hashlib
import io
import json
import re

import yaml

from honeysim.cli import main
from honeysim.harness import replay_out_dir

# pinned at commit 5ddf1b2, before the summary and deployment tables were rewritten; then the digest
# read each turn line re-encoded without its latency_s, the bytes turns.jsonl now has
PINNED_SHA256 = "cfdd980429986e06a77560bad258f51a1d22be59dda7a9ad83957953a11976ad"
# run_stats.json with its latencies masked, so each cell's turn and degradation counts;
# pinned at ece3339, the commit that first wrote it
PINNED_RUN_STATS_SHA256 = "98b0a18afe580f136f0112a0a5888c2e97b71b0c4d93b3291ce673ef73e9ad8e"

REPLIES = [
    json.dumps({"expose": ["gitlab"], "stages": ["Reconnaissance"], "done": False}),
    "no decision in this reply",
    json.dumps({"expose": ["gitlab", "apache_struts"], "stages": ["recon", "initial_access"]}),
    "```json\n" + json.dumps({"expose": ["apache-struts"], "stages": ["PrivEsc"], "done": False}) + "\n```",
    json.dumps({"expose": ["redis"], "stages": ["LateralMovement"]}),
]

CONFIG = {
    "horizon": 6,
    "budget": 1,
    "seed_base": 3,
    "seeds": [0, 1],
    "policies": [
        "oracle",
        "random",
        "reactive",
        {"name": "static", "kind": "static", "expose": ["gitlab"]},
        "scripted",
        # the mock entry gets its replay file in the test
    ],
    "deployments": ["fully_vulnerable", "small_mixed"],
    "persistence_modes": ["probabilistic", "consecutive"],
    "persistence": {"decay": 0.25, "floor": 0.1},
    "noise": {"false_positive_rate": 0.2, "hint_corruption_rate": 0.2},
}

CELL_FILES = ("cell.json", "episodes.jsonl", "turns.jsonl")


def _summaries(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("summary_*"))}


def _digest(out, stdout: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out)
        if len(rel.parts) == 2 and rel.name in CELL_FILES:
            data = path.read_bytes()
        elif len(rel.parts) == 1 and rel.name.startswith("summary_"):
            data = path.read_bytes()
        else:
            continue
        digest.update(rel.as_posix().encode("utf-8") + b"\0" + data + b"\0")
    digest.update(stdout.replace(str(out), "<out>").encode("utf-8"))
    return digest.hexdigest()


def masked_run_stats(out) -> str:
    """run_stats.json with each cell's latency_s, a wall-clock value, masked."""
    text = (out / "run_stats.json").read_text(encoding="utf-8")
    masked, latencies = re.subn(r'"latency_s": \{"p50": [^{}]*\}', '"latency_s": "<masked>"', text)
    assert latencies == text.count('"latency_s": {')
    return masked


def check_pinned_bytes(tmp_path):
    """Run the pinned matrix into ``tmp_path / "out"`` and check both digests; the output directory."""
    replay = tmp_path / "replies.json"
    replay.write_text(json.dumps([REPLIES, REPLIES[::-1]]), encoding="utf-8")
    policies = [*CONFIG["policies"], {"name": "mock", "kind": "mock", "replay": str(replay)}]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({**CONFIG, "policies": policies}), encoding="utf-8")
    out = tmp_path / "out"

    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["run", "--offline", "--config", str(config), "--out", str(out)]) == 0
    assert _digest(out, stdout.getvalue()) == PINNED_SHA256, "the run's output bytes moved"
    digest = hashlib.sha256(masked_run_stats(out).encode("utf-8")).hexdigest()
    assert digest == PINNED_RUN_STATS_SHA256, "run_stats.json's masked bytes moved"
    return out


def test_offline_policy_matrix_bytes_are_pinned(tmp_path):
    out = check_pinned_bytes(tmp_path)
    assert len([p for p in out.iterdir() if p.is_dir()]) == 6 * 2 * 2 * 2
    turns = [json.loads(line) for path in out.glob("*/turns.jsonl") for line in path.read_bytes().splitlines()]
    assert turns and not any("latency_s" in turn for turn in turns)

    ran = _summaries(out)
    assert len(ran) == 6
    replay_out_dir(out)
    assert _summaries(out) == ran
