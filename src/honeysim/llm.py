"""Model-backed defender policy: prompt building, response parsing, backends.

The policy speaks to any OpenAI-style chat-completion endpoint over HTTP, or
to a scripted mock that replays canned responses for offline runs and tests.
Malformed or unreachable backends never crash an episode: the policy falls
back to repeating its previous decision (or the first catalog service before
one exists) and flags the turn.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import re
import time
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .catalog import AttackGraph, AttackStage, HoneynetConfig, ServiceSpec, name_key
from .policies import (
    BeliefState,
    ExposureDecision,
    Policy,
    StagePrediction,
    make_prediction,
)
from .telemetry import EpochObservation, summarize_for_prompt

logger = logging.getLogger(__name__)

PLACEHOLDERS = ("alerts", "progression", "services", "budget")


class MissingPlaceholderError(ValueError):
    """The prompt template lacks one of the required placeholders."""


class ResponseParseError(ValueError):
    """No usable JSON decision could be extracted from the model output."""


class BackendError(RuntimeError):
    """The backend stayed unreachable or unusable after all retries."""


@dataclass(frozen=True)
class PromptTemplate:
    text: str

    def __post_init__(self) -> None:
        missing = [p for p in PLACEHOLDERS if "{" + p + "}" not in self.text]
        if missing:
            raise MissingPlaceholderError(f"template is missing placeholders: {missing}")

    def render(self, **values: str) -> str:
        # plain str.format would choke on the JSON braces in the template body
        out = self.text
        for name in PLACEHOLDERS:
            out = out.replace("{" + name + "}", values[name])
        return out


def builtin_template() -> PromptTemplate:
    text = resources.files("honeysim.data").joinpath("prompt_template.txt").read_text(encoding="utf-8")
    return PromptTemplate(text)


def load_template(path: str) -> PromptTemplate:
    with open(path, encoding="utf-8") as fh:
        return PromptTemplate(fh.read())


def _services_section(catalog: AttackGraph) -> str:
    lines = []
    for svc in catalog.services:
        stages = ", ".join(s.label for s in svc.supported_stages)
        kind = "exploitable" if svc.vulnerable else "scan-only decoy"
        lines.append(f"- {svc.id} ({svc.display_name}): {kind}; stages: {stages}")
    return "\n".join(lines)


def _progression_section(belief: BeliefState) -> str:
    lines = belief.progression_lines(limit=12)
    return "\n".join(lines) if lines else "no prior evidence"


def build_prompt(
    digest: str, belief: BeliefState, cfg: HoneynetConfig, template: PromptTemplate
) -> str:
    """Deterministically instantiate the template with this epoch's context."""
    return template.render(
        alerts=digest if digest else "none",
        progression=_progression_section(belief),
        services=_services_section(cfg.catalog),
        budget=str(cfg.budget),
    )


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def _json_candidates(raw: str) -> list[str]:
    candidates = [m.group(1).strip() for m in _FENCE_RE.finditer(raw)]
    # scan for balanced top-level objects outside fences, respecting strings
    depth = 0
    start = None
    in_string = False
    escaped = False
    for i, ch in enumerate(raw):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            if depth > 0:
                depth -= 1
                if depth == 0 and start is not None:
                    candidates.append(raw[start : i + 1])
                    start = None
    return candidates


def _resolve_service(name: str, catalog: AttackGraph) -> Optional[str]:
    key = name_key(name)
    for svc in catalog.services:
        if key in (name_key(svc.id), name_key(svc.display_name)):
            return svc.id
    return None


def parse_response(raw: str, cfg: HoneynetConfig) -> tuple[ExposureDecision, StagePrediction]:
    """Extract the decision object from model output, tolerating surrounding prose.

    Unknown service or stage names are dropped with a warning. The expose
    list keeps its order, repeats and length; ``policy_decide`` enforces the
    budget.
    """
    payload = None
    for candidate in _json_candidates(raw):
        try:
            parsed = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(parsed, dict) and "expose" in parsed and "stages" in parsed:
            payload = parsed
            break
    if payload is None:
        raise ResponseParseError("no JSON object with 'expose' and 'stages' fields found")

    expose_raw = payload.get("expose")
    stages_raw = payload.get("stages")
    if not isinstance(expose_raw, list) or not isinstance(stages_raw, list):
        raise ResponseParseError("'expose' and 'stages' must be lists")

    exposed: list[str] = []
    for name in expose_raw:
        sid = _resolve_service(str(name), cfg.catalog)
        if sid is None:
            logger.warning("model exposed unknown service %r; dropped", name)
        else:
            exposed.append(sid)

    stages: list[AttackStage] = []
    for name in stages_raw:
        try:
            stages.append(AttackStage.from_label(str(name)))
        except ValueError:
            logger.warning("model predicted unknown stage %r; dropped", name)

    decision = ExposureDecision(exposed=tuple(exposed), declared_done=bool(payload.get("done", False)))
    return decision, make_prediction(stages)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class ScriptedMockBackend:
    """Replays a fixed response sequence; repeats the last one when exhausted."""

    responses: Sequence[str]
    kind: str = "scripted_mock"
    _cursor: int = field(default=0, repr=False)

    def complete(self, prompt: str) -> str:
        if not self.responses:
            raise BackendError("scripted mock has no responses")
        idx = min(self._cursor, len(self.responses) - 1)
        self._cursor += 1
        return self.responses[idx]


class HttpChatBackend:
    """OpenAI-compatible chat-completion client with bounded retries."""

    kind = "http_chat_completion"

    def __init__(
        self,
        base_url: str,
        model: str,
        auth_env: str = "OPENAI_API_KEY",
        temperature: float = 0.0,
        max_tokens: int = 512,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.auth_env = auth_env
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds

    def auth_token(self) -> Optional[str]:
        return os.environ.get(self.auth_env)

    def complete(self, prompt: str) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        token = self.auth_token()
        if token:
            headers["Authorization"] = f"Bearer {token}"
        # urlopen raises HTTPError (an OSError) on any status >= 400
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions", data=json.dumps(body).encode("utf-8"), headers=headers
        )

        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    content = json.load(resp)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is {type(content).__name__}, not a string")
                return content
            except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff_seconds * (2**attempt))
        raise BackendError(f"backend unreachable after {self.max_retries} attempts: {last_error}")


def load_replay_file(path: str) -> list[list[str]]:
    """Load mock scripts: either a flat response list or per-episode lists."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("episodes")
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty list of responses or episode lists")
    if all(isinstance(item, str) for item in data):
        return [list(data)]
    return [[str(r) for r in episode] for episode in data]


def aligned_mock_script(svc: ServiceSpec, objective: Optional[AttackStage] = None) -> list[str]:
    """Script that mirrors a deterministic attacker's ground-truth progression."""
    target_objective = objective or svc.terminal_stage
    if target_objective is None:
        raise ValueError(f"{svc.id} has no exploitation chain to align with")
    responses = [json.dumps({"expose": [svc.id], "stages": [], "done": False})]
    reached = [AttackStage.RECONNAISSANCE.label]
    for stage in svc.supported_stages:
        if stage == AttackStage.RECONNAISSANCE:
            continue
        if stage > target_objective:
            break
        reached.append(stage.label)
        responses.append(
            json.dumps({"expose": [svc.id], "stages": list(reached), "done": stage >= target_objective})
        )
    return responses


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass
class AgentTurn:
    epoch: int
    prompt: str
    raw_response: str
    parsed_ok: bool
    fallback_used: bool
    latency_s: float
    error: Optional[str] = None


def llm_decide(
    backend,
    obs: EpochObservation,
    belief: BeliefState,
    cfg: HoneynetConfig,
    *,
    template: Optional[PromptTemplate] = None,
    previous_decision: Optional[ExposureDecision] = None,
    prompt_char_cap: int = 8000,
) -> tuple[ExposureDecision, StagePrediction, BeliefState, AgentTurn]:
    """One model turn: build prompt, call the backend, parse, fall back if needed.

    The caller is responsible for having already folded ``obs`` into
    ``belief`` (``policy_decide`` does this).
    """
    template = template or builtin_template()
    overhead = len(build_prompt("", belief, cfg, template))
    digest_budget = max(100, prompt_char_cap - overhead)
    digest = summarize_for_prompt(obs, digest_budget)
    prompt = build_prompt(digest, belief, cfg, template)

    started = time.perf_counter()
    raw = ""
    error: Optional[str] = None
    try:
        raw = backend.complete(prompt)
    except BackendError as exc:
        error = f"backend-unreachable: {exc}"
    latency = time.perf_counter() - started

    decision: Optional[ExposureDecision] = None
    prediction = make_prediction(())
    parsed_ok = False
    if error is None:
        try:
            decision, prediction = parse_response(raw, cfg)
            parsed_ok = True
        except ResponseParseError as exc:
            error = f"parse-failure: {exc}"

    fallback_used = decision is None
    if decision is None:
        if previous_decision is not None:
            decision = ExposureDecision(exposed=previous_decision.exposed)
        else:
            decision = ExposureDecision(exposed=cfg.catalog.ids[: cfg.budget])
        logger.warning("model turn failed (%s); falling back to %s", error, decision.exposed)

    turn = AgentTurn(
        epoch=obs.epoch,
        prompt=prompt,
        raw_response=raw,
        parsed_ok=parsed_ok,
        fallback_used=fallback_used,
        latency_s=latency,
        error=error,
    )
    return decision, prediction, belief, turn


class LlmPolicy(Policy):
    """Defender policy whose reasoning is delegated to a chat model backend."""

    name = "llm"

    def __init__(
        self,
        backend,
        template: Optional[PromptTemplate] = None,
        prompt_char_cap: int = 8000,
        label: Optional[str] = None,
    ) -> None:
        self.backend = backend
        self.template = template or builtin_template()
        self.prompt_char_cap = prompt_char_cap
        self._last_decision: Optional[ExposureDecision] = None
        self._turn_log: Optional[str] = None
        if label:
            self.name = label

    def attach_turn_log(self, path) -> None:
        """Stream each turn to this line-delimited JSON file as it happens."""
        self._turn_log = str(path)

    def decide(self, obs, belief, cfg):
        decision, prediction, _, turn = llm_decide(
            self.backend,
            obs,
            belief,
            cfg,
            template=self.template,
            previous_decision=self._last_decision,
            prompt_char_cap=self.prompt_char_cap,
        )
        # the turn hits disk before the decision it produced takes effect
        if self._turn_log is not None:
            with open(self._turn_log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(vars(turn), sort_keys=True) + "\n")
        self._last_decision = decision
        return decision, prediction
