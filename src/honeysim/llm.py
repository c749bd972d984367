"""Model-backed defender policy: prompt building, response parsing, backends.

The policy speaks to any OpenAI-style chat-completion endpoint over HTTP, or
to a scripted mock that replays canned responses for offline runs and tests.
Malformed or unreachable backends never crash an episode: the policy falls
back to the exposure in force (at the bootstrap turn, the first ``budget``
catalog services) and flags the turn.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import time
import urllib.parse  # pathlib imports it already
from dataclasses import dataclass, field
from importlib import resources
from typing import ClassVar, NamedTuple, Optional, Sequence

from .catalog import AttackStage, HoneynetConfig, ServiceSpec
from .policies import (
    BeliefState,
    CellStats,
    ExposureDecision,
    Policy,
    StagePrediction,
    make_prediction,
)
from .settings import Settings, check
from .telemetry import EpochObservation, summarize_for_prompt

# the longest prompt a model turn sends; the alert digest is cut to fit
PROMPT_CHAR_CAP = 8000
PLACEHOLDERS = ("alerts", "progression", "services", "budget")
_PLACEHOLDER_RE = re.compile(r"\{(" + "|".join(PLACEHOLDERS) + r")\}")


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
        # the text split at its placeholders: literal, name, literal, ..., name, literal
        # (plain str.format would choke on the JSON braces in the template body)
        parts = _PLACEHOLDER_RE.split(self.text)
        missing = [p for p in PLACEHOLDERS if p not in parts[1::2]]
        if missing:
            raise MissingPlaceholderError(f"template is missing placeholders: {missing}")
        object.__setattr__(self, "_parts", parts)

    def render(self, **values: str) -> str:
        """The text with each placeholder replaced by its value, in one pass: no value is scanned for placeholders."""
        parts = self._parts.copy()
        parts[1::2] = map(values.__getitem__, parts[1::2])
        return "".join(parts)


def builtin_template() -> PromptTemplate:
    text = resources.files("honeysim.data").joinpath("prompt_template.txt").read_text(encoding="utf-8")
    return PromptTemplate(text)


def load_template(path: str) -> PromptTemplate:
    with open(path, encoding="utf-8") as fh:
        return PromptTemplate(fh.read())


def build_prompt(obs: EpochObservation, belief: BeliefState, cfg: HoneynetConfig, template: PromptTemplate) -> str:
    """Deterministically instantiate the template with this epoch's context.

    The alert digest gets what the prompt rendered with ``none`` for its
    alerts leaves of ``PROMPT_CHAR_CAP``, but at least 100 characters.
    """
    lines = belief.progression_lines(limit=12)
    sections = {
        "progression": "\n".join(lines) if lines else "no prior evidence",
        "services": cfg.catalog.outline,
        "budget": str(cfg.budget),
    }
    overhead = len(template.render(alerts="none", **sections))
    digest = summarize_for_prompt(obs, max(100, PROMPT_CHAR_CAP - overhead))
    return template.render(alerts=digest, **sections)


_DECODER = json.JSONDecoder()
# a JSON string, or one bracket outside strings
_BRACKET_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


def _fenced_blocks(raw: str) -> list[str]:
    """The text of each closed ``` fence in ``raw``, without a leading ``json`` tag or whitespace."""
    return [block.removeprefix("json").lstrip() for block in raw.split("```")[1:-1:2]]


def _find_decision(raw: str) -> Optional[dict]:
    """The first object with both decision keys: fenced blocks first, then the whole reply.

    JSON is decoded from each ``{`` in turn. A value that decodes is skipped
    whole, so an object nested in it is never considered. So is a value
    nested too deep for the decoder, which is no decision either.
    """
    for text in [*_fenced_blocks(raw), raw]:
        start = text.find("{")
        while start != -1:
            try:
                value, end = _DECODER.raw_decode(text, start)
            except json.JSONDecodeError:
                end = start + 1
            except RecursionError:
                end = _bracketed_end(text, start)
            else:
                if "expose" in value and "stages" in value:
                    return value
            start = text.find("{", end)
    return None


def _bracketed_end(text: str, start: int) -> int:
    """Where the value opened at ``start`` closes, counting brackets outside strings; the text's end if never.

    Decoding again from each ``{`` inside a value nested too deep would
    cost the recursion limit per ``{``; one pass over the brackets is linear.
    """
    depth = 0
    for token in _BRACKET_RE.finditer(text, start):
        bracket = token.group()
        if bracket in ("{", "["):
            depth += 1
        elif bracket in ("}", "]"):
            depth -= 1
            if depth == 0:
                return token.end()
    return len(text)


def parse_response(
    raw: str, cfg: HoneynetConfig, stats: Optional[CellStats] = None
) -> tuple[ExposureDecision, StagePrediction]:
    """Extract the decision object from model output, tolerating surrounding prose.

    Unknown service or stage names are dropped, and a ``done`` other than true
    or false is read as not done; ``stats`` counts each. The expose list keeps
    its order, repeats and length; ``policy_decide`` enforces the budget.
    """
    payload = _find_decision(raw)
    if payload is None:
        raise ResponseParseError("no JSON object with 'expose' and 'stages' fields found")

    expose_raw = payload.get("expose")
    stages_raw = payload.get("stages")
    if not isinstance(expose_raw, list) or not isinstance(stages_raw, list):
        raise ResponseParseError("'expose' and 'stages' must be lists")

    exposed: list[str] = []
    for name in expose_raw:
        sid = cfg.catalog.resolve(str(name))
        if sid is not None:
            exposed.append(sid)
        elif stats is not None:
            stats.counts["unknown_services"] += 1

    stages: list[AttackStage] = []
    for name in stages_raw:
        try:
            stages.append(AttackStage.from_label(str(name)))
        except ValueError:
            if stats is not None:
                stats.counts["unknown_stages"] += 1

    done = payload.get("done", False)
    if type(done) is not bool:  # only JSON true declares done
        if stats is not None:
            stats.counts["non_boolean_done"] += 1
        done = False
    return ExposureDecision(exposed=tuple(exposed), declared_done=done), make_prediction(stages)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class ScriptedMockBackend:
    """Replays a fixed response sequence; repeats the last one when exhausted."""

    responses: Sequence[str]
    _cursor: int = field(default=0, repr=False)

    def complete(self, prompt: str) -> str:
        if not self.responses:
            raise BackendError("scripted mock has no responses")
        idx = min(self._cursor, len(self.responses) - 1)
        self._cursor += 1
        return self.responses[idx]


@dataclass(frozen=True, kw_only=True)
class HttpChatBackend(Settings):
    """OpenAI-compatible chat-completion client with bounded retries.

    Its fields are the keys of a ``backends:`` entry in a run config, each
    with its default. It holds no per-call state, so threads may share one.
    """

    kind: str = "http_chat_completion"
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4.1-mini"
    auth_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0

    # fixed, not settings: attempts per prompt, and the first pause between them (doubling)
    max_retries: ClassVar[int] = 3
    backoff_seconds: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind != HttpChatBackend.kind:  # the default is the only kind
            raise ValueError(f"unknown kind {self.kind!r}")
        scheme, separator, _ = self.base_url.partition("://")
        if not separator or scheme.lower() not in ("http", "https"):  # urllib would open file:// and ftp:// too
            raise ValueError(f"base_url must start with http:// or https://, got {self.base_url!r}")
        if urllib.parse.urlsplit(self.base_url).hostname is None:  # http:// alone, or a port without a host
            raise ValueError(f"base_url must name a host, got {self.base_url!r}")
        if not self.auth_env:
            raise ValueError("auth_env must name an environment variable, got ''")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a finite number above 0, got {self.timeout}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be at least 1, got {self.max_tokens}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number of at least 0, got {self.temperature}")

    def complete(self, prompt: str) -> str:
        # imported here, not with the package: they load email and ssl, and offline runs never need them
        import http.client
        import urllib.error
        import urllib.request

        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        # an opener raises HTTPError (an OSError) on any status >= 400
        request = urllib.request.Request(
            f"{self.base_url.rstrip('/')}/chat/completions", data=json.dumps(body).encode("utf-8"), headers=headers
        )

        # the most bytes of a reply read: room for the JSON around the text, and 64 bytes for each token of it
        cap = 64 * 1024 + 64 * self.max_tokens
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                # the attempt's deadline: every read of its reply, from the status line on, ends by then
                with _opener(time.monotonic() + self.timeout).open(request, timeout=self.timeout) as resp:
                    body = resp.read(cap + 1)
                    # the bytes its Content-Length promised that never came (the connection closed early); None without one
                    owed = resp.length
                if len(body) > cap:
                    raise ValueError(f"reply longer than {cap} bytes")
                if owed:
                    raise http.client.IncompleteRead(body, owed)
                content = json.loads(body)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is {type(content).__name__}, not a string")
                return content
            # a reply nested too deep for the decoder is unusable, like one that is not JSON
            except (OSError, http.client.HTTPException, LookupError, RecursionError, TypeError, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response keeps its connection open until closed
                last_error = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff_seconds * (2**attempt))
        raise BackendError(f"backend unreachable after {self.max_retries} attempts: {last_error}")


class _DeadlineReads(io.RawIOBase):
    """The reads of one HTTP reply from ``sock``, each waiting at most until ``deadline``; TimeoutError after it.

    ``deadline`` is a ``time.monotonic()`` value. A reply that trickles in a
    byte at a time passes it as surely as one that never comes.
    """

    def __init__(self, sock, deadline: float) -> None:
        super().__init__()
        self._sock, self._deadline = sock, deadline
        self._reads = sock.makefile("rb", buffering=0)  # keeps the socket open until this closes, as a reply's file does

    def makefile(self, mode: str) -> io.BufferedReader:  # how http.client.HTTPResponse opens the socket it reads
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the reply did not arrive within the timeout")
        self._sock.settimeout(left)
        return self._reads.readinto(buffer)

    def close(self) -> None:
        self._reads.close()
        super().close()


def _opener(deadline: float):
    """urllib's default opener, proxies included, whose connections read each reply through ``_DeadlineReads``."""
    import http.client
    import urllib.request

    def bounded(connection):
        def connect(host, **kwargs):
            conn = connection(host, **kwargs)
            conn.response_class = lambda sock, *args, **kw: http.client.HTTPResponse(
                _DeadlineReads(sock, deadline), *args, **kw
            )
            return conn

        return connect

    class Http(urllib.request.HTTPHandler):
        def http_open(self, req):
            return self.do_open(bounded(http.client.HTTPConnection), req)

    class Https(urllib.request.HTTPSHandler):
        def https_open(self, req):
            return self.do_open(bounded(http.client.HTTPSConnection), req)

    return urllib.request.build_opener(Http, Https)


def load_replay_file(path: str) -> list[list[str]]:
    """Load mock scripts: either a flat response list or per-episode lists, each a non-empty list of strings."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("nested too deep to decode") from None
    if isinstance(data, dict):
        data = data.get("episodes")
    if not isinstance(data, list) or not data:
        raise ValueError("expected a non-empty list of responses or episode lists")
    if all(isinstance(item, str) for item in data):
        return [list(data)]
    for i, episode in enumerate(data):
        if not check(episode, "list[str]", f"episodes[{i}]"):
            raise ValueError(f"episodes[{i}] is empty")  # a mock with no reply could only fall back
    return data


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


class AgentTurn(NamedTuple):
    """One model turn as ``turns.jsonl`` logs it, its fields declared in the sorted order they are written in.

    It holds no wall-clock value, so the same inputs log the same bytes; the
    backend's latency goes to the cell's ``CellStats``.
    """

    epoch: int
    error: Optional[str]
    fallback_used: bool
    parsed_ok: bool
    prompt: str
    raw_response: str

    def line(self) -> bytes:
        """The turn's line of ``turns.jsonl``."""
        return _turn_line(self)


# a string as json.dumps writes it, quoted and escaped to ASCII
_json_string = json.encoder.encode_basestring_ascii


def _turn_line(turn: AgentTurn) -> bytes:
    """The turn as one line of ``turns.jsonl``: ``json.dumps(turn._asdict())`` and a newline.

    Each field has a fixed JSON type, so the line is assembled from the fields
    in their sorted order, without a mapping or an encoder; only the two texts
    and the error need escaping.
    """
    epoch, error, fallback_used, parsed_ok, prompt, raw_response = turn
    return (
        f'{{"epoch": {epoch}, "error": {"null" if error is None else _json_string(error)}, '
        f'"fallback_used": {"true" if fallback_used else "false"}, '
        f'"parsed_ok": {"true" if parsed_ok else "false"}, "prompt": {_json_string(prompt)}, '
        f'"raw_response": {_json_string(raw_response)}}}\n'
    ).encode("utf-8")


def llm_decide(
    backend,
    obs: EpochObservation,
    belief: BeliefState,
    cfg: HoneynetConfig,
    *,
    template: PromptTemplate,
    stats: Optional[CellStats] = None,
) -> tuple[ExposureDecision, StagePrediction, BeliefState, AgentTurn]:
    """One model turn: build prompt, call the backend, parse, fall back if needed.

    ``belief`` is the policy's own, which ``policy_decide`` has already folded
    ``obs`` into. A failed turn keeps the exposure in force,
    ``obs.exposed_last``; the bootstrap turn (epoch 0) has none yet,
    so it takes the first ``budget`` catalog services. ``stats`` counts what
    parsing dropped, then, in one call, counts the turn, its backend latency
    and whether it fell back, and writes the turn's line to ``turns.jsonl``.
    """
    prompt = build_prompt(obs, belief, cfg, template)

    started = time.perf_counter()
    raw = ""
    error: Optional[str] = None
    try:
        raw = backend.complete(prompt)
    except BackendError as exc:
        error = f"backend-unreachable: {exc}"
    latency = time.perf_counter() - started

    decision: Optional[ExposureDecision] = None
    prediction = StagePrediction()
    if error is None:
        try:
            decision, prediction = parse_response(raw, cfg, stats)
        except ResponseParseError as exc:
            error = f"parse-failure: {exc}"

    turn = AgentTurn(
        epoch=obs.epoch,
        error=error,
        fallback_used=decision is None,
        parsed_ok=decision is not None,
        prompt=prompt,
        raw_response=raw,
    )
    if decision is None:
        decision = ExposureDecision(obs.exposed_last if obs.epoch else cfg.catalog.ids[: cfg.budget])
    if stats is not None:
        # the turn is on disk before the decision it produced takes effect
        stats.record_turn(latency, turn)
    return decision, prediction, belief, turn


class LlmPolicy(Policy):
    """Defender policy whose reasoning is delegated to a chat model backend."""

    def __init__(self, backend, template: Optional[PromptTemplate] = None) -> None:
        self.backend = backend
        self.template = template or builtin_template()
        self.belief = BeliefState()

    def decide(self, obs, cfg):
        return llm_decide(self.backend, obs, self.belief, cfg, template=self.template, stats=self.stats)[:2]
