import dataclasses
import json
import re
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim import harness, llm
from honeysim.attackers import AttackerProfile
from honeysim.catalog import (
    ALL_STAGES,
    STAGE_LABELS,
    AttackGraph,
    AttackStage,
    HoneynetConfig,
    ServiceSpec,
    deployment_config,
)
from honeysim.engine import RunConfig, records_to_jsonl, run_episode, run_simulation
from honeysim.llm import (
    BackendError,
    HttpChatBackend,
    LlmPolicy,
    MissingPlaceholderError,
    PromptTemplate,
    ResponseParseError,
    ScriptedMockBackend,
    aligned_mock_script,
    build_prompt,
    builtin_template,
    llm_decide,
    load_replay_file,
    parse_response,
)
from honeysim.metrics import exploitation_achieved, inference_score
from honeysim.policies import (
    DEGRADATIONS,
    BeliefState,
    CellStats,
    ExposureDecision,
    make_prediction,
    policy_decide,
    update_belief,
)
from honeysim.telemetry import (
    EpochObservation,
    IdsAlert,
    NoiseConfig,
    aggregate_epoch,
    empty_observation,
    summarize_for_prompt,
)

HONEYNET = deployment_config("fully_vulnerable")


def _counts(**nonzero) -> dict:
    """Every degradation count, zero but those given."""
    return {**dict.fromkeys(DEGRADATIONS, 0), **nonzero}


def _probe(signature: str) -> EpochObservation:
    """Epoch 1's observation of one reconnaissance alert on gitlab with this signature."""
    alert = IdsAlert(1, 0, "198.51.100.1", "gitlab", 443, signature, "misc", 1, AttackStage.RECONNAISSANCE)
    return aggregate_epoch((alert,), ("gitlab",), 1)


class TestBuildPrompt:
    def test_contains_budget_and_all_service_names(self):
        prompt = build_prompt(empty_observation(0), BeliefState(), HONEYNET, builtin_template())
        assert "budget: 1" in prompt
        for sid in HONEYNET.catalog.ids:
            assert sid in prompt

    def test_same_inputs_same_prompt(self):
        belief = BeliefState()
        a = build_prompt(_probe("digest"), belief, HONEYNET, builtin_template())
        b = build_prompt(_probe("digest"), belief, HONEYNET, builtin_template())
        assert a == b

    def test_progression_section_reflects_belief(self):
        belief = BeliefState()
        belief.weights[("gitlab", AttackStage.INITIAL_ACCESS)] = 3.0
        prompt = build_prompt(empty_observation(1), belief, HONEYNET, builtin_template())
        assert "gitlab InitialAccess" in prompt

    def test_missing_placeholder_rejected(self):
        with pytest.raises(MissingPlaceholderError):
            PromptTemplate("alerts: {alerts}\nbudget: {budget}\nservices: {services}")

    def test_placeholder_text_in_a_value_stays_literal(self):
        """Each placeholder is replaced in one pass, so no value is scanned for placeholders."""
        template = PromptTemplate("{alerts}|{progression}|{services}|{budget}|{alerts}")
        values = {"alerts": "{budget}", "progression": "{alerts}", "services": "{progression}", "budget": "7"}
        assert template.render(**values) == "{budget}|{alerts}|{progression}|7|{budget}"

        catalog = AttackGraph((ServiceSpec("gitlab", "GitLab {budget}", True, ALL_STAGES),))
        cfg = HoneynetConfig(catalog=catalog, budget=1)
        prompt = build_prompt(_probe("probe {budget}"), BeliefState(), cfg, builtin_template())
        assert 'gitlab: "probe {budget}" x1' in prompt
        assert "- gitlab (GitLab {budget}): exploitable" in prompt
        assert "Exposure budget: 1\n" in prompt

    def test_prompt_length_respects_cap(self, monkeypatch):
        # construct a belief-free turn with an enormous digest source
        alerts = tuple(
            IdsAlert(
                epoch=1,
                clock=i,
                src="198.51.100.1",
                dest_service="gitlab",
                dest_port=443,
                signature=f"HONEYPOT TEST filler signature {i}",
                category="misc",
                severity=1 + i % 3,
                stage_hint=AttackStage.RECONNAISSANCE,
            )
            for i in range(500)
        )
        obs = aggregate_epoch(alerts, ("gitlab",), 1)
        belief = BeliefState()
        update_belief(belief, obs)
        backend = ScriptedMockBackend(['{"expose": ["gitlab"], "stages": []}'])
        monkeypatch.setattr(llm, "PROMPT_CHAR_CAP", 3000)
        _, _, _, turn = llm_decide(backend, obs, belief, HONEYNET, template=builtin_template())
        assert len(turn.prompt) <= 3000

    @pytest.mark.parametrize("padding", [0, 7_400, 9_000], ids=["cap-minus-prompt", "one-above-floor", "floor"])
    def test_digest_gets_what_the_alert_free_prompt_leaves(self, monkeypatch, padding):
        """The digest budget is the cap less the prompt rendered with alerts "none", but at least 100."""
        template = PromptTemplate("pad " + "x" * padding + "\n{progression}\n{alerts}\n{services}\nbudget {budget}\n")
        belief = BeliefState({("gitlab", AttackStage.INITIAL_ACCESS): 3.0, ("xdebug", AttackStage.RECONNAISSANCE): 1.0})
        budgets, digests = [], []

        def capture(obs, budget):
            budgets.append(budget)
            digests.append(summarize_for_prompt(obs, budget))
            return digests[-1]

        monkeypatch.setattr(llm, "summarize_for_prompt", capture)
        prompt = build_prompt(empty_observation(1), belief, HONEYNET, template)
        alert_free = prompt.replace(digests[0], "none")
        assert "none" in alert_free and "gitlab InitialAccess weight=3" in alert_free
        expected = max(100, llm.PROMPT_CHAR_CAP - len(alert_free))
        assert budgets == [expected]
        assert (expected == 100) == (padding == 9_000)

    def test_a_turn_logs_the_prompt_build_prompt_makes(self):
        obs = _probe("HONEYPOT gitlab login")
        belief = BeliefState()
        update_belief(belief, obs)
        backend = ScriptedMockBackend(['{"expose": ["gitlab"], "stages": []}'])
        _, _, _, turn = llm_decide(backend, obs, belief, HONEYNET, template=builtin_template())
        assert 'gitlab: "HONEYPOT gitlab login" x1' in turn.prompt
        assert turn.prompt == build_prompt(obs, belief, HONEYNET, builtin_template())


class TestParseResponse:
    def test_plain_json_object(self):
        raw = '{"expose": ["GitLab"], "stages": ["Reconnaissance", "InitialAccess"], "done": false}'
        decision, prediction = parse_response(raw, HONEYNET)
        assert decision.exposed == ("gitlab",)
        assert not decision.declared_done
        assert prediction.stages == (AttackStage.RECONNAISSANCE, AttackStage.INITIAL_ACCESS)

    def test_fenced_json_with_prose(self):
        raw = 'Sure! Here is my decision:\n```json\n{"expose": ["Xdebug"], "stages": [], "done": false}\n```\nLet me know.'
        decision, _ = parse_response(raw, HONEYNET)
        assert decision.exposed == ("xdebug",)

    def test_bare_object_embedded_in_prose(self):
        raw = 'thinking... {"expose": ["docker_api"], "stages": ["PrivEsc"], "done": true} done'
        decision, prediction = parse_response(raw, HONEYNET)
        assert decision.exposed == ("docker_api",)
        assert decision.declared_done
        assert prediction.stages == (AttackStage.PRIV_ESC,)

    def test_no_json_raises_parse_failure(self):
        with pytest.raises(ResponseParseError):
            parse_response("no json here", HONEYNET)

    def test_json_without_required_fields_raises(self):
        with pytest.raises(ResponseParseError):
            parse_response('{"services": ["gitlab"]}', HONEYNET)

    def test_unknown_service_dropped(self, caplog):
        stats = CellStats()
        with caplog.at_level("WARNING"):
            decision, _ = parse_response(
                '{"expose": ["nginx", "gitlab", "redis", "nginx"], "stages": []}', HONEYNET, stats
            )
        assert decision.exposed == ("gitlab",)
        assert stats.counts == _counts(unknown_services=3)
        assert not caplog.records  # counted, not logged

    def test_over_budget_truncated_in_given_order(self):
        raw = '{"expose": ["xdebug", "gitlab", "xdebug", "docker_api"], "stages": []}'
        stats = CellStats()
        decision, _ = parse_response(raw, HONEYNET, stats)
        assert decision.exposed == ("xdebug", "gitlab", "xdebug", "docker_api")  # budget is not its job
        assert stats.counts == _counts()
        policy = LlmPolicy(ScriptedMockBackend([raw]))
        policy.stats = stats
        decision, _ = policy_decide(policy, empty_observation(), HONEYNET)
        assert decision.exposed == ("xdebug",)
        assert stats.counts == _counts(over_budget=1)
        assert len(stats.latencies) == 1  # the one turn

    @pytest.mark.parametrize("done", ['"false"', '"no"', "1", "null", '{"now": true}'])
    def test_only_json_true_declares_done(self, done):
        """A ``done`` that is not a JSON boolean is read as not done, and counted."""
        raw = f'{{"expose": ["gitlab"], "stages": [], "done": {done}}}'
        stats = CellStats()
        decision, _ = parse_response(raw, HONEYNET, stats)
        assert decision == ExposureDecision(("gitlab",), False)
        assert stats.counts == _counts(non_boolean_done=1)
        for value, declared in (("true", True), ("false", False)):
            decision, _ = parse_response(raw.replace(done, value), HONEYNET, stats)
            assert decision.declared_done is declared
        assert stats.counts == _counts(non_boolean_done=1)

    def test_unknown_stage_dropped(self):
        stats = CellStats()
        _, prediction = parse_response(
            '{"expose": ["gitlab"], "stages": ["Reconnaissance", "Lateral"]}', HONEYNET, stats
        )
        assert prediction.stages == (AttackStage.RECONNAISSANCE,)
        assert stats.counts == _counts(unknown_stages=1)

    @pytest.mark.parametrize(
        "raw, exposed",
        [
            ('I think {maybe gitlab. {"expose": ["gitlab"], "stages": []}', ("gitlab",)),
            ('Rain was 5" today. {"expose": ["xdebug"], "stages": []}', ("xdebug",)),
            (
                '{"expose": ["gitlab"], "stages": []} or rather\n```json\n{"expose": ["xdebug"], "stages": []}\n```',
                ("xdebug",),
            ),
            ('{"note": {"expose": ["gitlab"], "stages": []}}', None),
            ("Alerts are quiet. I cannot decide {yet} without more alerts. More prose.", None),
            ('{"a": ' * 2000 + "1" + "}" * 2000, None),
        ],
        ids=["stray-brace", "odd-quote", "fenced-wins", "nested-in-other-object", "no-decision", "nested-too-deep"],
    )
    def test_reply_rule(self, raw, exposed):
        if exposed is None:
            with pytest.raises(ResponseParseError):
                parse_response(raw, HONEYNET)
        else:
            assert parse_response(raw, HONEYNET)[0].exposed == exposed

    def test_reply_nested_too_deep_is_decoded_once(self, monkeypatch):
        """A value nested past the decoder's limit costs one decode at any depth; a decision after it still counts."""
        decoder = llm._DECODER
        starts = []

        class CountingDecoder:
            def raw_decode(self, text, start):
                starts.append(start)
                return decoder.raw_decode(text, start)

        monkeypatch.setattr(llm, "_DECODER", CountingDecoder())
        calls = {}
        for depth in (3000, 6000):
            starts.clear()
            raw = '{"a": ' * depth + "1" + "}" * depth + ' so: {"expose": ["xdebug"], "stages": []}'
            assert parse_response(raw, HONEYNET)[0].exposed == ("xdebug",)
            calls[depth] = len(starts)
        assert calls == {3000: 2, 6000: 2}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        expose=st.lists(st.sampled_from(HONEYNET.catalog.ids), max_size=4),
        stages=st.lists(st.sampled_from([s.label for s in AttackStage]), max_size=5),
        indent=st.sampled_from([None, 2]),
        prose=st.tuples(*[st.text(st.characters(exclude_characters="{}`"), max_size=60)] * 2),
        fenced=st.booleans(),
    )
    def test_decision_in_brace_free_prose_parses(self, expose, stages, indent, prose, fenced):
        payload = json.dumps({"expose": expose, "stages": stages}, indent=indent)
        body = f"```json\n{payload}\n```" if fenced else payload
        decision, prediction = parse_response(f"{prose[0]} {body} {prose[1]}", HONEYNET)
        assert decision.exposed == tuple(expose)
        assert prediction == make_prediction([AttackStage.from_label(s) for s in stages])


class TestScriptedEpisodes:
    def _run(self, policy_factory, target="gitlab", noise=None, horizon=20):
        cfg = RunConfig(
            honeynet=HONEYNET,
            attackers=(AttackerProfile(target_service=target),),
            horizon=horizon,
            noise=noise or NoiseConfig(),
        )
        return run_simulation(cfg, policy_factory, 11)[0]

    def test_aligned_script_achieves_exploitation(self):
        svc = HONEYNET.catalog.get("gitlab")
        script = aligned_mock_script(svc)
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)))
        assert rec["outcome"] == "completed"
        assert exploitation_achieved(rec)
        assert inference_score(rec)[3] == 1.0

    def test_malformed_output_every_turn_still_completes(self):
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(["%% not json %%"])))
        assert rec["outcome"] in ("completed", "horizon_exhausted", "abandoned")
        assert rec["epochs"]  # every epoch produced an enforced decision
        for epoch in rec["epochs"]:
            assert len(epoch["decision"].exposed) <= HONEYNET.budget

    def test_fallback_repeats_previous_decision(self):
        script = ['{"expose": ["docker_api"], "stages": []}', "garbage from here on"]
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)), horizon=4)
        exposures = [e["decision"].exposed for e in rec["epochs"]]
        assert all(e == ("docker_api",) for e in exposures)

    def test_fallback_after_over_budget_reply_repeats_clamped_exposure(self):
        script = ['{"expose": ["xdebug", "gitlab"], "stages": []}', "garbage from here on"]
        policy = LlmPolicy(ScriptedMockBackend(script))
        policy.stats = stats = CellStats()
        rec = self._run(lambda i, s: policy, horizon=4)
        # each fallback repeats the clamped exposure, so only the one over-budget reply is clamped
        assert [e["decision"].exposed for e in rec["epochs"]] == [("xdebug",)] * 4
        assert stats.counts == _counts(over_budget=1, fallbacks=4)
        assert len(stats.latencies) == 5  # the bootstrap turn and one per epoch

    def test_fallback_on_first_turn_uses_first_catalog_service(self):
        policy = LlmPolicy(ScriptedMockBackend(["nope"]))
        decision, _, _, turn = llm_decide(
            policy.backend, empty_observation(), BeliefState(), HONEYNET, template=policy.template
        )
        assert turn.fallback_used
        assert decision.exposed == ("gitlab",)

    def test_fallback_repeats_an_empty_exposure_in_force(self):
        """Only the bootstrap turn (epoch 0) falls back to the catalog; an empty exposure in force is kept."""
        policy = LlmPolicy(ScriptedMockBackend(["nope"]))
        obs = EpochObservation(epoch=3, alerts=(), exposed_last=())
        decision, _, _, turn = llm_decide(policy.backend, obs, BeliefState(), HONEYNET, template=policy.template)
        assert turn.fallback_used
        assert decision.exposed == ()

    def test_fallback_after_first_service_bootstrap_keeps_the_exposure_in_force(self):
        """The engine discards the bootstrap reply under first_service, so a failed epoch-1 turn keeps gitlab."""
        script = ['{"expose": ["docker_api"], "stages": []}', "garbage from here on"]
        cfg = RunConfig(
            honeynet=HONEYNET,
            attackers=(AttackerProfile(target_service="docker_api"),),
            horizon=4,
            bootstrap="first_service",
        )
        rec = run_simulation(cfg, lambda i, s: LlmPolicy(ScriptedMockBackend(script)), 11)[0]
        assert rec["bootstrap_exposed"] == ("gitlab",)
        assert rec["epochs"][0]["exposed"] == ("gitlab",)
        assert rec["epochs"][0]["decision"].exposed == ("gitlab",)

    def test_failed_bootstrap_turn_under_carryover_takes_the_first_services(self):
        """A carried-over policy's last decision is not in force in a new episode: its bootstrap falls back afresh."""
        script = ['{"expose": ["docker_api"], "stages": []}', "garbage from here on"]
        cfg = RunConfig(
            honeynet=HONEYNET,
            attackers=(AttackerProfile(target_service="xdebug"), AttackerProfile(target_service="apache_struts")),
            horizon=3,
            belief_carryover=True,
        )
        first, second = run_simulation(cfg, lambda i, s: LlmPolicy(ScriptedMockBackend(script)), 11)
        assert first["bootstrap_exposed"] == ("docker_api",)
        assert second["bootstrap_exposed"] == ("gitlab",)
        assert {e["decision"].exposed for e in second["epochs"]} == {("gitlab",)}

    def test_overconfident_prediction_counts_false_positive(self):
        """Predicting the terminal stage while the chain is mid-way costs FP."""
        script = [
            json.dumps({"expose": ["gitlab"], "stages": []}),
            json.dumps({"expose": ["gitlab"], "stages": ["Reconnaissance", "RootDataExfil"]}),
        ]
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)), horizon=1)
        tp, fp, fn, _ = inference_score(rec)
        assert (tp, fp, fn) == (1, 1, 1)  # GT after epoch 1 is {Recon, InitialAccess}

    def test_mock_episodes_are_bit_reproducible(self):
        svc = HONEYNET.catalog.get("gitlab")
        script = aligned_mock_script(svc)
        rec_a = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)))
        rec_b = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)))
        assert records_to_jsonl([rec_a]) == records_to_jsonl([rec_b])


_SERVICE_NAMES = [*HONEYNET.catalog.ids, "ghost"]
_REPLIES = st.one_of(
    st.sampled_from(["garbage", "{", '{"expose": "gitlab", "stages": []}', '{"expose": ["gitlab"], "stages"', ""]),
    st.builds(
        lambda expose, stages, done: json.dumps({"expose": expose, "stages": stages, "done": done}),
        st.lists(st.sampled_from(_SERVICE_NAMES), max_size=4),  # empty, repeated and over-budget lists too
        st.lists(st.sampled_from([s.label for s in AttackStage]), max_size=3),
        st.sampled_from([False, False, False, True]),
    ),
)
_OUTCOMES = {"completed", "abandoned", "declared_done", "horizon_exhausted"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    script=st.lists(_REPLIES, min_size=1, max_size=8),
    budget=st.integers(1, 2),
    bootstrap=st.sampled_from(["policy", "first_service"]),
    carryover=st.booleans(),
)
def test_a_failed_turn_keeps_the_exposure_in_force(script, budget, bootstrap, carryover):
    """Whatever the model replies, the budget holds, and a turn that falls back after epoch 0 changes nothing."""
    honeynet = deployment_config("fully_vulnerable", budget)
    cfg = RunConfig(
        honeynet=honeynet,
        attackers=(AttackerProfile(target_service="xdebug"), AttackerProfile(target_service="gitlab")),
        horizon=5,
        belief_carryover=carryover,
        bootstrap=bootstrap,
    )
    turns = []  # every policy's turns in order; each episode's first is its bootstrap turn, epoch 0
    stats = CellStats()
    stats.record_turn = lambda latency_s, turn: turns.append(turn)

    def policy(index, seed):
        policy = LlmPolicy(ScriptedMockBackend(script))
        policy.stats = stats
        return policy

    records = run_simulation(cfg, policy, 3)
    episodes = []  # each episode's turns after its bootstrap turn
    for turn in turns:
        if turn.epoch == 0:
            episodes.append([])
        else:
            episodes[-1].append(turn)
    assert len(episodes) == len(records)
    for rec, episode_turns in zip(records, episodes):
        assert rec["outcome"] in _OUTCOMES
        assert [t.epoch for t in episode_turns] == list(range(1, len(rec["epochs"]) + 1))
        for epoch, turn in zip(rec["epochs"], episode_turns):
            assert set(epoch["exposed"]) <= set(honeynet.catalog.ids) and len(epoch["exposed"]) <= budget
            if turn.fallback_used:
                assert epoch["decision"].exposed == epoch["exposed"]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scripts=st.lists(st.lists(_REPLIES, min_size=1, max_size=6), min_size=1, max_size=2), budget=st.integers(1, 2))
def test_run_stats_count_each_cells_turn_log(scripts, budget):
    """Whatever the replies, a cell's ``turns`` and ``fallbacks`` in run_stats.json count its turns.jsonl lines."""
    with tempfile.TemporaryDirectory() as tmp:
        replay = f"{tmp}/replay.json"
        with open(replay, "w", encoding="utf-8") as fh:
            json.dump({"episodes": scripts}, fh)
        matrix = harness.ExperimentMatrix(
            policies=[harness.MockKind(name="mock", replay=replay)],
            deployments=["fully_vulnerable", "small_mixed"],
            persistence_modes=["deterministic"],
            seeds=[0],
            horizon=4,
            budget=budget,
        )
        harness.execute_matrix(matrix, f"{tmp}/out")
        with open(f"{tmp}/out/run_stats.json", encoding="utf-8") as fh:
            stats = json.load(fh)
        for cell in stats["cells"]:
            with open(f"{tmp}/out/{cell['cell']}/turns.jsonl", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert cell["turns"] == len(lines)
            assert cell["fallbacks"] == sum(json.loads(line)["fallback_used"] for line in lines)
        assert stats["totals"]["turns"] == sum(cell["turns"] for cell in stats["cells"])


# the pattern that first defined a reply's fenced blocks, kept as the reference for _fenced_blocks
_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


@given(st.lists(st.sampled_from(["`", "``", "```", "````", "json", "js", " ", "\n", "\x1c", "\u3000", "{}", "x"])))
def test_fenced_blocks_match_the_fence_pattern(chunks):
    reply = "".join(chunks)
    assert llm._fenced_blocks(reply) == [m.group(1) for m in _FENCE_RE.finditer(reply)]


@given(
    epoch=st.integers(0, 10**6),
    error=st.none() | st.text(),
    flags=st.tuples(st.booleans(), st.booleans()),
    texts=st.tuples(st.text(), st.text()),
)
def test_turn_line_is_the_turn_encoded_with_sorted_keys(epoch, error, flags, texts):
    """A turn log line encodes the turn's fields in their declared order, which must be the sorted key order."""
    turn = llm.AgentTurn(epoch, error, flags[0], flags[1], *texts)
    assert turn.line() == (json.dumps(turn._asdict(), sort_keys=True) + "\n").encode("utf-8")


def test_aligned_scripts_cover_every_builtin_chain():
    for sid in HONEYNET.catalog.vulnerable_ids:
        svc = HONEYNET.catalog.get(sid)
        script = aligned_mock_script(svc)
        # bootstrap turn plus one per post-recon stage
        assert len(script) == 1 + len(svc.supported_stages) - 1
        last = json.loads(script[-1])
        assert last["done"] is True


def test_the_builtin_template_lists_the_stage_labels_in_order():
    """The template spells the labels out, since its bytes are pinned; they must be the labels the code derives."""
    folded = " ".join(builtin_template().text.split())
    listed = re.search(r"Attack stages, in order: (.*?)\. ", folded)
    assert listed is not None
    assert listed.group(1) == ", ".join(STAGE_LABELS)


def test_replay_file_formats(tmp_path):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(["a", "b"]), encoding="utf-8")
    episodes = tmp_path / "episodes.json"
    episodes.write_text(json.dumps({"episodes": [["a"], ["b", "c"]]}), encoding="utf-8")
    assert load_replay_file(str(flat)) == [["a", "b"]]
    assert load_replay_file(str(episodes)) == [["a"], ["b", "c"]]
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_replay_file(str(empty))


# ---------------------------------------------------------------------------
# HTTP backend against a local mock server
# ---------------------------------------------------------------------------


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = self.server.script[min(len(self.server.seen) - 1, len(self.server.script) - 1)]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")  # bytes go as they are
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.seen = []
    server.script = [(200, {"choices": [{"message": {"content": "{}"}}]})]
    # a short poll, so that shutdown does not wait out serve_forever's default of half a second
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _reply(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    @pytest.fixture(autouse=True)
    def _short_backoff(self, monkeypatch):
        monkeypatch.setattr(HttpChatBackend, "backoff_seconds", 0.01)

    def _backend(self, server):
        return HttpChatBackend(
            base_url=f"http://127.0.0.1:{server.server_port}/v1/",
            model="test-model",
            auth_env="HONEYSIM_TEST_TOKEN",
        )

    def test_posts_openai_shaped_payload(self, chat_server, monkeypatch):
        monkeypatch.setenv("HONEYSIM_TEST_TOKEN", "sekret")
        chat_server.script = [(200, _reply('{"expose": ["gitlab"], "stages": []}'))]
        backend = self._backend(chat_server)
        out = backend.complete("hello agent")
        assert out == '{"expose": ["gitlab"], "stages": []}'
        seen = chat_server.seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer sekret"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["messages"] == [{"role": "user", "content": "hello agent"}]
        assert seen["body"]["temperature"] == 0.0

    def test_a_whole_number_temperature_is_sent_as_a_number(self, chat_server):
        """``temperature=0`` built in code goes out as ``0.0``, as a config's ``temperature: 0`` does."""
        backend = dataclasses.replace(self._backend(chat_server), temperature=0)
        backend.complete("x")
        assert repr(chat_server.seen[0]["body"]["temperature"]) == "0.0"

    def test_retries_then_succeeds(self, chat_server):
        chat_server.script = [
            (503, {"error": "overloaded"}),
            (200, _reply("recovered")),
        ]
        backend = self._backend(chat_server)
        assert backend.complete("x") == "recovered"
        assert len(chat_server.seen) == 2

    def test_retries_exhausted_raises_backend_error(self, chat_server, monkeypatch):
        chat_server.script = [(500, {"error": "down"})]
        monkeypatch.setattr(HttpChatBackend, "max_retries", 2)
        backend = self._backend(chat_server)
        with pytest.raises(BackendError):
            backend.complete("x")
        assert len(chat_server.seen) == 2

    @pytest.mark.parametrize(
        "payload",
        [{"choices": None}, {"choices": [{"message": {"content": None}}]}, [1]],
        ids=["null-choices", "null-content", "top-level-list"],
    )
    def test_reply_without_string_content_retried_then_falls_back(self, chat_server, monkeypatch, payload):
        chat_server.script = [(200, payload)]
        monkeypatch.setattr(HttpChatBackend, "max_retries", 2)
        backend = self._backend(chat_server)
        with pytest.raises(BackendError):
            backend.complete("x")
        assert len(chat_server.seen) == 2
        decision, _, _, turn = llm_decide(
            backend, empty_observation(), BeliefState(), HONEYNET, template=builtin_template()
        )
        assert turn.fallback_used
        assert "backend-unreachable" in turn.error
        assert decision.exposed == ("gitlab",)

    def test_reply_nested_too_deep_to_decode_retried_then_falls_back(self, chat_server, monkeypatch):
        chat_server.script = [(200, b"[" * 100_000)]
        monkeypatch.setattr(HttpChatBackend, "max_retries", 2)
        backend = self._backend(chat_server)
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.complete("x")
        assert len(chat_server.seen) == 2
        obs = EpochObservation(epoch=1, alerts=(), exposed_last=("xdebug",))
        decision, _, _, turn = llm_decide(backend, obs, BeliefState(), HONEYNET, template=builtin_template())
        assert turn.fallback_used
        assert "backend-unreachable" in turn.error
        assert decision.exposed == ("xdebug",)

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-cap", "one-byte-over"])
    def test_a_reply_over_the_byte_cap_is_retried_then_falls_back(self, chat_server, monkeypatch, over):
        """A body is read up to 64 KiB plus 64 bytes per token of ``max_tokens``; one byte more fails the attempt."""
        cap = 64 * 1024 + 64 * 2
        text = "x" * (cap + over - len(json.dumps(_reply(""))))
        chat_server.script = [(200, json.dumps(_reply(text)).encode("utf-8"))]
        assert len(chat_server.script[0][1]) == cap + over
        monkeypatch.setattr(HttpChatBackend, "max_retries", 2)
        backend = dataclasses.replace(self._backend(chat_server), max_tokens=2)
        if not over:
            assert backend.complete("x") == text
            return
        with pytest.raises(BackendError, match=f"after 2 attempts: reply longer than {cap} bytes"):
            backend.complete("x")
        assert len(chat_server.seen) == 2
        decision, _, _, turn = llm_decide(
            backend, empty_observation(), BeliefState(), HONEYNET, template=builtin_template()
        )
        assert turn.fallback_used and turn.raw_response == ""
        assert turn.error.startswith("backend-unreachable")
        assert decision.exposed == ("gitlab",)

    def test_unreachable_backend_degrades_to_fallback(self, chat_server, monkeypatch):
        chat_server.script = [(500, {"error": "down"})]
        monkeypatch.setattr(HttpChatBackend, "max_retries", 1)
        backend = self._backend(chat_server)
        obs = EpochObservation(epoch=1, alerts=(), exposed_last=("xdebug",))
        decision, _, _, turn = llm_decide(backend, obs, BeliefState(), HONEYNET, template=builtin_template())
        assert turn.fallback_used
        assert "backend-unreachable" in turn.error
        assert decision.exposed == ("xdebug",)

    def test_llm_policy_episode_over_http(self, chat_server):
        svc = HONEYNET.catalog.get("docker_api")
        chat_server.script = [(200, _reply(text)) for text in aligned_mock_script(svc)]
        backend = self._backend(chat_server)
        cfg = RunConfig(
            honeynet=HONEYNET,
            attackers=(AttackerProfile(target_service="docker_api"),),
            horizon=10,
        )
        rec = run_episode(cfg, cfg.attackers[0], LlmPolicy(backend), 5)
        assert rec["outcome"] == "completed"
        assert exploitation_achieved(rec)


class _TrickleHandler(BaseHTTPRequestHandler):
    """Answers with a decision one byte at a time, ``server.pause`` seconds apart: the reply's body, or all of it."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append(self.path)
        body = json.dumps(_reply('{"expose": ["apache_struts"], "stages": []}')).encode("utf-8")
        head = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n" % len(body)
        try:
            if not self.server.whole:
                self.wfile.write(head)
                head = b""
            for byte in head + body:
                time.sleep(self.server.pause)
                self.wfile.write(bytes([byte]))
        except OSError:  # the client gave up on the reply
            pass

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("whole", [False, True], ids=["body", "whole-reply"])
def test_a_reply_that_trickles_past_the_timeout_fails_its_attempts_and_falls_back(monkeypatch, whole):
    """``timeout`` is each attempt's deadline across all its reads: a valid reply whose every byte comes well within
    it, but whose last comes after it, fails the attempt, and the turn falls back as ``backend-unreachable``."""
    monkeypatch.setattr(HttpChatBackend, "backoff_seconds", 0.01)
    monkeypatch.setattr(HttpChatBackend, "max_retries", 2)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _TrickleHandler)
    server.pause, server.whole, server.seen = 0.01, whole, []  # 92 bytes of body: about 1 s per reply
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    backend = HttpChatBackend(
        base_url=f"http://127.0.0.1:{server.server_port}/v1", auth_env="HONEYSIM_TEST_TOKEN", timeout=0.3
    )
    try:
        start = time.monotonic()
        decision, _, _, turn = llm_decide(
            backend, empty_observation(), BeliefState(), HONEYNET, template=builtin_template()
        )
        elapsed = time.monotonic() - start
    finally:
        server.shutdown()
        server.server_close()
    assert turn.fallback_used and turn.error.startswith("backend-unreachable")
    assert decision.exposed == ("gitlab",)  # the first service, not the reply's
    assert server.seen == ["/v1/chat/completions"] * 2
    assert elapsed < 2 * 0.3 + 0.5  # two attempts of 0.3 s each, a pause of 0.01 s, and room for a slow machine


_DECISION = '{"expose": ["gitlab"], "stages": []}'
# every fault a reply can have that fails its attempt; each request of a test gets the same one
REPLY_FAULTS = [
    "status-503",
    "no-content-length",
    "content-length-short",
    "content-length-long",
    "not-json",
    "wrong-shape",
    "trickle",
    "over-the-cap",
    "closed-mid-body",
    "closed-after-the-json",
]
FAULT_TIMEOUT = 0.1  # each attempt's deadline: the faults that send too little wait it out


class _FaultyReplyHandler(BaseHTTPRequestHandler):
    """Answers each request with the reply fault ``server.fault`` names, for a backend with ``max_tokens`` 1.

    A reply that leaves the client waiting for more holds the connection
    until the client closes it, or for at most a second.
    """

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append(self.path)
        self.connection.settimeout(1.0)
        fault = self.server.fault
        status, length_delta, hold, pause = 200, 0, False, 0.0
        body = json.dumps(_reply(_DECISION)).encode("utf-8")
        if fault == "status-503":
            status = 503
        elif fault == "no-content-length":
            length_delta, hold = None, True
        elif fault == "content-length-short":
            length_delta = -10  # the JSON is cut short
        elif fault == "content-length-long":
            length_delta, hold = 10, True
        elif fault == "not-json":
            body = b"<html>busy</html>"
        elif fault == "wrong-shape":
            body = b'{"choices": []}'
        elif fault == "trickle":
            pause = 0.01  # about a second a reply
        elif fault == "over-the-cap":  # a decision, padded one byte past 64 KiB plus 64 bytes for the one token
            padding = 64 * 1024 + 64 + 1 - len(json.dumps(_reply(_DECISION)))
            body = json.dumps(_reply(_DECISION + " " * padding)).encode("utf-8")
        elif fault == "closed-mid-body":
            length_delta = len(body)  # half of the body goes, then the connection closes
            body = body[: len(body) // 2]
        elif fault == "closed-after-the-json":  # the whole reply and three blanks go, then the connection closes
            body += b"   "
            length_delta = 50
        head = b"HTTP/1.0 %d Fault\r\nContent-Type: application/json\r\n" % status
        if length_delta is not None:
            head += b"Content-Length: %d\r\n" % (len(body) + length_delta)
        try:
            if pause:
                self.wfile.write(head + b"\r\n")
                for byte in body:
                    time.sleep(pause)
                    self.wfile.write(bytes([byte]))
            else:
                self.wfile.write(head + b"\r\n" + body)
            if hold:
                self.rfile.read(1)  # until the client closes the connection
        except OSError:  # the client gave up on the reply
            pass

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("fault", REPLY_FAULTS)
def test_every_turn_on_a_faulty_reply_ends_in_time_falls_back_and_is_counted(monkeypatch, fault):
    """Over a local server whose every reply has ``fault``, an episode finishes: each turn ends within
    ``max_retries`` attempts of ``timeout`` plus the backoff, falls back, and the cell's ``CellStats`` counts it, and
    the exposure stays in the catalog and within the budget."""
    monkeypatch.setattr(HttpChatBackend, "backoff_seconds", 0.01)
    monkeypatch.setattr(HttpChatBackend, "max_retries", 2)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FaultyReplyHandler)
    server.fault, server.seen = fault, []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    backend = HttpChatBackend(
        base_url=f"http://127.0.0.1:{server.server_port}/v1",
        auth_env="HONEYSIM_TEST_TOKEN",
        timeout=FAULT_TIMEOUT,
        max_tokens=1,
    )
    honeynet = deployment_config("small_mixed", budget=2)
    cfg = RunConfig(honeynet=honeynet, attackers=(AttackerProfile(target_service="gitlab"),), horizon=2)
    policy, stats = LlmPolicy(backend), CellStats()
    policy.stats = stats
    try:
        record = run_episode(cfg, cfg.attackers[0], policy, 3)
    finally:
        server.shutdown()
        server.server_close()
    turns = 1 + len(record["epochs"])  # the bootstrap turn, then one an epoch
    assert stats.as_dict() == {**_counts(fallbacks=turns), "turns": turns, "latency_s": stats.as_dict()["latency_s"]}
    assert server.seen == ["/v1/chat/completions"] * (2 * turns)
    backoff = HttpChatBackend.backoff_seconds  # one pause, between the two attempts
    assert max(stats.latencies) < 2 * FAULT_TIMEOUT + backoff + 0.5  # and room for a slow machine
    exposures = [record["bootstrap_exposed"], *(epoch["exposed"] for epoch in record["epochs"])]
    exposures += [epoch["decision"].exposed for epoch in record["epochs"]]
    for exposed in exposures:
        assert set(exposed) <= set(honeynet.catalog.ids) and len(exposed) <= honeynet.budget


class TestBackendSettings:
    def test_settings_are_the_config_keys_with_their_defaults(self):
        backend = HttpChatBackend()
        assert {f.name: getattr(backend, f.name) for f in dataclasses.fields(backend)} == {
            "kind": "http_chat_completion",
            "base_url": "https://api.openai.com/v1",
            "model": "gpt-4.1-mini",
            "auth_env": "OPENAI_API_KEY",
            "temperature": 0.0,
            "max_tokens": 512,
            "timeout": 60.0,
        }

    @pytest.mark.parametrize("key", ["max_retries", "backoff_seconds", "name"])
    def test_retry_constants_are_no_settings(self, key):
        with pytest.raises(TypeError, match=key):
            HttpChatBackend(**{key: 1})

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"base_url": 5}, "'base_url' must be a string, got 5"),
            ({"model": None}, "'model' must be a string, got None"),
            ({"auth_env": ["X"]}, "'auth_env' must be a string, got ['X']"),
            ({"temperature": "hot"}, "'temperature' must be a number, got 'hot'"),
            ({"timeout": "soon"}, "'timeout' must be a number, got 'soon'"),
            ({"timeout": True}, "'timeout' must be a number, got True"),
            ({"max_tokens": 512.0}, "'max_tokens' must be an integer, got 512.0"),
            ({"kind": "grpc"}, "unknown kind 'grpc'"),
            ({"base_url": "file:///some/dir"}, "base_url must start with http:// or https://, got 'file:///some/dir'"),
            ({"base_url": "example.com/v1"}, "base_url must start with http:// or https://, got 'example.com/v1'"),
            ({"base_url": "http://"}, "base_url must name a host, got 'http://'"),
            ({"base_url": "https:///v1"}, "base_url must name a host, got 'https:///v1'"),
            ({"base_url": "http://:8080/v1"}, "base_url must name a host, got 'http://:8080/v1'"),
            *(
                ({"base_url": url}, f"base_url must name a port from 0 to 65535, got {url!r}")
                for url in ("http://localhost:abc", "http://127.0.0.1:99999")
            ),
            ({"auth_env": ""}, "auth_env must name an environment variable, got ''"),
            ({"timeout": float("inf")}, "timeout must be a finite number above 0, got inf"),
            ({"timeout": 0}, "timeout must be a finite number above 0, got 0.0"),
            ({"timeout": float("nan")}, "timeout must be a finite number above 0, got nan"),
            ({"max_tokens": 0}, "max_tokens must be at least 1, got 0"),
            ({"temperature": -0.5}, "temperature must be a finite number of at least 0, got -0.5"),
            ({"temperature": float("nan")}, "temperature must be a finite number of at least 0, got nan"),
        ],
    )
    def test_mistyped_setting_is_refused_by_name(self, settings, message):
        with pytest.raises(ValueError) as raised:
            HttpChatBackend(**settings)
        assert str(raised.value) == message

    def test_settings_at_the_ends_of_their_ranges_are_taken(self):
        backend = HttpChatBackend(base_url="HTTP://127.0.0.1:8080", timeout=1e-3, max_tokens=1, temperature=0)
        assert (backend.timeout, backend.max_tokens, backend.temperature) == (1e-3, 1, 0.0)

    def test_integer_temperature_and_timeout_are_numbers(self):
        assert HttpChatBackend(temperature=1, timeout=5).timeout == 5

    def test_a_backend_is_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            HttpChatBackend().timeout = 1.0


def test_import_leaves_out_third_party_http_stack():
    code = "import sys, honeysim; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_leaves_out_the_standard_library_http_stack():
    """Offline runs never talk HTTP, so `import honeysim` does not pay for http.client, urllib.request, email or ssl."""
    code = (
        "import sys, honeysim; "
        "print(sorted({'http.client', 'urllib.request', 'email', 'ssl'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
