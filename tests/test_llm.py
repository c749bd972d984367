import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from honeysim.attackers import AttackerProfile
from honeysim.catalog import AttackStage, deployment_config
from honeysim.engine import RunConfig, run_episode, run_simulation, records_to_jsonl
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
from honeysim.metrics import episode_metrics, inference_score
from honeysim.policies import BeliefState, ExposureDecision, policy_decide, update_belief
from honeysim.telemetry import NoiseConfig, empty_observation

HONEYNET = deployment_config("fully_vulnerable")


class TestBuildPrompt:
    def test_contains_budget_and_all_service_names(self):
        prompt = build_prompt("", BeliefState(), HONEYNET, builtin_template())
        assert "budget: 1" in prompt
        for sid in HONEYNET.catalog.ids:
            assert sid in prompt

    def test_same_inputs_same_prompt(self):
        belief = BeliefState()
        a = build_prompt("digest", belief, HONEYNET, builtin_template())
        b = build_prompt("digest", belief, HONEYNET, builtin_template())
        assert a == b

    def test_progression_section_reflects_belief(self):
        belief = BeliefState()
        belief.weights[("gitlab", AttackStage.INITIAL_ACCESS)] = 3.0
        prompt = build_prompt("", belief, HONEYNET, builtin_template())
        assert "gitlab InitialAccess" in prompt

    def test_missing_placeholder_rejected(self):
        with pytest.raises(MissingPlaceholderError):
            PromptTemplate("alerts: {alerts}\nbudget: {budget}\nservices: {services}")

    def test_prompt_length_respects_cap(self):
        # construct a belief-free turn with an enormous digest source
        from honeysim.telemetry import IdsAlert, aggregate_epoch

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
        obs = aggregate_epoch(alerts, {"gitlab"}, 1)
        belief = update_belief(BeliefState(), obs)
        backend = ScriptedMockBackend(['{"expose": ["gitlab"], "stages": []}'])
        _, _, _, turn = llm_decide(backend, obs, belief, HONEYNET, prompt_char_cap=3000)
        assert len(turn.prompt) <= 3000


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
        with caplog.at_level("WARNING"):
            decision, _ = parse_response(
                '{"expose": ["nginx", "gitlab"], "stages": []}', HONEYNET
            )
        assert decision.exposed == ("gitlab",)
        assert "unknown service" in caplog.text

    def test_over_budget_truncated_in_given_order(self, caplog):
        raw = '{"expose": ["xdebug", "gitlab", "xdebug", "docker_api"], "stages": []}'
        decision, _ = parse_response(raw, HONEYNET)
        assert decision.exposed == ("xdebug", "gitlab", "xdebug", "docker_api")  # budget is not its job
        policy = LlmPolicy(ScriptedMockBackend([raw]))
        with caplog.at_level("WARNING"):
            decision, _, _ = policy_decide(policy, empty_observation(), BeliefState(), HONEYNET)
        assert decision.exposed == ("xdebug",)
        assert "exceeded budget" in caplog.text

    def test_unknown_stage_dropped(self):
        _, prediction = parse_response(
            '{"expose": ["gitlab"], "stages": ["Reconnaissance", "Lateral"]}', HONEYNET
        )
        assert prediction.stages == (AttackStage.RECONNAISSANCE,)


class TestScriptedEpisodes:
    def _run(self, policy_factory, target="gitlab", noise=None, horizon=20):
        cfg = RunConfig(
            honeynet=HONEYNET,
            attackers=(AttackerProfile(target_service=target),),
            horizon=horizon,
            seed=11,
            noise=noise or NoiseConfig(),
        )
        return run_simulation(cfg, policy_factory)[0]

    def test_aligned_script_achieves_exploitation(self):
        svc = HONEYNET.catalog.get("gitlab")
        script = aligned_mock_script(svc)
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)))
        assert rec.outcome == "completed"
        metrics = episode_metrics(rec)
        assert metrics.exploitation
        assert metrics.score == 1.0

    def test_malformed_output_every_turn_still_completes(self):
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(["%% not json %%"])))
        assert rec.outcome in ("completed", "horizon_exhausted", "abandoned")
        assert rec.epochs  # every epoch produced an enforced decision
        for epoch in rec.epochs:
            assert len(epoch.decision["exposed"]) <= HONEYNET.budget

    def test_fallback_repeats_previous_decision(self):
        script = ['{"expose": ["docker_api"], "stages": []}', "garbage from here on"]
        rec = self._run(lambda i, s: LlmPolicy(ScriptedMockBackend(script)), horizon=4)
        exposures = [tuple(e.decision["exposed"]) for e in rec.epochs]
        assert all(e == ("docker_api",) for e in exposures)

    def test_fallback_on_first_turn_uses_first_catalog_service(self):
        policy = LlmPolicy(ScriptedMockBackend(["nope"]))
        decision, _, _, turn = llm_decide(
            policy.backend, empty_observation(), BeliefState(), HONEYNET
        )
        assert turn.fallback_used
        assert decision.exposed == ("gitlab",)

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


def test_aligned_scripts_cover_every_builtin_chain():
    for sid in HONEYNET.catalog.vulnerable_ids:
        svc = HONEYNET.catalog.get(sid)
        script = aligned_mock_script(svc)
        # bootstrap turn plus one per post-recon stage
        assert len(script) == 1 + len(svc.supported_stages) - 1
        last = json.loads(script[-1])
        assert last["done"] is True


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
        data = json.dumps(payload).encode("utf-8")
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


def _reply(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    def _backend(self, server, **kwargs):
        kwargs.setdefault("backoff_seconds", 0.01)
        return HttpChatBackend(
            base_url=f"http://127.0.0.1:{server.server_port}/v1",
            model="test-model",
            auth_env="HONEYSIM_TEST_TOKEN",
            **kwargs,
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

    def test_retries_then_succeeds(self, chat_server):
        chat_server.script = [
            (503, {"error": "overloaded"}),
            (200, _reply("recovered")),
        ]
        backend = self._backend(chat_server)
        assert backend.complete("x") == "recovered"
        assert len(chat_server.seen) == 2

    def test_retries_exhausted_raises_backend_error(self, chat_server):
        chat_server.script = [(500, {"error": "down"})]
        backend = self._backend(chat_server, max_retries=2)
        with pytest.raises(BackendError):
            backend.complete("x")
        assert len(chat_server.seen) == 2

    @pytest.mark.parametrize(
        "payload",
        [{"choices": None}, {"choices": [{"message": {"content": None}}]}, [1]],
        ids=["null-choices", "null-content", "top-level-list"],
    )
    def test_reply_without_string_content_retried_then_falls_back(self, chat_server, payload):
        chat_server.script = [(200, payload)]
        backend = self._backend(chat_server, max_retries=2)
        with pytest.raises(BackendError):
            backend.complete("x")
        assert len(chat_server.seen) == 2
        decision, _, _, turn = llm_decide(backend, empty_observation(), BeliefState(), HONEYNET)
        assert turn.fallback_used
        assert "backend-unreachable" in turn.error
        assert decision.exposed == ("gitlab",)

    def test_unreachable_backend_degrades_to_fallback(self, chat_server):
        chat_server.script = [(500, {"error": "down"})]
        backend = self._backend(chat_server, max_retries=1)
        previous = ExposureDecision(exposed=("xdebug",))
        decision, _, _, turn = llm_decide(
            backend, empty_observation(), BeliefState(), HONEYNET, previous_decision=previous
        )
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
            seed=5,
        )
        rec = run_episode(cfg, cfg.attackers[0], LlmPolicy(backend))
        assert rec.outcome == "completed"
        assert episode_metrics(rec).exploitation


def test_import_leaves_out_third_party_http_stack():
    code = "import sys, honeysim; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
