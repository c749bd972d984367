"""Planted faults, each shown to fail the check written against it.

Each case applies one fault with ``monkeypatch`` and calls the check it
targets as a plain function: a contract property's body with fixed inputs,
the pinned-bytes digest, or a test of another module, a hypothesis property
through its ``inner_test`` with one example. A fault inside a function that
other modules import by name replaces that function's ``__code__``, so every
importer runs it. A refactor that leaves a check unable to see its fault
fails here, not silently.
"""

import dataclasses
import itertools
import json
import threading
from pathlib import Path

import pytest
import test_cli
import test_engine
import test_llm
import test_settings
import test_telemetry
import yaml
from test_contracts import (
    check_cell_independence,
    check_interrupted_rerun,
    check_replay_equals_run,
    check_replies_keep_the_contracts,
    check_rerun,
    check_workers,
    _with_mock_replies,
)
from test_output_bytes import check_pinned_bytes

from honeysim import cli, engine, harness, llm, metrics, policies, settings, telemetry
from honeysim.engine import derive_seed, run_episode
from honeysim.policies import CellStats, RandomPolicy
from honeysim.settings import TYPES, ConfigError, check
from honeysim.telemetry import NoiseConfig

# one random cell per seed in one deployment and mode, so a cell's position in the run is its seed's
RANDOM_CELLS = {
    "horizon": 5,
    "budget": 1,
    "seed_base": 0,
    "policies": ["random"],
    "deployments": ["large_mixed"],
    "persistence_modes": ["deterministic"],
    "seeds": [0, 1],
}


def test_policy_decide_without_its_clamp_breaks_the_budget(monkeypatch, tmp_path):
    def unclamped(policy, obs, cfg):
        if policy.belief is not None:
            policies.update_belief(policy.belief, obs)
        return policy.decide(obs, cfg)

    monkeypatch.setattr(engine, "policy_decide", unclamped)
    replay = tmp_path / "replay.json"
    over_budget = json.dumps({"expose": ["gitlab", "apache_struts"], "stages": []})
    replay.write_text(json.dumps([over_budget]), encoding="utf-8")
    mock = {"name": "mock", "kind": "mock", "replay": str(replay)}
    config = {**RANDOM_CELLS, "policies": [mock], "deployments": ["fully_vulnerable"], "seeds": [0]}
    with pytest.raises(AssertionError):
        check_replies_keep_the_contracts(tmp_path, config)


def test_a_policy_decide_that_never_folds_the_alerts_moves_the_pinned_bytes(monkeypatch, tmp_path):
    def never_folds(policy, obs, cfg):
        decision, prediction = policy.decide(obs, cfg)
        return policies.clamp_decision(decision, cfg, policy.stats), prediction

    monkeypatch.setattr(engine, "policy_decide", never_folds)
    with pytest.raises(AssertionError, match="output bytes"):
        check_pinned_bytes(tmp_path)


def test_a_run_that_builds_a_policy_per_attacker_under_carryover_starts_each_episode_empty(monkeypatch):
    def policy_per_attacker(cfg, policy_factory, seed):
        records = []
        for index, attacker in enumerate(cfg.attackers):
            policy = policy_factory(index, derive_seed(seed, attacker.resolved_label(), "policy"))
            records.append(run_episode(cfg, attacker, policy, seed))
        return records

    monkeypatch.setattr(engine.run_simulation, "__code__", policy_per_attacker.__code__)
    with pytest.raises(AssertionError):
        test_engine.test_belief_carryover_carries_the_evidence_into_the_next_episode(True)


def test_a_random_policy_seeded_by_its_position_in_the_run_depends_on_the_matrix(monkeypatch, tmp_path):
    def by_position(self, cfg, build):
        built = itertools.count()  # the episodes built from this factory, which all the run's random cells share
        return lambda index, seed: RandomPolicy(next(built))

    monkeypatch.setattr(harness.RandomKind, "factory", by_position)
    cell = {"policies": "random", "deployments": "large_mixed", "persistence_modes": "deterministic", "seeds": 1}
    with pytest.raises(AssertionError):
        check_cell_independence(tmp_path, RANDOM_CELLS, cell, {"seeds": [1, 0]})


def test_a_random_policy_seeded_by_a_counter_that_outlives_the_run_breaks_a_rerun(monkeypatch, tmp_path):
    counter = itertools.count()
    monkeypatch.setattr(
        harness.RandomKind, "factory", lambda self, *args: lambda index, seed: RandomPolicy(seed + next(counter))
    )
    with pytest.raises(AssertionError):
        check_rerun(tmp_path, RANDOM_CELLS)


def test_a_run_that_deletes_no_earlier_file_lets_replay_read_an_interrupted_rerun(monkeypatch, tmp_path):
    monkeypatch.setattr(Path, "unlink", lambda self, missing_ok=False: None)
    with pytest.raises(AssertionError, match="replay read"):
        check_interrupted_rerun(tmp_path, RANDOM_CELLS, 7, 1)


def test_a_run_that_deletes_the_earlier_run_before_it_builds_its_cells_loses_that_run(monkeypatch, tmp_path):
    execute_matrix = harness.execute_matrix

    def deletes_first(matrix, out_dir, workers=1):
        for name in (harness.MANIFEST_NAME, harness.STATS_NAME):
            (Path(out_dir) / name).unlink(missing_ok=True)
        return execute_matrix(matrix, out_dir, workers)

    monkeypatch.setattr(harness, "execute_matrix", deletes_first)
    with pytest.raises(AssertionError):
        test_cli.test_a_refused_run_leaves_the_directory_as_it_was(tmp_path)


def test_a_run_that_validates_before_it_executes_builds_every_cell_twice(monkeypatch, tmp_path, capsys):
    cmd_run = cli.cmd_run

    def validates_first(args):
        matrix = cli._apply_overrides(cli._load_config(args.config), args)
        problems = harness.validate_matrix(matrix, offline=args.offline)
        if problems:
            raise harness.MatrixFaults(problems)
        return cmd_run(args)

    monkeypatch.setattr(cli, "cmd_run", validates_first)
    with pytest.raises(AssertionError):
        test_cli.test_run_and_mock_demo_build_once(
            tmp_path, monkeypatch, capsys, ["run", "--out", "out"], "deployment_config", 3
        )


def test_a_build_that_remembers_only_what_loads_reads_a_failing_catalog_at_every_cell(monkeypatch, tmp_path, capsys):
    def remembers_values(self, load, *args):
        key = (load, *args)
        if key not in self._loads:
            self._loads[key] = load(*args)
        return self._loads[key]

    monkeypatch.setattr(harness.RunBuild, "_load", remembers_values)
    with pytest.raises(AssertionError):
        test_cli.test_a_catalog_file_that_fails_is_read_once(tmp_path, monkeypatch, capsys, ["validate"])


def test_a_matrix_that_skips_the_checks_of_its_axes_leaves_them_to_violation_lines(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness.ExperimentMatrix, "_axis_faults", lambda self: [])
    with pytest.raises(AssertionError):
        test_cli.test_faults_of_the_axes_are_one_line_at_load(tmp_path, monkeypatch, capsys, ["run", "--out", "out"])


def test_a_matrix_that_holds_its_axes_as_given_lets_one_change_in_place(monkeypatch):
    post_init = harness.ExperimentMatrix.__post_init__
    axes = ("policies", "deployments", "persistence_modes", "seeds", "attackers")

    def as_given(self):
        given = {name: getattr(self, name) for name in axes}
        post_init(self)  # every check, then each axis back as the caller gave it
        for name, value in given.items():
            object.__setattr__(self, name, value)

    monkeypatch.setattr(harness.ExperimentMatrix, "__post_init__", as_given)
    for axis in axes:
        with pytest.raises(AssertionError):
            test_cli.TestExpandMatrix().test_no_axis_of_a_built_matrix_changes_in_place(axis)


def test_a_cell_that_rebuilds_its_run_config_at_its_seed_checks_one_config_per_cell(monkeypatch, tmp_path):
    """``run_cell`` as it was when the seed was a field: a new config per cell, so one check per cell. Every byte a
    run writes stays the same under this fault; only the count of checks sees it."""
    run_simulation = engine.run_simulation

    def rebuilt_per_cell(cfg, policy_factory, seed):
        return run_simulation(dataclasses.replace(cfg), policy_factory, seed)

    monkeypatch.setattr(harness, "run_simulation", rebuilt_per_cell)
    with pytest.raises(AssertionError):
        test_cli.test_execute_matrix_checks_one_run_config_per_deployment_and_mode(tmp_path, monkeypatch)


def test_a_build_that_makes_a_run_config_per_policy_checks_one_per_policy(monkeypatch, tmp_path):
    """``RunBuild._build`` as it was before the run config was memoized: each policy builds and checks its own."""

    def one_per_policy(self, policy, deployment, mode):
        cfg = self._run_config(deployment, mode)
        self.inputs[policy.name, deployment, mode] = cfg, policy.factory(cfg, self)

    monkeypatch.setattr(harness.RunBuild, "_build", one_per_policy)
    with pytest.raises(AssertionError):
        test_cli.test_execute_matrix_checks_one_run_config_per_deployment_and_mode(tmp_path, monkeypatch)


def test_a_cell_that_builds_its_own_inputs_again_checks_every_run_config_at_every_cell(monkeypatch):
    """``run_cell`` as it was when it built the matrix's inputs again at each call: 81 cells x 9 checks after the
    build's own 9, not 9 alone."""
    run_cell = harness.run_cell

    def builds_again(cell, build, out_dir=None):
        return run_cell(cell, harness.RunBuild(build._matrix).checked(), out_dir)

    monkeypatch.setattr(harness, "run_cell", builds_again)
    with pytest.raises(AssertionError, match=r"738 == \(3 \* 3\)"):
        test_cli.test_every_builtin_cell_runs_from_one_build_that_checks_one_run_config_per_deployment_and_mode(
            monkeypatch
        )


def test_an_http_backend_that_bounds_each_read_alone_waits_out_a_trickled_reply(monkeypatch):
    def each_read_alone(self, prompt):
        import urllib.request

        request = urllib.request.Request(f"{self.base_url.rstrip('/')}/chat/completions", data=b"{}")
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:  # each read waits at most the timeout
            return json.loads(resp.read())["choices"][0]["message"]["content"]

    monkeypatch.setattr(llm.HttpChatBackend, "complete", each_read_alone)
    with pytest.raises(AssertionError):
        test_llm.test_a_reply_that_trickles_past_the_timeout_fails_its_attempts_and_falls_back(monkeypatch, False)


def test_an_http_backend_that_reads_a_reply_without_a_cap_takes_one_past_it(monkeypatch):
    def uncapped(self, prompt):
        import urllib.request

        request = urllib.request.Request(f"{self.base_url.rstrip('/')}/chat/completions", data=b"{}")
        for _ in range(self.max_retries):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read())["choices"][0]["message"]["content"]
            except (OSError, LookupError, ValueError) as exc:
                error = exc
        raise llm.BackendError(f"backend unreachable after {self.max_retries} attempts: {error}")

    monkeypatch.setattr(llm.HttpChatBackend, "complete", uncapped)
    with pytest.raises(AssertionError):
        test_llm.test_every_turn_on_a_faulty_reply_ends_in_time_falls_back_and_is_counted(monkeypatch, "over-the-cap")


def test_an_http_backend_that_trusts_the_bytes_it_got_takes_a_reply_cut_short_of_its_length(monkeypatch):
    def without_the_length_check(self, prompt):
        import http.client
        import time
        import urllib.request

        request = urllib.request.Request(f"{self.base_url.rstrip('/')}/chat/completions", data=b"{}")
        cap = 64 * 1024 + 64 * self.max_tokens
        for _ in range(self.max_retries):
            try:
                with llm._opener(time.monotonic() + self.timeout).open(request, timeout=self.timeout) as resp:
                    body = resp.read(cap + 1)  # short, and no error, when the connection closes before its length
                if len(body) > cap:
                    raise ValueError(f"reply longer than {cap} bytes")
                return json.loads(body)["choices"][0]["message"]["content"]
            except (OSError, http.client.HTTPException, LookupError, ValueError) as exc:
                error = exc
        raise llm.BackendError(f"backend unreachable after {self.max_retries} attempts: {error}")

    monkeypatch.setattr(llm.HttpChatBackend, "complete", without_the_length_check)
    with pytest.raises(AssertionError):
        test_llm.test_every_turn_on_a_faulty_reply_ends_in_time_falls_back_and_is_counted(
            monkeypatch, "closed-after-the-json"
        )


def test_a_build_that_expands_the_matrix_again_makes_two_expansions_per_command(monkeypatch, tmp_path, capsys):
    init = harness.RunBuild.__init__

    def expands_again(self, matrix, offline=False):
        harness.expand_matrix(matrix)  # a build that checks the axes itself, as the matrix already has
        init(self, matrix, offline)

    monkeypatch.setattr(harness.RunBuild, "__init__", expands_again)
    with pytest.raises(AssertionError):
        test_cli.test_each_command_expands_the_matrix_once(tmp_path, monkeypatch, capsys, ["validate"])


def test_cells_on_one_pool_thread_counting_into_its_first_cell_stats_break_workers_2(monkeypatch, tmp_path):
    pool_thread = threading.local()

    def per_thread(turns_path=None):
        stats = CellStats(turns_path)
        if threading.current_thread() is not threading.main_thread():
            first = pool_thread.__dict__.setdefault("stats", stats)
            stats.latencies, stats.counts = first.latencies, first.counts
        return stats

    monkeypatch.setattr(harness, "CellStats", per_thread)
    # three model cells with turns, so one of the two threads runs two of them
    axes = {"policies": ["mock"], "deployments": ["small_mixed"], "persistence_modes": ["deterministic"]}
    config = _with_mock_replies(tmp_path, {**axes, "seeds": [0, 1, 2]}, {"horizon": 3, "budget": 1})
    with pytest.raises(AssertionError):
        check_workers(tmp_path, config)


def test_turns_written_without_flushing_are_lost_by_a_crash(monkeypatch, tmp_path):
    def unflushed(self, latency_s, turn):
        self.latencies.append(latency_s)
        self.counts["fallbacks"] += turn.fallback_used
        if self.turns_path is not None:
            if self._turns is None:
                self._turns = open(self.turns_path, "wb")
            self._turns.write(turn.line())

    monkeypatch.setattr(CellStats, "record_turn", unflushed)
    with pytest.raises(AssertionError):
        test_cli.test_turn_log_keeps_finished_turns_and_closes_when_a_cell_crashes(tmp_path, monkeypatch)


def test_a_cell_stats_left_open_by_a_crashed_cell_leaks_its_turns_file(monkeypatch, tmp_path):
    monkeypatch.setattr(CellStats, "close", lambda self: None)  # run_cell's finally closes nothing
    with pytest.raises(AssertionError):
        test_cli.test_turn_log_keeps_finished_turns_and_closes_when_a_cell_crashes(tmp_path, monkeypatch)


def test_counting_every_turn_as_a_fallback_moves_the_pinned_run_stats(monkeypatch, tmp_path):
    record_turn = CellStats.record_turn

    def every_turn_falls_back(self, latency_s, turn):
        record_turn(self, latency_s, turn)
        self.counts["fallbacks"] += not turn.fallback_used

    monkeypatch.setattr(CellStats, "record_turn", every_turn_falls_back)
    with pytest.raises(AssertionError, match="run_stats.json"):
        check_pinned_bytes(tmp_path)


def test_a_summary_table_without_its_last_newline_moves_the_pinned_bytes(monkeypatch, tmp_path):
    text = metrics._text
    monkeypatch.setattr(metrics, "_text", lambda *args: text(*args)[:-1])
    with pytest.raises(AssertionError, match="output bytes"):
        check_pinned_bytes(tmp_path)


def test_scoring_a_value_only_the_run_form_has_breaks_replay(monkeypatch, tmp_path):
    achieved = metrics.exploitation_achieved

    def unless_declared_done(rec):
        # a run's decision is a named tuple; replay decodes it as a mapping
        return achieved(rec) and not rec["epochs"][-1]["decision"].declared_done

    monkeypatch.setattr(metrics, "exploitation_achieved", unless_declared_done)
    with pytest.raises(AssertionError, match="replay of"):
        check_replay_equals_run(tmp_path, {**RANDOM_CELLS, "policies": ["oracle", "random"]})


def test_a_replay_that_keeps_its_decoded_records_outlives_its_cells(monkeypatch, tmp_path):
    kept, decode = [], harness.records_from_jsonl

    def keeping(text):
        records = decode(text)
        kept.extend(records)
        return records

    monkeypatch.setattr(harness, "records_from_jsonl", keeping)
    config = tmp_path / "tiny.yaml"
    config.write_text(yaml.safe_dump(test_cli.TINY_CONFIG), encoding="utf-8")
    with pytest.raises(AssertionError):
        test_cli.test_no_episode_record_outlives_its_cell(str(config), tmp_path, monkeypatch, "replay", 1)
    assert kept


def test_a_digest_budget_sized_with_empty_alerts_misses_the_alert_free_prompt(monkeypatch):
    code = llm.build_prompt.__code__
    consts = tuple("" if c == "none" else c for c in code.co_consts)  # the overhead rendered with alerts=""
    assert consts.count("") == code.co_consts.count("") + 1
    monkeypatch.setattr(llm.build_prompt, "__code__", code.replace(co_consts=consts))
    with pytest.raises(AssertionError):
        test_llm.TestBuildPrompt().test_digest_gets_what_the_alert_free_prompt_leaves(monkeypatch, 0)


def test_an_alert_cache_key_without_the_value_types_writes_twins_alike(monkeypatch):
    def alerts_text(alerts):
        texts = []
        for alert in alerts:
            key = alert[2:]  # 1, 1.0 and True are one key
            parts = engine._ALERT_PARTS.get(key) or engine._alert_parts(key)
            texts.append(f"{parts[0]}{alert[1]}{parts[1]}{alert[0]}{parts[2]}")
        return "[" + ", ".join(texts) + "]"

    monkeypatch.setattr(engine, "_ALERT_PARTS", {})
    monkeypatch.setattr(engine, "_alerts_text", alerts_text)
    with pytest.raises(AssertionError):
        test_engine.TestSerialization().test_alerts_whose_numbers_differ_only_in_type_are_written_apart()


def test_naive_quoting_of_ids_breaks_the_json_form_of_a_line(monkeypatch):
    monkeypatch.setattr(engine, "_STAGE_LIST_TEXT", {})
    monkeypatch.setattr(engine, "_quote", lambda text: f'"{text}"')
    prop = test_cli.test_every_offline_kind_logs_its_json_form_with_sorted_keys.hypothesis.inner_test
    with pytest.raises(AssertionError):
        prop(decoys=['"'], labels=["a\\", "\u00e9"], budget=1, seed=0)


def test_a_settings_reader_that_keeps_nulls_refuses_a_null_section(monkeypatch, tmp_path):
    def keeps_nulls(data, kinds, path="", required=()):
        check(data, "dict", path)
        unknown = [key for key in data if key not in kinds]
        missing = [key for key in required if key not in data]
        if unknown or missing:
            raise ConfigError(f"unknown {unknown} or missing {missing} in {path}")
        return {key: check(value, kinds[key], f"{path}.{key}" if path else key) for key, value in data.items()}

    monkeypatch.setattr(settings.read, "__code__", keeps_nulls.__code__)
    with pytest.raises(AssertionError, match="a null key is refused"):
        test_settings.test_null_is_absent_for_a_section_or_an_optional_path(tmp_path)


def test_a_type_rule_that_takes_a_bool_for_an_int_runs_a_flag_as_a_horizon(monkeypatch):
    def takes_bools(value, kind, name):
        if kind.startswith("Optional["):
            if value is None:
                return None
            kind = kind[len("Optional[") : -1]
        kinds, what = TYPES[kind]
        if isinstance(value, kinds):  # True is an int to isinstance
            if kind.startswith("list["):
                for index, item in enumerate(value):
                    check(item, kind[len("list[") : -1], f"{name}[{index}]")
            return float(value) if kind == "float" else value
        raise ConfigError(f"{name!r} must be {what}, got {value!r}")

    monkeypatch.setattr(settings.check, "__code__", takes_bools.__code__)
    numeric = [site for site in test_settings.SITES if site[4] in ("integer", "number")]
    assert len(numeric) == 11
    prop = test_settings.test_a_value_of_another_type_exits_2_naming_its_entry_and_key.hypothesis.inner_test
    for site in numeric:
        with pytest.raises(AssertionError):
            prop(site=site, value=True)


def test_reordered_noise_rows_draw_other_alerts_than_signatures_json(monkeypatch):
    table = telemetry.signature_rows()
    reordered = telemetry.SignatureTable(table.scan, table.noise[::-1], table.exploits)
    monkeypatch.setattr(telemetry, "signature_rows", lambda: reordered)
    with pytest.raises(AssertionError):
        test_telemetry.test_every_exploit_renders_the_rows_of_signatures_json("small_mixed", NoiseConfig(0.6, 0.7))


def test_an_alert_synthesis_that_puts_each_noise_alert_first_gives_an_epoch_out_of_clock_order(monkeypatch):
    def noise_first(actions, epoch, noise, rng, *, catalog, src="198.51.100.7"):
        rows, ports, alert = telemetry.signature_rows(), catalog.ports, telemetry.IdsAlert
        alerts = []
        clock = epoch * telemetry.CLOCK_EPOCH_SECONDS
        recon = telemetry.AttackStage.RECONNAISSANCE
        for action in actions:
            if isinstance(action, telemetry.ScanAction):
                for dest in action.services:
                    alerts.append(alert(epoch, clock, src, dest, ports[dest], *rows.scan, recon))
                    clock += 1
            else:
                dest, stage = action.service, action.stage
                for idx, row in enumerate(rows.exploits[dest, stage]):
                    hint = stage
                    if idx > 0 and rng.random() < noise.hint_corruption_rate:
                        hint = telemetry._corrupt_hint(stage, rng)
                    alerts.append(alert(epoch, clock, src, dest, ports[dest], *row, hint))
                    clock += 1
        for dest in catalog.ids if noise.false_positive_rate > 0 else ():
            if rng.random() < noise.false_positive_rate:
                alerts.insert(0, alert(epoch, clock, src, dest, ports[dest], *rng.choice(rows.noise), recon))
                clock += 1
        return alerts

    monkeypatch.setattr(test_telemetry, "synthesize_alerts", noise_first)
    prop = test_telemetry.test_an_epochs_alerts_are_of_its_epoch_on_catalog_services_with_clocks_rising_by_one
    drawn = ("small_mixed", [telemetry.ScanAction(("gitlab",))])
    with pytest.raises(AssertionError):
        prop.hypothesis.inner_test(drawn=drawn, rates=(1.0, 0.0), seed=0, epoch=3)
