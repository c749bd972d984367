import pytest
import yaml

from honeysim.catalog import (
    ALL_STAGES,
    AttackGraph,
    AttackStage,
    HoneynetConfig,
    ServiceSpec,
    StageNotSupportedError,
    builtin_catalog,
    catalog_from_dict,
    deployment_config,
    load_catalog,
    next_stage,
    validate_deployment,
)


def test_stage_set_is_fixed_and_ordered():
    assert len(ALL_STAGES) == 5
    assert AttackStage.RECONNAISSANCE == 0
    assert AttackStage.ROOT_DATA_EXFIL == 4
    labels = [s.label for s in ALL_STAGES]
    assert labels == ["Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc", "RootDataExfil"]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Reconnaissance", AttackStage.RECONNAISSANCE),
        ("initial_access", AttackStage.INITIAL_ACCESS),
        ("PRIVESC", AttackStage.PRIV_ESC),
        ("root data exfil", AttackStage.ROOT_DATA_EXFIL),
    ],
)
def test_stage_parsing_tolerates_formatting(text, expected):
    assert AttackStage.from_label(text) == expected


def test_stage_parsing_rejects_unknown():
    with pytest.raises(ValueError):
        AttackStage.from_label("Persistence")


class TestBuiltinCatalog:
    def test_gitlab_supports_all_five_stages(self):
        cat = builtin_catalog()
        assert cat.get("gitlab").supported_stages == ALL_STAGES
        assert cat.get("xdebug").supported_stages == ALL_STAGES

    def test_struts_chain_skips_user_data_exfil(self):
        struts = builtin_catalog().get("apache_struts")
        assert AttackStage.USER_DATA_EXFIL not in struts.supported_stages
        assert struts.terminal_stage == AttackStage.ROOT_DATA_EXFIL

    def test_docker_chain_ends_at_user_data_exfil(self):
        docker = builtin_catalog().get("docker_api")
        assert docker.terminal_stage == AttackStage.USER_DATA_EXFIL
        assert AttackStage.PRIV_ESC not in docker.supported_stages

    def test_others_row_is_scan_only(self):
        others = builtin_catalog().get("others")
        assert not others.vulnerable
        assert others.terminal_stage is None
        assert others.supported_stages == (AttackStage.RECONNAISSANCE,)

    def test_catalog_is_pure(self):
        assert builtin_catalog() == builtin_catalog()


class TestNextStage:
    def test_struts_initial_access_jumps_to_priv_esc(self):
        struts = builtin_catalog().get("apache_struts")
        assert next_stage(struts, AttackStage.INITIAL_ACCESS) == AttackStage.PRIV_ESC

    def test_docker_user_data_exfil_is_done(self):
        docker = builtin_catalog().get("docker_api")
        assert next_stage(docker, AttackStage.USER_DATA_EXFIL) is None

    def test_gitlab_terminal_is_done(self):
        gitlab = builtin_catalog().get("gitlab")
        assert next_stage(gitlab, AttackStage.ROOT_DATA_EXFIL) is None

    def test_unsupported_stage_raises(self):
        struts = builtin_catalog().get("apache_struts")
        with pytest.raises(StageNotSupportedError):
            next_stage(struts, AttackStage.USER_DATA_EXFIL)

    def test_chains_terminate_within_four_steps(self):
        # every exploitable chain walks Recon -> terminal, strictly increasing
        for svc in builtin_catalog().services:
            if not svc.vulnerable:
                continue
            current = AttackStage.RECONNAISSANCE
            steps = 0
            while True:
                nxt = next_stage(svc, current)
                if nxt is None:
                    break
                assert nxt > current
                current = nxt
                steps += 1
            assert current == svc.terminal_stage
            assert steps <= 4


class TestServiceSpecInvariants:
    def test_recon_always_required(self):
        with pytest.raises(ValueError):
            ServiceSpec("bad", "Bad", True, (AttackStage.INITIAL_ACCESS,))

    def test_non_vulnerable_must_be_scan_only(self):
        with pytest.raises(ValueError):
            ServiceSpec("bad", "Bad", False, (AttackStage.RECONNAISSANCE, AttackStage.INITIAL_ACCESS))

    def test_duplicate_ids_rejected(self):
        svc = ServiceSpec("dup", "Dup", False, (AttackStage.RECONNAISSANCE,))
        with pytest.raises(ValueError):
            AttackGraph((svc, svc))


class TestDeployments:
    def test_fully_vulnerable_with_unit_budget_is_ok(self):
        assert validate_deployment(deployment_config("fully_vulnerable", budget=1)) == []

    def test_budget_beyond_catalog_is_flagged(self):
        cfg = HoneynetConfig(catalog=deployment_config("fully_vulnerable").catalog, budget=5)
        violations = validate_deployment(cfg)
        assert any("budget exceeds catalog" in v for v in violations)

    def test_vulnerable_count_mismatch_is_flagged(self):
        base = deployment_config("small_mixed").catalog
        tweaked = AttackGraph((builtin_catalog().get("docker_api"),) + base.services[:3])
        cfg = HoneynetConfig(catalog=tweaked, budget=1, deployment_name="small_mixed")
        violations = validate_deployment(cfg)
        assert any("vulnerable-count mismatch" in v for v in violations)

    def test_named_shapes(self):
        fully = deployment_config("fully_vulnerable")
        small = deployment_config("small_mixed")
        large = deployment_config("large_mixed")
        assert len(fully.catalog) == 4 and len(fully.catalog.vulnerable_ids) == 4
        assert len(small.catalog) == 4 and small.catalog.vulnerable_ids == ("gitlab", "apache_struts")
        assert len(large.catalog) == 6 and large.catalog.vulnerable_ids == ("gitlab", "apache_struts")

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError):
            deployment_config("huge_mixed")
        # a config file can name a deployment with any YAML value
        with pytest.raises(ValueError, match="unknown deployment"):
            deployment_config(["small_mixed"])


def _catalog_file_dict(graph: AttackGraph) -> dict:
    """``graph`` as the mapping a catalog file holds (see the README's Catalog files)."""
    return {
        "services": [
            {
                "id": svc.id,
                "display_name": svc.display_name,
                "vulnerable": svc.vulnerable,
                "stages": [stage.label for stage in svc.supported_stages],
            }
            for svc in graph.services
        ]
    }


def test_catalog_round_trips_through_file(tmp_path):
    cat = builtin_catalog()
    path = tmp_path / "catalog.yaml"
    path.write_text(yaml.safe_dump(_catalog_file_dict(cat), sort_keys=False), encoding="utf-8")
    assert load_catalog(str(path)) == cat


def test_catalog_dict_round_trip():
    cat = deployment_config("large_mixed").catalog
    assert catalog_from_dict(_catalog_file_dict(cat)) == cat


@pytest.mark.parametrize(
    "row, message",
    [
        ({"id": 80, "vulnerable": False, "stages": ["Reconnaissance"]}, "services[1]: 'id' must be a string, got 80"),
        (
            {"id": "web", "display_name": ["Web"], "vulnerable": False, "stages": ["Reconnaissance"]},
            "services[1]: 'display_name' must be a string, got ['Web']",
        ),
        ("ideal", "services[1] must be a mapping, got 'ideal'"),
    ],
    ids=["numeric-id", "list-display-name", "row-a-string"],
)
def test_catalog_row_names_must_be_strings(row, message):
    gitlab = {"id": "gitlab", "vulnerable": True, "stages": ["Reconnaissance", "InitialAccess"]}
    with pytest.raises(ValueError) as raised:
        catalog_from_dict({"services": [gitlab, row]})
    assert str(raised.value) == message


@pytest.mark.parametrize("flag", ["false", "no", 0, None])
def test_catalog_row_vulnerable_must_be_a_boolean(flag):
    """bool("false") is True: a quoted flag would turn a row with an exploit chain exploitable."""
    web = {"id": "web", "vulnerable": flag, "stages": ["Reconnaissance", "InitialAccess"]}
    with pytest.raises(ValueError) as raised:
        catalog_from_dict({"services": [web]})
    assert str(raised.value) == f"services[0]: 'vulnerable' must be true or false, got {flag!r}"
