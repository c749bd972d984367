import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from honeysim.catalog import (
    _STAGE_BY_KEY,
    ALL_STAGES,
    COMMON_TARGETS,
    DEPLOYMENT_NAMES,
    STAGE_LABELS,
    AttackGraph,
    AttackStage,
    HoneynetConfig,
    ServiceSpec,
    StageNotSupportedError,
    catalog_from_dict,
    deployment_config,
    load_catalog,
    name_key,
    next_stage,
)

FULLY_VULNERABLE = deployment_config("fully_vulnerable").catalog


def test_stage_set_is_fixed_and_ordered():
    assert len(ALL_STAGES) == 5
    assert AttackStage.RECONNAISSANCE == 0
    assert AttackStage.ROOT_DATA_EXFIL == 4
    labels = [s.label for s in ALL_STAGES]
    assert labels == ["Reconnaissance", "InitialAccess", "UserDataExfil", "PrivEsc", "RootDataExfil"]
    assert STAGE_LABELS == tuple(labels)


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
        assert FULLY_VULNERABLE.get("gitlab").supported_stages == ALL_STAGES
        assert FULLY_VULNERABLE.get("xdebug").supported_stages == ALL_STAGES

    def test_struts_chain_skips_user_data_exfil(self):
        struts = FULLY_VULNERABLE.get("apache_struts")
        assert AttackStage.USER_DATA_EXFIL not in struts.supported_stages
        assert struts.terminal_stage == AttackStage.ROOT_DATA_EXFIL

    def test_docker_chain_ends_at_user_data_exfil(self):
        docker = FULLY_VULNERABLE.get("docker_api")
        assert docker.terminal_stage == AttackStage.USER_DATA_EXFIL
        assert AttackStage.PRIV_ESC not in docker.supported_stages

    def test_catalog_is_pure(self):
        assert deployment_config("fully_vulnerable").catalog == deployment_config("fully_vulnerable").catalog


class TestNextStage:
    def test_struts_initial_access_jumps_to_priv_esc(self):
        struts = FULLY_VULNERABLE.get("apache_struts")
        assert next_stage(struts, AttackStage.INITIAL_ACCESS) == AttackStage.PRIV_ESC

    def test_docker_user_data_exfil_is_done(self):
        docker = FULLY_VULNERABLE.get("docker_api")
        assert next_stage(docker, AttackStage.USER_DATA_EXFIL) is None

    def test_gitlab_terminal_is_done(self):
        gitlab = FULLY_VULNERABLE.get("gitlab")
        assert next_stage(gitlab, AttackStage.ROOT_DATA_EXFIL) is None

    def test_unsupported_stage_raises(self):
        struts = FULLY_VULNERABLE.get("apache_struts")
        with pytest.raises(StageNotSupportedError):
            next_stage(struts, AttackStage.USER_DATA_EXFIL)

    def test_chains_terminate_within_four_steps(self):
        # every exploitable chain walks Recon -> terminal, strictly increasing
        for svc in FULLY_VULNERABLE.services:
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
    @pytest.mark.parametrize(
        "budget, message",
        [(0, "budget must be at least 1, got 0"), (5, "budget exceeds catalog: budget=5, services=4")],
        ids=["none", "past-the-catalog"],
    )
    def test_a_budget_outside_the_catalog_is_refused_when_built(self, budget, message):
        """A library-built honeynet cannot hold a budget that the policies could not fill."""
        catalog = deployment_config("small_mixed").catalog
        assert HoneynetConfig(catalog=catalog, budget=4).budget == 4
        with pytest.raises(ValueError, match=f"^{message}$"):
            HoneynetConfig(catalog=catalog, budget=budget)
        with pytest.raises(ValueError, match=f"^{message}$"):
            deployment_config("small_mixed", budget=budget)

    def test_named_shapes(self):
        fully = deployment_config("fully_vulnerable")
        small = deployment_config("small_mixed")
        large = deployment_config("large_mixed")
        assert len(fully.catalog) == 4 and len(fully.catalog.vulnerable_ids) == 4
        assert len(small.catalog) == 4 and small.catalog.vulnerable_ids == ("gitlab", "apache_struts")
        assert len(large.catalog) == 6 and large.catalog.vulnerable_ids == ("gitlab", "apache_struts")

    def test_the_common_targets_are_the_services_exploitable_in_every_deployment(self):
        assert COMMON_TARGETS == ("gitlab", "apache_struts")
        for name in DEPLOYMENT_NAMES:
            assert set(COMMON_TARGETS) <= set(deployment_config(name).catalog.vulnerable_ids)

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
    cat = FULLY_VULNERABLE
    path = tmp_path / "catalog.yaml"
    path.write_text(yaml.safe_dump(_catalog_file_dict(cat), sort_keys=False), encoding="utf-8")
    assert load_catalog(str(path)) == cat


def test_catalog_dict_round_trip():
    cat = deployment_config("large_mixed").catalog
    assert catalog_from_dict(_catalog_file_dict(cat)) == cat


@pytest.mark.parametrize(
    "row, message",
    [
        ({"id": 80, "vulnerable": False, "stages": ["Reconnaissance"]}, "'services[1].id' must be a string, got 80"),
        (
            {"id": "web", "display_name": ["Web"], "vulnerable": False, "stages": ["Reconnaissance"]},
            "'services[1].display_name' must be a string, got ['Web']",
        ),
        ("ideal", "'services[1]' must be a mapping, got 'ideal'"),
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
    assert str(raised.value) == f"'services[0].vulnerable' must be true or false, got {flag!r}"


# names built from few characters collide under name_key often: two services then claim one key
_NAME_CHARS = "aAbB_- "
_NAMES = st.text(_NAME_CHARS, min_size=1, max_size=4)
_CASES = st.sampled_from([str, str.lower, str.upper, str.swapcase, str.title])


@st.composite
def _variant(draw, names):
    """One of ``names`` or a new name, in another case, with separators added or swapped."""
    name = draw(st.one_of(st.sampled_from(names), _NAMES) if names else _NAMES)
    name = draw(_CASES)(name)
    for sep in "_- ":
        name = name.replace(sep, draw(st.sampled_from(["", "_", "-", " "])))
    at = draw(st.integers(0, len(name)))
    return name[:at] + draw(st.sampled_from(["", "_", "-", " "])) + name[at:]


@st.composite
def _catalog_and_name(draw):
    named = draw(
        st.sampled_from([*(deployment_config(d).catalog for d in DEPLOYMENT_NAMES), None])
    )
    if named is None:
        rows = draw(st.lists(st.tuples(_NAMES, _NAMES), min_size=1, max_size=5, unique_by=lambda row: row[0]))
        scan_only = (AttackStage.RECONNAISSANCE,)
        named = AttackGraph(tuple(ServiceSpec(sid, display, False, scan_only) for sid, display in rows))
    names = [name for svc in named.services for name in (svc.id, svc.display_name)]
    return named, draw(_variant(names))


@given(_catalog_and_name())
def test_resolve_agrees_with_a_name_key_lookup(catalog_and_name):
    """The exact-name table answers as the name keys do: the first service to claim a key keeps it."""
    catalog, name = catalog_and_name
    by_key = {}
    for svc in catalog.services:
        for known in (svc.id, svc.display_name):
            by_key.setdefault(name_key(known), svc.id)
    assert catalog.resolve(name) == by_key.get(name_key(name))


@given(_variant([*STAGE_LABELS, *_STAGE_BY_KEY]))
def test_from_label_agrees_with_a_name_key_lookup(name):
    expected = _STAGE_BY_KEY.get(name_key(name))
    if expected is None:
        with pytest.raises(ValueError, match="unknown attack stage"):
            AttackStage.from_label(name)
    else:
        assert AttackStage.from_label(name) is expected
