"""Service catalog, attack stages, and per-service exploitation chains.

Everything downstream (attackers, telemetry, policies, metrics) consumes the
immutable types defined here. A honeynet is a catalog of symbolic services,
each declaring which attack stages an intruder can actually carry out against
it; non-vulnerable decoys support scanning only.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Optional

import yaml

from .settings import ConfigError, read


def name_key(text: str) -> str:
    """Lookup key for a stage or service name: lower case, no separators."""
    return text.replace("_", "").replace(" ", "").replace("-", "").lower()


KNOWN_PORTS = {"gitlab": 443, "xdebug": 9000, "apache_struts": 8080, "docker_api": 2375}


def stable_hash(text: str) -> int:
    # hash() is salted per interpreter run; crc32 keeps derived values reproducible
    return zlib.crc32(text.encode("utf-8"))


def service_port(service_id: str) -> int:
    return KNOWN_PORTS.get(service_id, 8100 + stable_hash(service_id) % 100)


class AttackStage(IntEnum):
    """Ordered intrusion stages; ordinal gives chain position."""

    RECONNAISSANCE = 0
    INITIAL_ACCESS = 1
    USER_DATA_EXFIL = 2
    PRIV_ESC = 3
    ROOT_DATA_EXFIL = 4

    @property
    def label(self) -> str:
        return STAGE_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "AttackStage":
        """Parse a stage name, tolerating case and separator variations."""
        stage = _STAGE_BY_NAME.get(text)
        if stage is not None:
            return stage
        try:
            return _STAGE_BY_KEY[name_key(text)]
        except KeyError:
            raise ValueError(f"unknown attack stage: {text!r}") from None


# each stage's label, indexed by the stage: the epoch loop reads STAGE_LABELS[stage]; INITIAL_ACCESS is InitialAccess
STAGE_LABELS = tuple(stage.name.title().replace("_", "") for stage in AttackStage)

_STAGE_BY_KEY = {label.lower(): stage for stage, label in zip(AttackStage, STAGE_LABELS, strict=True)}
# common aliases seen in alert feeds and model output
_STAGE_BY_KEY.update(
    {
        "recon": AttackStage.RECONNAISSANCE,
        "scan": AttackStage.RECONNAISSANCE,
        "discovery": AttackStage.RECONNAISSANCE,
        "userdataexfiltration": AttackStage.USER_DATA_EXFIL,
        "dataexfil": AttackStage.USER_DATA_EXFIL,
        "privilegeescalation": AttackStage.PRIV_ESC,
        "rootdataexfiltration": AttackStage.ROOT_DATA_EXFIL,
        "rootexfil": AttackStage.ROOT_DATA_EXFIL,
    }
)
# each key and label as written: the names logs and models give most, resolved without name_key
_STAGE_BY_NAME = {name: _STAGE_BY_KEY[name_key(name)] for name in (*_STAGE_BY_KEY, *STAGE_LABELS)}

ALL_STAGES: tuple[AttackStage, ...] = tuple(AttackStage)


class StageNotSupportedError(ValueError):
    """Raised when a stage transition is requested outside a service's chain."""


@dataclass(frozen=True)
class ServiceSpec:
    """One honeypot service and the exploitation chain it implements.

    ``supported_stages`` need not be contiguous: a chain may skip stages
    (Apache Struts has no user-level exfiltration step) or stop early
    (the Docker API chain ends at user-level exfiltration).
    """

    id: str
    display_name: str
    vulnerable: bool
    supported_stages: tuple[AttackStage, ...]

    def __post_init__(self) -> None:
        stages = tuple(sorted(set(self.supported_stages)))
        object.__setattr__(self, "supported_stages", stages)
        if AttackStage.RECONNAISSANCE not in stages:
            raise ValueError(f"{self.id}: every service must support Reconnaissance")
        if not self.vulnerable and stages != (AttackStage.RECONNAISSANCE,):
            raise ValueError(f"{self.id}: non-vulnerable services support scanning only")
        if self.vulnerable and len(stages) < 2:
            raise ValueError(f"{self.id}: vulnerable services need at least one stage past Reconnaissance")

    @property
    def terminal_stage(self) -> Optional[AttackStage]:
        """Deepest reachable stage; None for non-vulnerable decoys."""
        if not self.vulnerable:
            return None
        return self.supported_stages[-1]


def next_stage(svc: ServiceSpec, current: AttackStage) -> Optional[AttackStage]:
    """Next supported stage after ``current``, or None once the chain is done.

    Raises StageNotSupportedError if ``current`` is not part of the chain.
    """
    if current not in svc.supported_stages:
        raise StageNotSupportedError(f"{svc.id} does not support stage {current.label}")
    for stage in svc.supported_stages:
        if stage > current:
            return stage
    return None


@dataclass(frozen=True)
class AttackGraph:
    """Catalog of services plus the (service, stage) progression edges."""

    services: tuple[ServiceSpec, ...]

    def __post_init__(self) -> None:
        ids = tuple(s.id for s in self.services)
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate service ids in catalog: {list(ids)}")
        # lookups run every epoch, so they read tables built once here: the ids
        # in catalog order and sorted, each service's port, and the name keys. The
        # first service to claim a key keeps it; each id and display name as written
        # maps where its key does, so ``resolve`` finds most names without ``name_key``
        by_key: dict[str, str] = {}
        by_name: dict[str, str] = {}
        for svc in self.services:
            for name in map(str, (svc.id, svc.display_name)):
                by_name[name] = by_key.setdefault(name_key(name), svc.id)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "sorted_ids", tuple(sorted(ids)))
        object.__setattr__(self, "ports", {sid: service_port(sid) for sid in ids})
        object.__setattr__(self, "_by_id", dict(zip(ids, self.services)))
        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.services)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def vulnerable_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.services if s.vulnerable)

    def get(self, service_id: str) -> ServiceSpec:
        try:
            return self._by_id[service_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id, say a list
            raise KeyError(f"unknown service: {service_id}") from None

    def __contains__(self, service_id: str) -> bool:
        try:
            return service_id in self._by_id
        except TypeError:  # an unhashable id, say a list, names no service
            return False

    def resolve(self, name: str) -> Optional[str]:
        """The id of the first service whose id or display name matches ``name`` under ``name_key``."""
        sid = self._by_name.get(name)
        return sid if sid is not None else self._by_key.get(name_key(name))

    @cached_property
    def outline(self) -> str:
        """One line per service: id, display name, whether it is exploitable, and its stages."""
        return "\n".join(
            f"- {svc.id} ({svc.display_name}): {'exploitable' if svc.vulnerable else 'scan-only decoy'}; "
            f"stages: {', '.join(s.label for s in svc.supported_stages)}"
            for svc in self.services
        )


@dataclass(frozen=True)
class HoneynetConfig:
    """A deployed honeynet: catalog plus the per-epoch exposure budget, which fits the catalog."""

    catalog: AttackGraph
    budget: int = 1
    deployment_name: str = "custom"

    def __post_init__(self) -> None:
        self.check_budget(self.budget)
        if self.budget > len(self.catalog):
            raise ValueError(f"budget exceeds catalog: budget={self.budget}, services={len(self.catalog)}")

    @staticmethod
    def check_budget(budget: int) -> None:
        """Refuse a budget below 1, which no catalog fits; the run matrix refuses its budget with it as it is built."""
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")


_BUILTIN_SERVICES = {
    svc.id: svc
    for svc in (
        ServiceSpec("gitlab", "GitLab", True, ALL_STAGES),
        ServiceSpec("xdebug", "Xdebug", True, ALL_STAGES),
        # Struts chain skips user-level exfiltration entirely
        ServiceSpec(
            "apache_struts",
            "Apache Struts",
            True,
            (
                AttackStage.RECONNAISSANCE,
                AttackStage.INITIAL_ACCESS,
                AttackStage.PRIV_ESC,
                AttackStage.ROOT_DATA_EXFIL,
            ),
        ),
        # Docker API chain stops at user-level exfiltration
        ServiceSpec(
            "docker_api",
            "Docker API",
            True,
            (AttackStage.RECONNAISSANCE, AttackStage.INITIAL_ACCESS, AttackStage.USER_DATA_EXFIL),
        ),
    )
}

# each named deployment: its exploitable built-in services, then how many decoys
_DEPLOYMENTS = {
    "fully_vulnerable": (("gitlab", "xdebug", "apache_struts", "docker_api"), 0),
    "small_mixed": (("gitlab", "apache_struts"), 2),
    "large_mixed": (("gitlab", "apache_struts"), 4),
}
DEPLOYMENT_NAMES = tuple(_DEPLOYMENTS)
# the services exploitable in every named deployment, in catalog order: the attackers a run is scored on
COMMON_TARGETS = tuple(
    service for service in _BUILTIN_SERVICES if all(service in exploitable for exploitable, _ in _DEPLOYMENTS.values())
)


def make_decoy(index: int) -> ServiceSpec:
    """The ``index``-th decoy: not vulnerable, so scans reach it and no exploit does."""
    return ServiceSpec(f"decoy_{index}", f"Decoy service {index}", False, (AttackStage.RECONNAISSANCE,))


def deployment_config(name: str, budget: int = 1) -> HoneynetConfig:
    """Build one of the named deployments in ``_DEPLOYMENTS``."""
    try:
        exploitable, decoys = _DEPLOYMENTS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, say a list
        raise ValueError(f"unknown deployment {name!r}; expected one of {DEPLOYMENT_NAMES}") from None
    services = tuple(_BUILTIN_SERVICES[i] for i in exploitable) + tuple(map(make_decoy, range(1, decoys + 1)))
    return HoneynetConfig(catalog=AttackGraph(services), budget=budget, deployment_name=name)


# ---------------------------------------------------------------------------
# Declarative catalog files: a `services:` list of rows, as the README's "Catalog files" shows
# ---------------------------------------------------------------------------


def catalog_from_dict(data) -> AttackGraph:
    """The catalog a catalog file's mapping declares; ConfigError naming the row and key of a fault."""
    rows = read(data, {"services": "list"}, required=("services",))["services"]
    if not rows:
        raise ConfigError("catalog file must define a non-empty 'services' list")
    services = []
    for index, row in enumerate(rows):
        # ids are sorted and hashed into ports and addresses, so a number (YAML's `id: 80`) is no id
        row = read(
            row,
            {"id": "str", "display_name": "str", "vulnerable": "bool", "stages": "list[str]"},
            f"services[{index}]",
            required=("id", "vulnerable", "stages"),
        )
        stages = []
        for at, label in enumerate(row["stages"]):
            try:
                stages.append(AttackStage.from_label(label))
            except ValueError as exc:
                raise ConfigError(f"services[{index}].stages[{at}]: {exc}") from None
        services.append(ServiceSpec(row["id"], row.get("display_name", row["id"]), row["vulnerable"], tuple(stages)))
    return AttackGraph(tuple(services))


def load_yaml(path: str):
    """The file's YAML document; a ConfigError of one line naming the file if it is not YAML or nests too deep."""
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            # PyYAML's own text spans lines: the problem, then where it is
            mark = getattr(exc, "problem_mark", None)
            where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(f"{path} is not YAML: {problem}{where}") from None
        except RecursionError:
            raise ConfigError(f"{path} is nested too deep to read") from None


def load_catalog(path: str) -> AttackGraph:
    return catalog_from_dict(load_yaml(path))
