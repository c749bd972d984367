"""Service catalog, attack stages, and per-service exploitation chains.

Everything downstream (attackers, telemetry, policies, metrics) consumes the
immutable types defined here. A honeynet is a catalog of symbolic services,
each declaring which attack stages an intruder can actually carry out against
it; non-vulnerable decoys support scanning only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import yaml


def name_key(text: str) -> str:
    """Lookup key for a stage or service name: lower case, no separators."""
    return text.replace("_", "").replace(" ", "").replace("-", "").lower()


class AttackStage(IntEnum):
    """Ordered intrusion stages; ordinal gives chain position."""

    RECONNAISSANCE = 0
    INITIAL_ACCESS = 1
    USER_DATA_EXFIL = 2
    PRIV_ESC = 3
    ROOT_DATA_EXFIL = 4

    @property
    def label(self) -> str:
        return _STAGE_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "AttackStage":
        """Parse a stage name, tolerating case and separator variations."""
        try:
            return _STAGE_BY_KEY[name_key(text)]
        except KeyError:
            raise ValueError(f"unknown attack stage: {text!r}") from None


_STAGE_LABELS = {
    AttackStage.RECONNAISSANCE: "Reconnaissance",
    AttackStage.INITIAL_ACCESS: "InitialAccess",
    AttackStage.USER_DATA_EXFIL: "UserDataExfil",
    AttackStage.PRIV_ESC: "PrivEsc",
    AttackStage.ROOT_DATA_EXFIL: "RootDataExfil",
}

_STAGE_BY_KEY = {label.lower(): stage for stage, label in _STAGE_LABELS.items()}
# common aliases seen in alert feeds and model output
_STAGE_BY_KEY.update(
    {
        "recon": AttackStage.RECONNAISSANCE,
        "scan": AttackStage.RECONNAISSANCE,
        "discovery": AttackStage.RECONNAISSANCE,
        "initialaccess": AttackStage.INITIAL_ACCESS,
        "userdataexfiltration": AttackStage.USER_DATA_EXFIL,
        "dataexfil": AttackStage.USER_DATA_EXFIL,
        "privilegeescalation": AttackStage.PRIV_ESC,
        "privesc": AttackStage.PRIV_ESC,
        "rootdataexfiltration": AttackStage.ROOT_DATA_EXFIL,
        "rootexfil": AttackStage.ROOT_DATA_EXFIL,
    }
)

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
        ids = [s.id for s in self.services]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate service ids in catalog: {ids}")

    def __len__(self) -> int:
        return len(self.services)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.services)

    @property
    def vulnerable_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.services if s.vulnerable)

    def get(self, service_id: str) -> ServiceSpec:
        for svc in self.services:
            if svc.id == service_id:
                return svc
        raise KeyError(f"unknown service: {service_id}")

    def __contains__(self, service_id: str) -> bool:
        return any(s.id == service_id for s in self.services)

    def nodes(self) -> list[tuple[str, AttackStage]]:
        return [(svc.id, stage) for svc in self.services for stage in svc.supported_stages]

    def edges(self) -> list[tuple[str, AttackStage, AttackStage]]:
        """Per-service chain edges in ordinal order; acyclic by construction."""
        out = []
        for svc in self.services:
            chain = svc.supported_stages
            for a, b in zip(chain, chain[1:]):
                out.append((svc.id, a, b))
        return out


DEPLOYMENT_NAMES = ("fully_vulnerable", "small_mixed", "large_mixed")


@dataclass(frozen=True)
class HoneynetConfig:
    """A deployed honeynet: catalog plus the per-epoch exposure budget."""

    catalog: AttackGraph
    budget: int = 1
    deployment_name: str = "custom"


def _gitlab() -> ServiceSpec:
    return ServiceSpec("gitlab", "GitLab", True, ALL_STAGES)


def _xdebug() -> ServiceSpec:
    return ServiceSpec("xdebug", "Xdebug", True, ALL_STAGES)


def _apache_struts() -> ServiceSpec:
    # Struts chain skips user-level exfiltration entirely
    return ServiceSpec(
        "apache_struts",
        "Apache Struts",
        True,
        (
            AttackStage.RECONNAISSANCE,
            AttackStage.INITIAL_ACCESS,
            AttackStage.PRIV_ESC,
            AttackStage.ROOT_DATA_EXFIL,
        ),
    )


def _docker_api() -> ServiceSpec:
    # Docker API chain stops at user-level exfiltration
    return ServiceSpec(
        "docker_api",
        "Docker API",
        True,
        (
            AttackStage.RECONNAISSANCE,
            AttackStage.INITIAL_ACCESS,
            AttackStage.USER_DATA_EXFIL,
        ),
    )


def _others_template() -> ServiceSpec:
    return ServiceSpec("others", "Others", False, (AttackStage.RECONNAISSANCE,))


def make_decoy(index: int) -> ServiceSpec:
    """Scan-only decoy instantiated from the non-vulnerable template."""
    return ServiceSpec(f"decoy_{index}", f"Decoy service {index}", False, (AttackStage.RECONNAISSANCE,))


def builtin_catalog() -> AttackGraph:
    """The five-row built-in catalog; pure and identical across calls."""
    return AttackGraph(
        (
            _gitlab(),
            _xdebug(),
            _apache_struts(),
            _docker_api(),
            _others_template(),
        )
    )


def deployment_config(name: str, budget: int = 1) -> HoneynetConfig:
    """Build one of the three named deployments.

    fully_vulnerable: four services, all exploitable.
    small_mixed: two exploitable plus two scan-only decoys.
    large_mixed: two exploitable plus four scan-only decoys.
    """
    if name == "fully_vulnerable":
        services = (_gitlab(), _xdebug(), _apache_struts(), _docker_api())
    elif name == "small_mixed":
        services = (_gitlab(), _apache_struts(), make_decoy(1), make_decoy(2))
    elif name == "large_mixed":
        services = (_gitlab(), _apache_struts()) + tuple(make_decoy(i) for i in range(1, 5))
    else:
        raise ValueError(f"unknown deployment {name!r}; expected one of {DEPLOYMENT_NAMES}")
    return HoneynetConfig(catalog=AttackGraph(services), budget=budget, deployment_name=name)


def validate_deployment(cfg: HoneynetConfig) -> list[str]:
    """Collect invariant violations; an empty list means the config is sound."""
    violations = []
    n = len(cfg.catalog)
    if cfg.budget < 1:
        violations.append(f"budget must be at least 1, got {cfg.budget}")
    elif cfg.budget > n:
        violations.append(f"budget exceeds catalog: budget={cfg.budget}, services={n}")
    if cfg.deployment_name in DEPLOYMENT_NAMES:
        vuln = len(cfg.catalog.vulnerable_ids)
        reference = deployment_config(cfg.deployment_name).catalog
        want_n, want_vuln = len(reference), len(reference.vulnerable_ids)
        if n != want_n:
            violations.append(f"{cfg.deployment_name} requires {want_n} services, got {n}")
        if vuln != want_vuln:
            violations.append(f"vulnerable-count mismatch: {cfg.deployment_name} requires {want_vuln}, got {vuln}")
    return violations


# ---------------------------------------------------------------------------
# Declarative catalog files
#
# services:
#   - id: gitlab
#     display_name: GitLab
#     vulnerable: true
#     stages: [Reconnaissance, InitialAccess, UserDataExfil, PrivEsc, RootDataExfil]
# ---------------------------------------------------------------------------


def catalog_to_dict(graph: AttackGraph) -> dict:
    return {
        "services": [
            {
                "id": svc.id,
                "display_name": svc.display_name,
                "vulnerable": svc.vulnerable,
                "stages": [s.label for s in svc.supported_stages],
            }
            for svc in graph.services
        ]
    }


def catalog_from_dict(data: dict) -> AttackGraph:
    rows = data.get("services")
    if not rows:
        raise ValueError("catalog file must define a non-empty 'services' list")
    services = []
    for row in rows:
        services.append(
            ServiceSpec(
                id=row["id"],
                display_name=row.get("display_name", row["id"]),
                vulnerable=bool(row["vulnerable"]),
                supported_stages=tuple(AttackStage.from_label(s) for s in row["stages"]),
            )
        )
    return AttackGraph(tuple(services))


def save_catalog(graph: AttackGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(catalog_to_dict(graph), fh, sort_keys=False)


def load_catalog(path: str) -> AttackGraph:
    with open(path, encoding="utf-8") as fh:
        return catalog_from_dict(yaml.safe_load(fh))
