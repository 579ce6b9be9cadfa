"""Tenant specifications: who shares the cluster, and on what terms.

A :class:`TenantSpec` names one application packed onto the shared
cluster: the workload it offers (a :func:`repro.serve.loadgen.
parse_profile` spec, so b2w/wikipedia replays, Poisson floors and flash
crowds all compose), the SLOs it bought (latency threshold + objective,
plus a tolerable shed fraction), its priority weight, and an optional
admission quota.  A :class:`TenantRegistry` is the ordered set of
tenants one serving process hosts, loadable from a JSON spec file
(``repro serve --tenants spec.json``).

Quota semantics are weighted-fair: a tenant may pin an explicit
``quota_rps`` (token-bucket refill rate), or the registry may declare a
fleet-wide ``aggregate_quota_rps`` that is split across quota-less
tenants in proportion to their weights — WiSeDB's per-class SLA budget
expressed as admission capacity.  Tenants with neither are unthrottled.

The degenerate single-tenant registry (:meth:`TenantRegistry.default`)
is the compatibility anchor: one unthrottled, weight-1 tenant must make
the serve path behave **bit-identically** to the untagged code, which
the tenancy tests pin with list equality on sampled latencies.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.params import PAPER_SLA_MS
from repro.errors import ConfigurationError

#: Name of the implicit tenant used when tenancy is not configured.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantSpec:
    """One application sharing the cluster.

    Attributes:
        name: Unique tenant name (labels metrics, SLO monitors and
            conservation lines; keep it short and label-safe).
        profile: Workload spec in the loadgen grammar, e.g.
            ``poisson:rate=40``, ``trace:kind=b2w,rate=120``,
            ``trace:kind=wikipedia,lang=de,rate=25`` or
            ``spike:rate=30,at=1200,magnitude=4``.
        weight: Priority weight; higher weights are shed *later* during
            brownout and carry proportionally more violation cost in the
            planner's decision audit.
        quota_rps: Token-bucket refill rate (requests/second) for this
            tenant's admission quota; ``None`` means unthrottled unless
            the registry declares an aggregate quota.
        quota_burst: Bucket capacity in requests; defaults to two
            seconds of refill.
        latency_slo_ms: Per-tenant latency SLO threshold.
        slo_objective: Per-tenant good-fraction objective.
        shed_slo: Tolerable shed fraction (used by the consolidation
            experiment's attainment scoring; admission does not read it).
        arrival_seed: Optional explicit seed for this tenant's arrival
            schedule; defaults to the session seed plus the tenant's
            registry index.
    """

    name: str
    profile: str
    weight: int = 1
    quota_rps: Optional[float] = None
    quota_burst: Optional[float] = None
    latency_slo_ms: float = PAPER_SLA_MS
    slo_objective: float = 0.999
    shed_slo: float = 0.05
    arrival_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if any(ch in self.name for ch in '{}",\n'):
            raise ConfigurationError(
                f"tenant name {self.name!r} contains label-unsafe characters"
            )
        if not self.profile:
            raise ConfigurationError(f"tenant {self.name!r} needs a profile")
        if self.weight < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: weight must be >= 1"
            )
        if self.quota_rps is not None and self.quota_rps <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: quota_rps must be positive"
            )
        if self.quota_burst is not None and self.quota_burst < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: quota_burst must be >= 1"
            )
        if self.latency_slo_ms <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: latency_slo_ms must be positive"
            )
        if not 0.0 < self.slo_objective < 1.0:
            raise ConfigurationError(
                f"tenant {self.name!r}: slo_objective must be in (0, 1)"
            )
        if not 0.0 <= self.shed_slo <= 1.0:
            raise ConfigurationError(
                f"tenant {self.name!r}: shed_slo must be in [0, 1]"
            )

    @property
    def effective_burst(self) -> Optional[float]:
        """Bucket capacity: explicit burst, or two seconds of refill."""
        if self.quota_rps is None:
            return self.quota_burst
        if self.quota_burst is not None:
            return self.quota_burst
        return max(1.0, 2.0 * self.quota_rps)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class TenantRegistry:
    """The ordered tenant set one serving process hosts.

    Attributes:
        tenants: Tenant specs, in spec-file order (the order arrival
            ties break in, so it is part of the deterministic contract).
        aggregate_quota_rps: Optional fleet-wide admission budget split
            weighted-fair across tenants without an explicit quota.
    """

    tenants: List[TenantSpec] = field(default_factory=list)
    aggregate_quota_rps: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("a tenant registry needs >= 1 tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        if self.aggregate_quota_rps is not None and self.aggregate_quota_rps <= 0:
            raise ConfigurationError("aggregate_quota_rps must be positive")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tenants)

    def __iter__(self):
        return iter(self.tenants)

    def names(self) -> List[str]:
        return [t.name for t in self.tenants]

    def get(self, name: str) -> TenantSpec:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise ConfigurationError(
            f"unknown tenant {name!r}; registry has {self.names()}"
        )

    @property
    def max_weight(self) -> int:
        return max(t.weight for t in self.tenants)

    def quota_for(self, name: str) -> Optional[float]:
        """Effective token-bucket refill rate for ``name``.

        An explicit ``quota_rps`` wins; otherwise the aggregate quota
        (if any) is split weighted-fair across the tenants that did not
        pin their own.
        """
        tenant = self.get(name)
        if tenant.quota_rps is not None:
            return tenant.quota_rps
        if self.aggregate_quota_rps is None:
            return None
        unpinned = [t for t in self.tenants if t.quota_rps is None]
        total_weight = sum(t.weight for t in unpinned)
        explicit = sum(t.quota_rps for t in self.tenants if t.quota_rps is not None)
        pool = max(0.0, self.aggregate_quota_rps - explicit)
        if pool <= 0.0:
            return 0.0
        return pool * tenant.weight / total_weight

    # ------------------------------------------------------------------
    @classmethod
    def default(cls, profile: str = "poisson:rate=100") -> "TenantRegistry":
        """The single implicit tenant of an untenanted session."""
        return cls(tenants=[TenantSpec(name=DEFAULT_TENANT, profile=profile)])

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantRegistry":
        if not isinstance(data, dict) or "tenants" not in data:
            raise ConfigurationError(
                'tenant spec must be an object with a "tenants" list'
            )
        raw_tenants = data["tenants"]
        if not isinstance(raw_tenants, list):
            raise ConfigurationError('"tenants" must be a list')
        known = {f for f in TenantSpec.__dataclass_fields__}
        tenants = []
        for index, raw in enumerate(raw_tenants):
            if not isinstance(raw, dict):
                raise ConfigurationError(f"tenant #{index} must be an object")
            unknown = set(raw) - known
            if unknown:
                raise ConfigurationError(
                    f"tenant #{index}: unknown field(s) "
                    f"{', '.join(sorted(unknown))}; known: "
                    f"{', '.join(sorted(known))}"
                )
            tenants.append(TenantSpec(**raw))
        extras = set(data) - {"tenants", "aggregate_quota_rps"}
        if extras:
            raise ConfigurationError(
                f"unknown spec field(s): {', '.join(sorted(extras))}"
            )
        aggregate = data.get("aggregate_quota_rps")
        return cls(
            tenants=tenants,
            aggregate_quota_rps=(
                float(aggregate) if aggregate is not None else None
            ),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TenantRegistry":
        """Read a JSON tenant spec file (see docs/SERVING.md)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"tenant spec not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"tenant spec {path} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"tenants": [t.as_dict() for t in self.tenants]}
        if self.aggregate_quota_rps is not None:
            out["aggregate_quota_rps"] = self.aggregate_quota_rps
        return out

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8"
        )


def build_registry(specs: Sequence[TenantSpec]) -> TenantRegistry:
    """Convenience constructor used by tests and experiments."""
    return TenantRegistry(tenants=list(specs))
