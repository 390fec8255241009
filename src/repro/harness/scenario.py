"""Scenario: the one description of an open-system serving run.

MLIMP's runtime (Fig. 6) has one job path -- the predictor-fed
scheduler sizes arrivals and places them onto per-memory queues -- and
the ``serve``, ``cluster`` and ``replay`` entry points all drive it the
same way: seeded Poisson arrivals from weighted tenants, a scheduler,
an admission gate, and either one node or a placed fleet of them.  A
:class:`Scenario` holds those twelve knobs, validates them once, and
builds the run::

    scenario = Scenario(rate=2e3, tenants=2, seed=5)
    served = scenario.run(scenario.poisson(0.02), "serve")
    print(served.report)

``nodes == 0`` serves on one node through
:class:`~repro.serving.runtime.ServingRuntime`; ``nodes >= 1`` places
the stream over a cluster through
:class:`~repro.cluster.runtime.ClusterRuntime`.
:class:`~repro.harness.replay.ReplayConfig` is a scenario plus its
window and autoscaling fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.placement import PLACEMENTS, PlacementPolicy
from ..cluster.runtime import ClusterResult, ClusterRuntime
from ..cluster.spec import ClusterSpec, NodeFault
from ..core.predictor import PerformancePredictor
from ..core.runtime import SCHEDULERS
from ..core.scheduler.base import MLIMPSystem
from ..faults.plan import FaultPlan
from ..serving import PoissonArrivals, ServingResult, ServingRuntime, Tenant
from ..serving.arrivals import ArrivalProcess
from .config import full_system, gnn_system

__all__ = ["ADMISSIONS", "SYSTEMS", "Scenario", "ScenarioError"]

#: Device sets a scenario can name: the full Table III system or the
#: scaled GNN system.
SYSTEMS = ("full", "gnn")
#: Arrival-time admission modes (see ``ServingRuntime.serve``).
ADMISSIONS = ("shed", "predictive")


class ScenarioError(ValueError):
    """A scenario field out of range; ``field`` names it."""

    def __init__(self, field: str, rule: str) -> None:
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


def _one_of(names) -> str:
    return "must be one of " + ", ".join(names)


@dataclass(frozen=True)
class Scenario:
    """One serving run's complete, JSON-round-trippable description.

    The defaults are the ``serve`` command's.
    """

    seed: int = 0
    rate: float = 50.0
    tenants: int = 3
    slo_s: float = 0.010
    scheduler: str = "adaptive"
    system: str = "full"
    queue_limit: int = 64
    max_backlog: int = 32
    admission: str = "shed"
    admission_margin: float = 1.0
    #: 0 = single-node serving; N > 0 = an N-node cluster.
    nodes: int = 0
    placement: str = "least-loaded"

    def __post_init__(self) -> None:
        checks = (
            ("rate", self.rate >= 0, "must be non-negative"),
            ("tenants", self.tenants >= 1, "must be at least 1"),
            ("slo_s", self.slo_s > 0, "must be positive"),
            ("scheduler", self.scheduler in SCHEDULERS, _one_of(SCHEDULERS)),
            ("system", self.system in SYSTEMS, _one_of(SYSTEMS)),
            ("queue_limit", self.queue_limit >= 1, "must be at least 1"),
            ("max_backlog", self.max_backlog >= 1, "must be at least 1"),
            ("admission", self.admission in ADMISSIONS, _one_of(ADMISSIONS)),
            ("admission_margin", self.admission_margin > 0, "must be positive"),
            ("nodes", self.nodes >= 0, "must be >= 0 (0 = single node)"),
            ("placement", self.placement in PLACEMENTS, _one_of(PLACEMENTS)),
        )
        for field, ok, rule in checks:
            if not ok:
                raise ScenarioError(field, rule)

    def base_system(self) -> MLIMPSystem:
        """The scale-1 device set of one node."""
        return gnn_system() if self.system == "gnn" else full_system()

    def tenant_list(
        self, names: tuple[str, ...] | None = None
    ) -> list[Tenant]:
        """``tenant-0 .. tenant-{n-1}`` (or ``names``), weighted n .. 1.

        Earlier tenants get higher weights: a deliberate asymmetry so
        the weighted-fair release is visible in the report.
        """
        if names is None:
            names = tuple(f"tenant-{i}" for i in range(self.tenants))
        return [
            Tenant(
                name,
                weight=float(len(names) - i),
                queue_limit=self.queue_limit,
            )
            for i, name in enumerate(names)
        ]

    def poisson(
        self, horizon_s: float, seed: int | None = None
    ) -> PoissonArrivals:
        """Seeded Poisson arrivals over the scenario's tenants."""
        return PoissonArrivals(
            rate=self.rate,
            horizon=horizon_s,
            seed=self.seed if seed is None else seed,
            tenants=tuple(t.name for t in self.tenant_list()),
        )

    def run(
        self,
        arrivals: ArrivalProcess,
        tag: str,
        *,
        system: MLIMPSystem | None = None,
        tenants: list[Tenant] | None = None,
        faults: FaultPlan | None = None,
        predictor: PerformancePredictor | None = None,
        cluster: ClusterSpec | None = None,
        placement: PlacementPolicy | None = None,
        node_faults: tuple[NodeFault, ...] = (),
        shards: int | None = None,
    ) -> ServingResult | ClusterResult:
        """Serve ``arrivals`` to drain, labelled ``<scheduler>/<tag>``.

        ``system`` replaces :meth:`base_system` (a scaled pool, say) and
        ``tenants`` replaces :meth:`tenant_list`.  ``predictor`` feeds a
        single node.  A cluster run stamps ``system`` onto ``nodes``
        homogeneous nodes unless ``cluster`` gives the fleet, and a
        ``placement`` instance (one that learns across runs) overrides
        the named policy.
        """
        if system is None:
            system = self.base_system()
        common = dict(
            tenants=self.tenant_list() if tenants is None else tenants,
            slo_s=self.slo_s,
            faults=faults,
            label=f"{self.scheduler}/{tag}",
            admission=self.admission,
            admission_margin=self.admission_margin,
        )
        if self.nodes == 0:
            return ServingRuntime(
                system,
                scheduler=self.scheduler,
                max_backlog=self.max_backlog,
                predictor=predictor,
            ).serve(arrivals, **common)
        return ClusterRuntime(
            ClusterSpec.homogeneous(self.nodes, system=system)
            if cluster is None
            else cluster,
            scheduler=self.scheduler,
            placement=self.placement if placement is None else placement,
            max_backlog=self.max_backlog,
        ).serve(arrivals, node_faults=node_faults, shards=shards, **common)
