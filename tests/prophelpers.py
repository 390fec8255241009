"""Seeded builders shared by the fault property / differential suites.

Everything here is deterministic from an integer seed via stdlib
``random.Random`` -- no third-party property-testing library and no
global random state -- so any failing case reproduces exactly from
the seed baked into the pytest parametrisation.
"""

from __future__ import annotations

import random

from repro.core import (
    AdaptiveScheduler,
    Dispatcher,
    EWTScheduler,
    GlobalScheduler,
    Job,
    JobPerfProfile,
    LJFScheduler,
    OraclePredictor,
)
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.harness.config import full_system
from repro.memories import MemoryKind

SCHEDULERS = ("ljf", "adaptive", "global", "ewt")
#: The schedulers that keep a per-job plan table (``_plans``) and
#: re-place lost work through it.
PLAN_TABLE_SCHEDULERS = ("adaptive", "ewt", "global")

_CLASSES = {
    "ljf": LJFScheduler,
    "adaptive": AdaptiveScheduler,
    "global": GlobalScheduler,
    "ewt": EWTScheduler,
}


def make_jobs(seed: int, count: int = 18) -> list[Job]:
    """A seeded batch whose jobs can run on every device of the full
    three-layer system (so migration off a failed device is always
    possible)."""
    rng = random.Random(seed)
    system = full_system()
    jobs = []
    for i in range(count):
        base = 1e-5 * (1.0 + 5.0 * rng.random())
        profiles = {
            kind: JobPerfProfile(
                unit_arrays=rng.randint(2, 8),
                t_load=0.0,
                t_replica_unit=base * 0.01,
                t_compute_unit=base * rng.uniform(0.6, 1.6),
                waves_unit=16,
                fill_bytes=float(rng.randint(1, 64)) * 1024.0,
                compute_energy_j=1e-9,
            )
            for kind in system.kinds
        }
        jobs.append(Job(job_id=f"p{seed}-{i}", kernel="prop", profiles=profiles))
    return jobs


def run_batch(scheduler: str, jobs, faults=None, label: str = ""):
    """Schedule and dispatch one batch, optionally under a fault plan."""
    system = full_system()
    policy = _CLASSES[scheduler](OraclePredictor()).plan(list(jobs), system)
    return Dispatcher(system).run(
        policy, label=label or scheduler, faults=faults
    )


def random_plan(seed: int, horizon_s: float, **kwargs) -> FaultPlan:
    """Seeded random fault plan against the full system's devices."""
    return FaultPlan.random(seed, full_system().kinds, horizon_s, **kwargs)


def device_loss_plan(
    device: MemoryKind = MemoryKind.RERAM, time: float = 0.0005
) -> FaultPlan:
    """One permanent device loss at ``time``.  Against
    :func:`serve_overloaded` at the defaults it lands after hundreds of
    completions, while the policy holds queued and in-flight jobs."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind=FaultKind.FAIL, device=device, time=time, reason="device lost"
            ),
        ),
        seed=3,
    )


def trace_key(result) -> list[tuple]:
    """Canonical comparison form of a run's phase timeline."""
    return [
        (r.job_id, r.device, r.phase.value, r.start, r.end, r.arrays)
        for r in result.trace.records
    ]


def counter(result, name: str) -> float:
    """A runtime counter's value, 0.0 when never incremented."""
    if result.metrics is None:
        return 0.0
    return result.metrics.counter(name).value


def serve_overloaded(
    scheduler: str,
    admission=None,
    seed: int = 20,
    rate: float = 2e6,
    horizon: float = 0.002,
    slo_s: float = 100e-6,
    **kwargs,
):
    """An overloaded serve run on the gnn system: ~2x the pool's drain
    rate, so backpressure (and any admission gate) is guaranteed to
    engage.  Shared by the admission determinism / attainment tests."""
    from repro.harness.config import gnn_system
    from repro.serving import PoissonArrivals, ServingRuntime, Tenant

    runtime = ServingRuntime(
        gnn_system(),
        scheduler=scheduler,
        max_backlog=kwargs.pop("max_backlog", 16),
    )
    names = ("interactive", "batch", "besteffort")
    tenants = kwargs.pop(
        "tenants",
        [
            Tenant("interactive", weight=4.0, queue_limit=32),
            Tenant("batch", weight=2.0, queue_limit=32),
            Tenant("besteffort", weight=1.0, queue_limit=8),
        ],
    )
    return runtime.serve(
        PoissonArrivals(
            rate=rate, horizon=horizon, seed=seed, tenants=names
        ),
        tenants=tenants,
        slo_s=slo_s,
        admission=admission,
        **kwargs,
    )
