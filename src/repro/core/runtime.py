"""MLIMPRuntime: the system-software facade of Figure 6.

The paper's runtime flow: a call to a function marked for in-memory
processing generates MLIMP jobs; the scheduler (fed by the performance
predictor) sizes and places them; per-memory queues drain onto the
devices.  :class:`MLIMPRuntime` packages that flow behind a small API:

    runtime = MLIMPRuntime(gnn_system())
    runtime.submit(make_spmm_job(...))
    runtime.submit_many(batch_jobs(...))
    result = runtime.run()          # schedule + simulate the queue

Swap the scheduler (``"ljf" | "adaptive" | "global" | "ewt"``) or inject a
trained :class:`~repro.core.predictor.MLPPredictor` without touching
the call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.plan import FaultPlan
from ..sim.mainmem import DDR4Config
from .dispatcher import Dispatcher, DispatchError, DispatchResult
from .job import Job
from .predictor import OraclePredictor, PerformancePredictor
from .scheduler import (
    AdaptiveScheduler,
    EWTScheduler,
    GlobalScheduler,
    LJFScheduler,
    MLIMPSystem,
    Scheduler,
    oracle_makespan,
)

__all__ = ["MLIMPRuntime", "SCHEDULERS", "make_scheduler"]

#: Scheduler registry: the one list of names every runtime and CLI
#: ``--scheduler`` flag accepts.
SCHEDULERS: dict[str, type[Scheduler]] = {
    "ljf": LJFScheduler,
    "adaptive": AdaptiveScheduler,
    "global": GlobalScheduler,
    "ewt": EWTScheduler,
}


def make_scheduler(
    scheduler: str | Scheduler,
    predictor: PerformancePredictor | None = None,
) -> Scheduler:
    """A registered scheduler fed by ``predictor`` (oracle by default);
    a ready-made :class:`Scheduler` is returned as-is."""
    if isinstance(scheduler, Scheduler):
        return scheduler
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; "
            f"choose from {sorted(SCHEDULERS)} or pass a Scheduler"
        )
    return SCHEDULERS[scheduler](predictor or OraclePredictor())


@dataclass
class MLIMPRuntime:
    """Job queue + scheduler + dispatcher for one MLIMP system."""

    system: MLIMPSystem
    scheduler: str | Scheduler = "global"
    predictor: PerformancePredictor | None = None
    ddr4: DDR4Config | None = None
    _queue: list[Job] = field(default_factory=list, repr=False)
    _history: list[DispatchResult] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        make_scheduler(self.scheduler)  # fail fast on an unknown name

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue one job (a marked in-memory function call)."""
        self._queue.append(job)

    def submit_many(self, jobs) -> None:
        for job in jobs:
            self.submit(job)

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def history(self) -> list[DispatchResult]:
        """Results of every completed :meth:`run`."""
        return list(self._history)

    # ------------------------------------------------------------------
    def plan_preview(self) -> dict[str, tuple[str, int]]:
        """Dry-run the scheduler: job id -> (memory, arrays).

        The policy is drained against a fully-free view; whenever it
        runs out of immediately-dispatchable work, the dry-run feeds
        the already-"dispatched" jobs back as completions, so
        completion-driven policies (adaptive backfill, custom
        schedulers that release work one completion at a time) unwind
        fully instead of stalling.  A policy that makes no progress
        even with every completion delivered raises
        :class:`~repro.core.dispatcher.DispatchError` -- a partial
        preview is never silently returned.
        """
        scheduler = make_scheduler(self.scheduler, self.predictor)
        policy = scheduler.plan(list(self._queue), self.system)
        from .scheduler.base import ResourceView

        def view() -> ResourceView:
            return ResourceView(
                now=float("inf"),  # time-driven plans release everything
                free_slots={k: 10**9 for k in self.system.kinds},
                free_arrays={k: self.system.arrays(k) for k in self.system.kinds},
                largest_free_run={
                    k: self.system.arrays(k) for k in self.system.kinds
                },
            )

        preview: dict[str, tuple[str, int]] = {}
        in_flight: list[tuple[Job, object]] = []
        guard = 0
        while policy.pending():
            guard += 1
            if guard > 10_000:
                raise DispatchError(
                    f"plan preview did not converge after {guard - 1} rounds; "
                    f"{policy.pending()} jobs still pending"
                )
            dispatches = policy.next_dispatches(view())
            if dispatches:
                for dispatch in dispatches:
                    preview[dispatch.job.job_id] = (
                        dispatch.kind.value,
                        dispatch.arrays,
                    )
                    in_flight.append((dispatch.job, dispatch.kind))
                continue
            if not in_flight:
                raise DispatchError(
                    f"plan preview stalled with {policy.pending()} jobs "
                    "pending and no in-flight work left to complete"
                )
            for job, kind in in_flight:
                policy.notify_completion(job, kind, float("inf"))
            in_flight = []
        return preview

    def oracle_bound(self) -> float:
        """Fluid lower bound for the current queue."""
        if not self._queue:
            return 0.0
        return oracle_makespan(list(self._queue), self.system)

    def run(
        self,
        label: str = "",
        faults: FaultPlan | None = None,
        fault_baseline: bool = False,
    ) -> DispatchResult:
        """Schedule and execute the queued jobs; clears the queue.

        ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` into
        the run (device stalls, derating, wear-out, permanent failure)
        with graceful degradation; ``fault_baseline`` additionally runs
        the same batch fault-free first and stores its makespan on
        ``result.fault_free_makespan`` so the report can quantify the
        degradation.
        """
        scheduler = make_scheduler(self.scheduler, self.predictor)
        jobs, self._queue = self._queue, []
        fault_free_makespan = None
        if fault_baseline and faults is not None and len(faults) > 0:
            baseline = Dispatcher(self.system, self.ddr4).run(
                scheduler.plan(list(jobs), self.system),
                label=(label or scheduler.name) + ":fault-free",
            )
            fault_free_makespan = baseline.makespan
        policy = scheduler.plan(jobs, self.system)
        # The completion hook feeds only the main run -- the fault-free
        # baseline above would otherwise train the predictor twice on
        # the same batch.
        result = Dispatcher(self.system, self.ddr4).run(
            policy,
            label=label or scheduler.name,
            faults=faults,
            predictor=self.predictor,
        )
        if fault_free_makespan is not None:
            result.fault_free_makespan = fault_free_makespan
        self._history.append(result)
        return result
