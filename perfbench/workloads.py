"""The four benchmark workloads, each driven through public entry points.

Every workload is built once from its seed (``__init__``, the set-up
that ``setup_s`` times) and then runs *passes*: ``run_pass(size)``
simulates the workload at ``size`` times its base horizon (1 = H,
2 = 2H) and returns one pass record.  Only the public call is inside
the timed region; conservation checks, sojourn statistics and the
output digest are computed after the clock stops.

Time bases: ``wall_s`` is host time (the simulator running); every
``*_s`` field derived from the simulation (sojourns, makespan) is sim
time (the modelled MLIMP system).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import time

#: Base horizons and shapes.  Sized so one pass pair (H then 2H) takes
#: a few host seconds on a 2-core machine at the commit that defined the
#: benchmark; see README.md for the measured figures.
SERVE_RATE = 2e6
SERVE_HORIZON_S = 1e-3
CLUSTER_RATE = 4e6
CLUSTER_HORIZON_S = 1e-3
CLUSTER_SCALES = {"node-0": 1.0, "node-1": 1.0, "node-2": 1.0, "node-3": 0.5}
CLUSTER_SHARDS = 2
REPLAY_WINDOWS = 3
REPLAY_WINDOW_S = 0.25e-3
SLO_S = 100e-6
QUEUE_LIMIT = 32
MAX_BACKLOG = 16
TENANTS = ("tenant-0", "tenant-1", "tenant-2")
CLOSED_DATASET = "citation"


def nearest_rank(sorted_values, quantile):
    """Nearest-rank quantile, the definition the serving reports use."""
    index = max(0, math.ceil(quantile * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tenants():
    from repro.serving import Tenant

    # The serve CLI's weight asymmetry: tenant-0 weighs most.
    return [
        Tenant(name, weight=float(len(TENANTS) - i), queue_limit=QUEUE_LIMIT)
        for i, name in enumerate(TENANTS)
    ]


def _fresh_process_state() -> None:
    """Start every pass as a fresh CLI invocation would: empty perf
    caches, zeroed runtime counters, no garbage left by the last pass."""
    from repro.core import perfmodel
    from repro.isa import timing
    from repro.obs.metrics import reset_runtime_counters

    gc.collect()
    perfmodel.clear_caches()
    timing.clear_cache()
    reset_runtime_counters()


def _runtime_snapshot() -> dict:
    from repro.obs.metrics import runtime_snapshot

    snap = runtime_snapshot()
    return {"caches": snap["caches"], "counters": snap["counters"]}


def _sojourn_stats(sojourns, slo_s):
    values = sorted(sojourns)
    met = sum(1 for v in values if v <= slo_s) if slo_s is not None else None
    return {
        "n_sojourn": len(values),
        "p50_s": nearest_rank(values, 0.50) if values else 0.0,
        "p99_s": nearest_rank(values, 0.99) if values else 0.0,
        "met_slo": met,
    }


def _metric_samples(registry) -> tuple[int, int]:
    """(histogram samples, gauge samples) a run's registry retains."""
    if registry is None:
        return 0, 0
    hist = sum(len(h.values) for h in registry.histograms.values())
    gauge = sum(len(g.samples) for g in registry.gauges.values())
    return hist, gauge


def _check_tenant_quantiles(errors, report, sojourn_by_tenant):
    """The report's per-tenant p50/p99 must equal the nearest-rank
    quantiles of the sojourns recomputed here from per-job data."""
    for name, tenant in report.tenants.items():
        values = sorted(sojourn_by_tenant.get(name, []))
        if len(values) != tenant.completed:
            errors.append(
                f"{name}: {len(values)} completed jobs seen, report says "
                f"{tenant.completed}"
            )
            continue
        if not values:
            continue
        for q, reported in ((0.50, tenant.sojourn_p50_s), (0.99, tenant.sojourn_p99_s)):
            ours = nearest_rank(values, q)
            if not math.isclose(ours, reported, rel_tol=1e-9, abs_tol=1e-15):
                errors.append(f"{name}: p{q:g} {ours!r} != report {reported!r}")


def _serving_record(report, result, open_loop, errors):
    """Per-job sojourns of one ServingRuntime run, checked against its
    report; returns (sojourns by tenant, record rows for the digest)."""
    by_tenant: dict[str, list[float]] = {}
    rows = []
    for job_id, record in sorted(result.records.items()):
        arrived = open_loop.arrival_times.get(job_id)
        if arrived is None:
            errors.append(f"completed job {job_id} has no arrival record")
            continue
        tenant = open_loop.job_tenants[job_id]
        by_tenant.setdefault(tenant, []).append(record.finished_at - arrived)
        rows.append([job_id, record.finished_at, record.kind.value, record.arrays])
    _check_tenant_quantiles(errors, report, by_tenant)
    return by_tenant, rows


class Clock:
    """Host seconds since the timed region started."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.wall = 0.0

    def lap(self) -> float:
        return time.perf_counter() - self.start


class Workload:
    """Base: subclasses set ``name`` and implement ``_pass``."""

    name = ""

    def __init__(self, seed: int, in_process: bool = False) -> None:
        self.seed = seed
        #: Run node simulations in this process (the traced run).
        self.in_process = in_process
        #: A layers.Tracer to install around the timed region, or None.
        self.tracer = None

    @contextlib.contextmanager
    def timed(self):
        """The timed region; spans are recorded only inside it."""
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.install()
        clock = Clock()
        try:
            yield clock
        finally:
            clock.wall = clock.lap()
            if self.tracer is not None:
                self.tracer.uninstall()

    def run_pass(self, size: int) -> dict:
        _fresh_process_state()
        record = self._pass(size)
        record["size"] = size
        record.update(_runtime_snapshot())
        completed_side = record["completed"] + record["shed"] + record["failed"]
        if record["offered"] != completed_side:
            record["errors"].append(
                f"conservation: offered {record['offered']} != completed "
                f"{record['completed']} + shed {record['shed']} + failed "
                f"{record['failed']}"
            )
        if record["completed"] < 1:
            record["errors"].append("no job completed")
        return record

    def _pass(self, size: int) -> dict:  # pragma: no cover - interface
        raise NotImplementedError


class ServeAdaptive(Workload):
    """One gnn node, adaptive scheduler, shed-only admission, ~2x drain."""

    name = "serve-adaptive"

    def __init__(self, seed: int, in_process: bool = False) -> None:
        super().__init__(seed, in_process)
        from repro.harness.config import gnn_system
        from repro.serving import ServingRuntime

        self.tenants = _tenants()
        self.runtime = ServingRuntime(
            gnn_system(), scheduler="adaptive", max_backlog=MAX_BACKLOG
        )

    def _pass(self, size: int) -> dict:
        from repro.serving import PoissonArrivals
        from repro.serving.workload import OpenWorkload

        arrivals = PoissonArrivals(
            rate=SERVE_RATE,
            horizon=SERVE_HORIZON_S * size,
            seed=self.seed,
            tenants=TENANTS,
        )
        with self.timed() as clock:
            serving = self.runtime.serve(arrivals, tenants=self.tenants, slo_s=SLO_S)
        wall = clock.wall

        errors: list[str] = []
        offered = len(arrivals.generate(OpenWorkload(self.runtime.system).make_job))
        report = serving.report
        if report.offered != offered:
            errors.append(f"report offered {report.offered} != timeline {offered}")
        by_tenant, rows = _serving_record(report, serving.result, serving.open_loop, errors)
        hist, gauge = _metric_samples(serving.result.metrics)
        return {
            "wall_s": wall,
            "offered": offered,
            "completed": report.completed,
            "shed": report.shed,
            "failed": len(serving.result.failed_jobs),
            "lost": 0,
            "makespan_s": serving.result.makespan,
            **_sojourn_stats([v for vs in by_tenant.values() for v in vs], SLO_S),
            "hist_samples": hist,
            "gauge_samples": gauge,
            "public": {
                "shed_queue_full": sum(t.shed_queue_full for t in report.tenants.values()),
                "slo_attainment_completed": report.slo_attainment,
                "launches": serving.result.metrics.counter("jobs.dispatched").value,
            },
            "digest": digest([report.as_dict(), rows]),
            "errors": errors,
        }


class ClusterLJFContended(Workload):
    """4 gnn nodes (one at half scale), shared links, least-loaded, LJF."""

    name = "cluster-ljf-contended"

    def __init__(self, seed: int, in_process: bool = False) -> None:
        super().__init__(seed, in_process)
        from repro.cluster import ClusterRuntime, ClusterSpec, InterconnectSpec
        from repro.harness.config import gnn_system

        self.tenants = _tenants()
        spec = ClusterSpec.heterogeneous(
            CLUSTER_SCALES,
            system=gnn_system(),
            interconnect=InterconnectSpec(contention="shared"),
        )
        self.runtime = ClusterRuntime(
            spec,
            scheduler="ljf",
            placement="least-loaded",
            max_backlog=MAX_BACKLOG,
        )

    def _pass(self, size: int) -> dict:
        from repro.serving import PoissonArrivals
        from repro.serving.workload import OpenWorkload

        arrivals = PoissonArrivals(
            rate=CLUSTER_RATE,
            horizon=CLUSTER_HORIZON_S * size,
            seed=self.seed,
            tenants=TENANTS,
        )
        shards = 1 if self.in_process else CLUSTER_SHARDS
        with self.timed() as clock:
            result = self.runtime.serve(
                arrivals, tenants=self.tenants, slo_s=SLO_S, shards=shards
            )
        wall = clock.wall

        errors: list[str] = []
        spec = self.runtime.cluster
        timeline = arrivals.generate(OpenWorkload(spec.nodes[0].system).make_job)
        offered = len(timeline)
        report = result.report
        if report.offered != offered:
            errors.append(f"report offered {report.offered} != timeline {offered}")
        arrival = {a.job.job_id: (a.time, a.tenant) for a in timeline}
        finished: dict[str, float] = {}
        hist = gauge = launches = 0
        failed = 0
        for name in spec.names:
            payload = result.node_payloads[name]
            for row in payload["trace"]:
                end = row["end"]
                if end > finished.get(row["job_id"], -1.0):
                    finished[row["job_id"]] = end
            metrics = payload["metrics"] or {}
            hist += sum(h["count"] for h in metrics.get("histograms", {}).values())
            gauge += sum(g["samples"] for g in metrics.get("gauges", {}).values())
            launches += metrics.get("counters", {}).get("jobs.dispatched", 0)
            failed += len(payload["failed_jobs"])
        by_tenant: dict[str, list[float]] = {}
        for job_id, end in finished.items():
            arrived, tenant = arrival[job_id]
            by_tenant.setdefault(tenant, []).append(end - arrived)
        _check_tenant_quantiles(errors, report, by_tenant)
        stats = result.stats
        queued = sorted(d for d in stats.queue_delays if d > 0)
        placed = sum(stats.placed.values())
        return {
            "wall_s": wall,
            "offered": offered,
            "completed": report.completed,
            # Jobs lost for want of a live node are already inside the
            # merged report's shed_unplaced (and so inside shed).
            "shed": report.shed,
            "failed": failed,
            "lost": stats.total_lost,
            "makespan_s": report.makespan,
            **_sojourn_stats([v for vs in by_tenant.values() for v in vs], SLO_S),
            "hist_samples": hist,
            "gauge_samples": gauge,
            "public": {
                "shed_queue_full": sum(t.shed_queue_full for t in report.tenants.values()),
                "slo_attainment_completed": report.slo_attainment,
                "launches": launches,
                "handoff_ratio": stats.handoffs / placed if placed else 0.0,
                "migrations": stats.migrations,
                "queued_ratio": (
                    len(queued) / len(stats.queue_delays) if stats.queue_delays else 0.0
                ),
                "queue_delay_p95_s": nearest_rank(queued, 0.95) if queued else 0.0,
            },
            "digest": digest([result.as_dict(), sorted(finished.items())]),
            "errors": errors,
        }


class ReplayPredictive(Workload):
    """run_replay: adaptive node, predictive admission, autoscale to 4."""

    name = "replay-predictive"

    def __init__(self, seed: int, in_process: bool = False) -> None:
        super().__init__(seed, in_process)
        from repro.harness import replay
        from repro.serving.runtime import ServingRuntime

        self.replay = replay
        # run_replay returns window totals only; keep each window's
        # public ServingResult (one wrapper call per window) so sojourns
        # and conservation can be checked per job.
        self.windows: list[tuple] = []
        original = ServingRuntime.serve

        def capture(runtime, arrivals, *args, **kwargs):
            serving = original(runtime, arrivals, *args, **kwargs)
            self.windows.append((runtime.system, arrivals, serving))
            return serving

        ServingRuntime.serve = capture

    def _pass(self, size: int) -> dict:
        from repro.serving.workload import OpenWorkload

        config = self.replay.ReplayConfig(
            seed=self.seed,
            rate=SERVE_RATE,
            windows=REPLAY_WINDOWS,
            window_s=REPLAY_WINDOW_S * size,
            tenants=len(TENANTS),
            slo_s=SLO_S,
            scheduler="adaptive",
            system="gnn",
            queue_limit=QUEUE_LIMIT,
            max_backlog=MAX_BACKLOG,
            admission="predictive",
            autoscale=True,
            max_scale=4,
        )
        self.windows.clear()
        with self.timed() as clock:
            payload = self.replay.run_replay(config)
        wall = clock.wall

        errors: list[str] = []
        windows = list(self.windows)
        if len(windows) != REPLAY_WINDOWS:
            errors.append(f"{len(windows)} serving windows seen, want {REPLAY_WINDOWS}")
        offered = completed = shed = failed = hist = gauge = launches = 0
        queue_full = 0
        makespan = 0.0
        sojourns: list[float] = []
        rows = []
        for system, arrivals, serving in windows:
            n = len(arrivals.generate(OpenWorkload(system).make_job))
            report = serving.report
            if report.offered != n:
                errors.append(f"window offered {report.offered} != timeline {n}")
            by_tenant, window_rows = _serving_record(
                report, serving.result, serving.open_loop, errors
            )
            sojourns.extend(v for vs in by_tenant.values() for v in vs)
            rows.append(window_rows)
            offered += n
            completed += report.completed
            shed += report.shed
            queue_full += sum(t.shed_queue_full for t in report.tenants.values())
            failed += len(serving.result.failed_jobs)
            makespan += serving.result.makespan
            h, g = _metric_samples(serving.result.metrics)
            hist += h
            gauge += g
            launches += serving.result.metrics.counter("jobs.dispatched").value
        totals = payload["totals"]
        if (totals["offered"], totals["completed"], totals["shed"]) != (
            offered,
            completed,
            shed,
        ):
            errors.append(f"replay totals {totals} disagree with its windows")
        return {
            "wall_s": wall,
            "offered": offered,
            "completed": completed,
            "shed": shed,
            "failed": failed,
            "lost": 0,
            "makespan_s": makespan,
            **_sojourn_stats(sojourns, SLO_S),
            "hist_samples": hist,
            "gauge_samples": gauge,
            "public": {
                "shed_queue_full": queue_full,
                "slo_attainment_completed": totals["slo_attainment"],
                "launches": launches,
                "scale_changes": len(payload["autoscale_events"]),
            },
            "digest": digest([payload, rows]),
            "errors": errors,
        }


class ClosedFigures(Workload):
    """Fig. 11, Fig. 15, Fig. 19, the Fig. 10 sizing ablation and one
    GNN epoch under the global scheduler, all on ``citation``.

    The figure functions have fixed inputs; the seed picks the sampled
    batches of the Fig. 10 ablation and the epoch.  ``size`` sets how
    many of those batches run (1 = H, 2 = 2H).  Only the 2H pass runs
    the fixed figures as well, so ``wall_s`` is the whole suite while
    ``cost_exponent`` compares the size-dependent part alone.
    """

    name = "closed-figures"

    def __init__(self, seed: int, in_process: bool = False) -> None:
        super().__init__(seed, in_process)
        from repro.core.dispatcher import Dispatcher
        from repro.harness import ablations, experiments, gnn

        self.experiments = experiments
        self.ablations = ablations
        self.gnn = gnn
        # The figure functions' own memoised workload, built here as
        # ``repro bench`` does so the timed region excludes it.
        self.mlp = experiments._workload(CLOSED_DATASET).train_predictor()
        seeded = gnn.build_workload(CLOSED_DATASET, num_batches=2, seed=seed)
        self.sized = {
            size: dataclasses.replace(
                seeded,
                batches=seeded.batches[:size],
                jobs_per_batch=seeded.jobs_per_batch[:size],
            )
            for size in (1, 2)
        }
        # The figure results are Reports; count the jobs every
        # dispatcher run was handed and completed (one wrapper call
        # per batch run) for conservation and jobs/s.
        self.runs: list[tuple[int, object]] = []
        original = Dispatcher.run

        def capture(dispatcher, policy, *args, **kwargs):
            pending = policy.pending()
            result = original(dispatcher, policy, *args, **kwargs)
            self.runs.append((pending, result))
            return result

        Dispatcher.run = capture

    def _pass(self, size: int) -> dict:
        from repro.core.predictor import OraclePredictor
        from repro.core.scheduler import GlobalScheduler

        workload = self.sized[size]
        self.runs.clear()
        with self.timed() as clock:
            epoch = self.gnn.run_workload(workload, GlobalScheduler(OraclePredictor()))
            sizing = self.ablations.ablation_knee(CLOSED_DATASET, workload=workload)
            sized_wall = clock.lap()
            sized_jobs = sum(pending for pending, _ in self.runs)
            figures = []
            if size == 2:
                figures = [
                    self.experiments.fig11_kernel_speedup(CLOSED_DATASET),
                    self.experiments.fig15_scheduler_predictor(
                        CLOSED_DATASET, mlp=self.mlp
                    ),
                    self.experiments.fig19_combo_schedulers(),
                ]
        wall = clock.wall

        errors: list[str] = []
        offered = completed = failed = hist = gauge = launches = 0
        for pending, result in self.runs:
            offered += pending
            completed += len(result.records)
            failed += len(result.failed_jobs)
            h, g = _metric_samples(result.metrics)
            hist += h
            gauge += g
            launches += result.metrics.counter("jobs.dispatched").value
        # Closed batch: every job is released at t = 0 of its batch, so
        # its sojourn is its completion time.
        sojourns = []
        rows = []
        for result in epoch.results:
            for job_id, record in sorted(result.records.items()):
                sojourns.append(record.finished_at)
                rows.append([job_id, record.finished_at, record.kind.value, record.arrays])
        return {
            "wall_s": wall,
            "sized_wall_s": sized_wall,
            "sized_jobs": sized_jobs,
            "offered": offered,
            "completed": completed,
            "shed": 0,
            "failed": failed,
            "lost": 0,
            "makespan_s": epoch.total_makespan,
            **_sojourn_stats(sojourns, None),
            "hist_samples": hist,
            "gauge_samples": gauge,
            "public": {"launches": launches},
            "digest": digest(
                [[str(r) for r in [sizing, *figures]], epoch.total_makespan, rows]
            ),
            "errors": errors,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ServeAdaptive, ClusterLJFContended, ReplayPredictive, ClosedFigures)
}
