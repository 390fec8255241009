"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`Tracer` wraps the public functions of each layer -- at the
module that defines them *and* at every module that imported them by
name, since ``from x import f`` binds its own reference -- with a
``perf_counter`` span.  A layer's self time is its spans' duration
minus the time of the spans nested inside them, so the self times of
all layers plus ``unattributed`` add up to the traced wall time.

Spans are aggregated in memory per layer (calls, total and self
seconds) rather than kept one by one: a 2H serve pass makes ~10^5
policy calls.  Calls re-entering the same layer (a subclass calling
``super()``) count once.  Targets missing from the program under test
are skipped and counted in ``trace.missing_targets`` instead of
failing the run, so a refactor that moves a function shows up as a
layer reading zero next to a non-zero count.

Worker processes are not traced: spans opened in a shard's process
die with it.  The traced run therefore simulates cluster nodes in
process (``shards=1``); see README.md.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

_SCHEDULER = "repro.core.scheduler"

#: layer -> [(module, "name" or "Class.method")].  ``Class.*`` entries
#: with a ``+`` prefix also cover every loaded subclass that defines the
#: method itself.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "serving.arrivals": [("repro.serving.arrivals", "PoissonArrivals.generate")],
    "serving.tenants": [
        ("repro.serving.tenants", f"OpenLoop.{m}")
        for m in ("on_arrival", "release", "on_rejected", "on_finished")
    ],
    "serving.admission": [
        ("repro.serving.admission", "PredictiveAdmission.decide"),
        ("repro.serving.admission", "PredictiveAdmission.release"),
    ],
    "core.scheduler.admit": [(f"{_SCHEDULER}.base", "+DispatchPolicy.admit")],
    "core.scheduler.dispatch": [(f"{_SCHEDULER}.base", "+DispatchPolicy.next_dispatches")],
    "core.scheduler.notify": [(f"{_SCHEDULER}.base", "+DispatchPolicy.notify_completion")],
    "core.scheduler.adjustments": [
        (f"{_SCHEDULER}.adjustments", "inter_queue_adjust"),
        (f"{_SCHEDULER}.adjustments", "intra_queue_adjust"),
        (f"{_SCHEDULER}.adjustments", "plan_job"),
        (f"{_SCHEDULER}.adaptive", "inter_queue_adjust"),
        (f"{_SCHEDULER}.adaptive", "plan_job"),
        (f"{_SCHEDULER}.ewt", "plan_job"),
        (f"{_SCHEDULER}.globalsched", "intra_queue_adjust"),
    ],
    "core.perfmodel": [
        ("repro.core.perfmodel", "knee_allocation"),
        ("repro.core.perfmodel", "min_time_allocation"),
        ("repro.core.perfmodel", "allocation_grid"),
        (f"{_SCHEDULER}.adjustments", "knee_allocation"),
        ("repro.harness.experiments", "knee_allocation"),
    ],
    "core.predictor": [("repro.core.predictor", "+PerformancePredictor.estimate")],
    "core.dispatcher": [("repro.core.dispatcher", "Dispatcher.run")],
    "cluster.placement": [
        ("repro.cluster.placement", "+PlacementPolicy.choose"),
        ("repro.cluster.placement", "estimate_service_time"),
        ("repro.cluster.runtime", "estimate_service_time"),
    ],
    "cluster.runtime": [("repro.cluster.runtime", "ClusterRuntime.serve")],
    "cluster.report": [("repro.cluster.runtime", "build_cluster_report")],
    "serving.report": [("repro.serving.runtime", "build_serving_report")],
    "obs.export": [("repro.cluster.runtime", "result_payload")],
    "obs.analytics": [
        ("repro.obs.analytics", "build_report"),
        ("repro.serving.report", "build_report"),
        ("repro.obs.export", "build_report"),
        ("repro.core.dispatcher", "build_report"),
    ],
    "serving.autoscale": [
        ("repro.serving.autoscale", "Autoscaler.observe"),
        ("repro.serving.autoscale", "scale_system"),
        ("repro.harness.replay", "scale_system"),
        ("repro.cluster.spec", "scale_system"),
    ],
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Layer-specific outcome counts (see ``_OBSERVERS``).
    items_in: int = 0
    items_out: int = 0


def _observe_admit(stats: LayerStats, args, result) -> None:
    # policy.admit(jobs, now) returns the jobs it could not place.
    stats.items_in += len(args[1])
    stats.items_out += len(result)


def _observe_decide(stats: LayerStats, args, result) -> None:
    # PredictiveAdmission.decide returns True to accept.  Only decide
    # calls count here; release calls carry no verdict.
    if isinstance(result, bool):
        stats.items_in += 1
        stats.items_out += result


_OBSERVERS = {
    "core.scheduler.admit": _observe_admit,
    "serving.admission": _observe_decide,
}


class Tracer:
    """Install/remove span wrappers and accumulate per-layer stats."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name in TARGETS}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child seconds, layer]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {name: LayerStats() for name in TARGETS}

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        stack = self._stack
        observe = _OBSERVERS.get(layer)
        tracer = self

        def span(*args, **kwargs):
            frame = [0.0, layer]
            reentrant = bool(stack) and stack[-1][1] == layer
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = tracer.stats[layer]
                stats.self_s += elapsed - frame[0]
                if not reentrant:
                    stats.calls += 1
                    stats.total_s += elapsed
            if observe is not None and not reentrant:
                observe(stats, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr: str, layer: str) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(layer, raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, raw.__func__))
        else:
            new = self._wrap(layer, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.missing = []
        for layer, targets in TARGETS.items():
            for module_name, path in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(f"{module_name}:{path}")
                    continue
                subclasses = path.startswith("+")
                owner_name, _, attr = path.lstrip("+").rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{module_name}:{path}")
                    continue
                if not owner_name:
                    self._patch(module, attr, layer)
                    continue
                classes = [owner]
                if subclasses:
                    pending = list(owner.__subclasses__())
                    while pending:
                        cls = pending.pop()
                        classes.append(cls)
                        pending.extend(cls.__subclasses__())
                for cls in classes:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, layer)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)
