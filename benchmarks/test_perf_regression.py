"""Perf-layer regression checks: the fast paths must change *time*,
never *answers*.

Unlike the figure benchmarks these are plain assertions (no
pytest-benchmark fixture): run with ``pytest benchmarks/test_perf_regression.py -q``.
The full timed suite with the JSON artifact is ``python -m repro bench``.
"""

import time

from repro.core import perfmodel
from repro.core.perfmodel import ScaleFreeEstimate, knee_allocation
from repro.harness.experiments import fig19_combo_schedulers
from repro.isa import timing
from repro.sim import Simulator


def _set_fast_path(enabled: bool) -> None:
    perfmodel.configure(cache_enabled=enabled)
    timing.configure_cache(enabled)


def _restore() -> None:
    _set_fast_path(True)
    perfmodel.clear_caches()
    timing.clear_cache()


def test_fig19_report_identical_with_and_without_perf_layer():
    """End-to-end determinism: a full multiprogramming experiment
    produces byte-identical JSON with the caches on and off."""
    try:
        _set_fast_path(False)
        reference = fig19_combo_schedulers(("A",)).to_json()
        _set_fast_path(True)
        perfmodel.clear_caches()
        timing.clear_cache()
        optimised = fig19_combo_schedulers(("A",)).to_json()
    finally:
        _restore()
    assert optimised == reference


def test_knee_cache_speedup():
    """Repeated knee searches over a small estimate population -- the
    scheduler's actual access pattern -- must be visibly faster with
    the memo.  The bound is deliberately loose (the measured win is
    >10x); this guards against the cache being silently disabled."""
    estimates = [
        ScaleFreeEstimate(
            unit_arrays=unit,
            t_load=1e-6,
            t_replica_unit=5e-8,
            t_compute_unit=1e-4,
            beta=beta,
        )
        for unit in (4, 8, 16)
        for beta in (0.6, 0.8, 0.92, 1.0)
    ]
    rounds = 300

    def sweep() -> None:
        for _ in range(rounds):
            for est in estimates:
                knee_allocation(est, 5120)

    try:
        _set_fast_path(False)
        start = time.perf_counter()
        sweep()
        uncached = time.perf_counter() - start

        _set_fast_path(True)
        perfmodel.clear_caches()
        start = time.perf_counter()
        sweep()
        cached = time.perf_counter() - start
    finally:
        _restore()
    assert cached < uncached / 1.3, (
        f"knee memo speedup only {uncached / cached:.2f}x"
    )


def test_chunked_run_matches_step_trace():
    """``run()``'s batched same-timestamp drain must visit events in
    exactly the order the one-at-a-time ``step()`` loop does."""

    def build(log):
        sim = Simulator()
        for i in range(200):
            # Deliberately collide timestamps (i % 7) to form chunks.
            sim.at(float(i % 7), lambda i=i: log.append((sim.now, i)))
        return sim

    run_log: list = []
    sim = build(run_log)
    sim.run()

    step_log: list = []
    stepped = build(step_log)
    while stepped.step():
        pass

    assert run_log == step_log
    assert sim.now == stepped.now
    assert sim.processed == stepped.processed == 200
