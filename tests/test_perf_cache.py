"""Perf layer: memoised allocation searches and vectorised grid math.

The caches and the NumPy batch path must be *pure speedups* -- every
answer here is compared against the uncached / scalar reference across
a parameter sweep.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import perfmodel
from repro.core.job import JobPerfProfile
from repro.core.perfmodel import (
    ProfileEstimate,
    ScaleFreeEstimate,
    allocation_grid,
    knee_allocation,
    min_time_allocation,
)
from repro.core.scheduler.adjustments import PlannedJob
from repro.memories import MemoryKind


@pytest.fixture(autouse=True)
def _fresh_perf_layer():
    """Every test starts from (and leaves behind) the default config
    with empty caches -- the caches are process-global."""
    perfmodel.configure(cache_enabled=True)
    perfmodel.clear_caches()
    yield
    perfmodel.configure(cache_enabled=True)
    perfmodel.clear_caches()


def sweep_estimates() -> list:
    """A grid of estimates covering replication cost on/off, capped and
    uncapped useful allocations, and the discrete (profile-backed)
    estimate the oracle predictor uses."""
    estimates = []
    for unit in (1, 4, 9):
        for beta in (0.5, 0.92, 1.0):
            for t_rep in (0.0, 8e-4):
                for max_useful in (None, unit * 12):
                    estimates.append(
                        ScaleFreeEstimate(
                            unit_arrays=unit,
                            t_load=1e-4,
                            t_replica_unit=t_rep,
                            t_compute_unit=5e-3,
                            beta=beta,
                            max_useful_arrays=max_useful,
                        )
                    )
    for waves in (1, 7, 64):
        for delta in (0.0, 0.3):
            estimates.append(
                ProfileEstimate(
                    JobPerfProfile(
                        unit_arrays=4,
                        t_load=1e-4,
                        t_replica_unit=3e-5,
                        t_compute_unit=4e-3,
                        waves_unit=waves,
                        overhead_delta=delta,
                    )
                )
            )
    return estimates


class TestCacheCorrectness:
    def test_memoised_searches_equal_uncached_across_sweep(self):
        """The acceptance property: knee/min-time answers are identical
        with the memo on (first call = miss, second = hit) and off."""
        for est in sweep_estimates():
            for cap in (est.unit_arrays, 64, 501):
                if cap < est.unit_arrays:
                    continue
                perfmodel.configure(cache_enabled=False)
                knee_ref = knee_allocation(est, cap)
                min_ref = min_time_allocation(est, cap)
                perfmodel.configure(cache_enabled=True)
                assert knee_allocation(est, cap) == knee_ref  # miss
                assert knee_allocation(est, cap) == knee_ref  # hit
                assert min_time_allocation(est, cap) == min_ref
                assert min_time_allocation(est, cap) == min_ref

    def test_value_equal_estimates_share_cache_entries(self):
        """Frozen dataclasses hash by value, so two jobs with identical
        parameters hit the same entry."""
        a = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        b = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        assert a is not b
        knee_allocation(a, 1000)
        stats_before = perfmodel.cache_stats()["perfmodel.knee"]
        knee_allocation(b, 1000)
        stats_after = perfmodel.cache_stats()["perfmodel.knee"]
        assert stats_after["hits"] == stats_before["hits"] + 1
        assert stats_after["size"] == stats_before["size"]

    def test_cache_stats_and_clear(self):
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        knee_allocation(est, 1000)
        knee_allocation(est, 1000)
        stats = perfmodel.cache_stats()["perfmodel.knee"]
        assert stats["misses"] >= 1 and stats["hits"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0
        perfmodel.clear_caches()
        for entry in perfmodel.cache_stats().values():
            assert entry["size"] == 0
            assert entry["hits"] == 0 and entry["misses"] == 0

    def test_disabled_cache_stores_nothing(self):
        perfmodel.configure(cache_enabled=False)
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        knee_allocation(est, 1000)
        knee_allocation(est, 1000)
        for entry in perfmodel.cache_stats().values():
            assert entry["size"] == 0

    def test_cached_grid_is_shared_and_readonly(self):
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        grid = allocation_grid(est, 1000)
        again = allocation_grid(est, 1000)
        assert grid is again
        with pytest.raises(ValueError):
            grid[0] = 1


class ScalarOnly:
    """Thin wrapper hiding ``total_time_batch``, so the allocation
    searches fall back to the per-point scalar loop."""

    def __init__(self, estimate) -> None:
        self._estimate = estimate

    def __getattr__(self, name):
        if name == "total_time_batch":
            raise AttributeError(name)
        return getattr(self._estimate, name)


class TestVectorisedParity:
    def test_batch_total_time_matches_scalar(self):
        for est in sweep_estimates():
            grid = allocation_grid(est, 777)
            scalar = np.array([est.total_time(int(m)) for m in grid])
            batch = est.total_time_batch(grid)
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_vectorised_and_scalar_searches_agree(self):
        for est in sweep_estimates():
            perfmodel.configure(cache_enabled=False)
            scalar = ScalarOnly(est)
            assert not hasattr(scalar, "total_time_batch")
            knee_ref = knee_allocation(scalar, 900)
            min_ref = min_time_allocation(scalar, 900)
            perfmodel.configure(cache_enabled=True)
            assert knee_allocation(est, 900) == knee_ref
            assert min_time_allocation(est, 900) == min_ref

    def test_batch_rejects_below_unit_allocation(self):
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        with pytest.raises(ValueError):
            est.total_time_batch([4])


class TestPlannedJobMemo:
    def _planned(self, arrays: int) -> PlannedJob:
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        # est_time only reads .estimate and .arrays; no Job needed.
        return PlannedJob(job=None, kind=MemoryKind.SRAM, arrays=arrays, estimate=est)

    def test_memo_matches_direct_evaluation(self):
        pj = self._planned(16)
        assert pj.est_time == pj.estimate.total_time(16)
        assert pj.est_time == pj.estimate.total_time(16)
        assert "_est_time" in pj.__dict__

    def test_with_arrays_gets_a_fresh_memo(self):
        pj = self._planned(16)
        _ = pj.est_time
        bigger = pj.with_arrays(32)
        assert "_est_time" not in bigger.__dict__
        assert bigger.est_time == pj.estimate.total_time(32)

    def test_memo_disabled_with_cache_off(self):
        perfmodel.configure(cache_enabled=False)
        pj = self._planned(16)
        assert pj.est_time == pj.estimate.total_time(16)
        assert "_est_time" not in pj.__dict__


class TestMinTimeCacheOnFig10Sweep:
    """Regression gate for the dead ``perfmodel.min_time`` cache.

    The Fig. 10 sizing ablation is the one workload that calls
    :func:`min_time_allocation` in anger (``sizing="min"``).  Before
    the key normalisation fix, every lookup missed -- value-equal
    searches landed on distinct keys because non-timing profile fields
    (``fill_bytes``, ``compute_energy_j``, ``vector_width``) entered
    the key -- and the 0% hit rate went unnoticed because the cache is
    slow-but-correct.  Pin a real hit rate on the real sweep.
    """

    def test_fig10_sweep_produces_min_time_hits(self):
        from repro.harness.ablations import ablation_knee

        ablation_knee("collab")
        stats = perfmodel.cache_stats()["perfmodel.min_time"]
        lookups = stats["hits"] + stats["misses"]
        assert lookups > 0, "sweep never reached min_time_allocation"
        assert stats["hits"] > 0, "min_time cache is dead again (0% hit rate)"
        # Well clear of zero, well short of flaky: the collab sweep
        # measured ~54% when the key fix landed.
        assert stats["hit_rate"] > 0.25


def _report_digest(served) -> str:
    text = json.dumps(served.report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestSearchTermsCache:
    """The grid-shape memo every knee / min-time / t^-1 search reads.

    Clock-free: hit ratios, occupancy and report digests only."""

    def test_listed_in_runtime_snapshot(self):
        from repro.obs.metrics import runtime_snapshot

        assert "perfmodel.terms" in perfmodel.cache_stats()
        assert "perfmodel.terms" in runtime_snapshot()["caches"]

    def test_hits_on_overloaded_serve_and_stays_bounded(self):
        from tests.prophelpers import serve_overloaded

        served = serve_overloaded("adaptive")
        assert served.report.completed > 500
        stats = perfmodel.cache_stats()["perfmodel.terms"]
        assert stats["hits"] + stats["misses"] > 1000
        assert stats["hit_rate"] > 0.9
        assert 0 < stats["size"] <= perfmodel.CACHE_MAXSIZE

    def test_switching_caches_off_keeps_the_serve_report(self):
        from tests.prophelpers import serve_overloaded

        cached = _report_digest(serve_overloaded("adaptive"))
        perfmodel.configure(cache_enabled=False)
        perfmodel.clear_caches()
        assert _report_digest(serve_overloaded("adaptive")) == cached
        assert perfmodel.cache_stats()["perfmodel.terms"]["size"] == 0

    def test_quick_bench_caches_are_healthy(self):
        """``repro bench --quick`` (the CI ``bench-smoke`` gate): no
        cache with lookups and no hits, and the closed-batch targets
        reuse search terms."""
        from repro.harness.bench import check_cache_health, run_bench

        payload = run_bench(quick=True)
        assert check_cache_health(payload) == []
        assert payload["caches"]["perfmodel.terms"]["hits"] > 0
