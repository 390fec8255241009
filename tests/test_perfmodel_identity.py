"""The memoised allocation searches equal the plain 1-D searches bit
for bit.

The knee, min-time and t^-1 searches in :mod:`repro.core.perfmodel`
evaluate t(x, m) from grid-only terms cached per grid shape.  The
oracle below is a frozen copy of the searches that priced every grid
from scratch with ``total_time_batch`` and ``np.gradient``-style
spacing arithmetic; any knee or argmax that moves by one grid point
fails here.  Every case runs with the perf-layer caches on (twice, so
the second pass reads cached terms) and off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import perfmodel
from repro.core.job import JobPerfProfile
from repro.core.perfmodel import (
    ProfileEstimate,
    ScaleFreeEstimate,
    knee_allocation,
    min_time_allocation,
)


# -- frozen oracle ------------------------------------------------------
def _oracle_grid(unit: int, max_arrays: int, points: int = 48) -> np.ndarray:
    if max_arrays < unit:
        raise ValueError("max_arrays below the unit allocation")
    max_replicas = max_arrays // unit
    if max_replicas <= 1:
        return np.asarray([unit])
    replicas = np.unique(
        np.round(np.geomspace(1, max_replicas, num=points)).astype(int)
    )
    return replicas[replicas >= 1] * unit


def _oracle_times(estimate, grid: np.ndarray) -> np.ndarray:
    batch = getattr(estimate, "total_time_batch", None)
    if batch is not None:
        return np.asarray(batch(grid), dtype=float)
    return np.asarray([estimate.total_time(int(m)) for m in grid], dtype=float)


def _oracle_gradient(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(f)
    dx = np.diff(x)
    dx1 = dx[:-1]
    dx2 = dx[1:]
    a = -(dx2) / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
    out[0] = (f[1] - f[0]) / dx[0]
    out[-1] = (f[-1] - f[-2]) / dx[-1]
    return out


def oracle_knee(estimate, max_arrays: int) -> int:
    grid = _oracle_grid(estimate.unit_arrays, max_arrays)
    if len(grid) == 1:
        return int(grid[0])
    times = _oracle_times(estimate, grid)
    x = (grid - grid[0]) / max(1, (grid[-1] - grid[0]))
    t_span = times.max() - times.min()
    if t_span <= 0.0:
        return int(grid[0])
    y = (times - times.min()) / t_span
    slope = _oracle_gradient(y, x)
    theta = np.arctan(slope)
    dtheta = np.abs(_oracle_gradient(theta, x))
    knee = int(grid[int(np.argmax(dtheta))])
    if estimate.total_time(knee) > estimate.total_time(int(grid[0])):
        return int(grid[0])
    return knee


def oracle_min_time(estimate, max_arrays: int) -> int:
    grid = _oracle_grid(estimate.unit_arrays, max_arrays)
    return int(grid[int(np.argmin(_oracle_times(estimate, grid)))])


def oracle_invert(estimate, target_seconds: float, max_arrays: int) -> int:
    grid = _oracle_grid(estimate.unit_arrays, max(estimate.unit_arrays, max_arrays))
    times = _oracle_times(estimate, grid)
    meets = np.nonzero(times <= target_seconds)[0]
    if meets.size:
        return int(grid[int(meets[0])])
    return int(grid[int(np.argmin(times))])


# -- strategies ---------------------------------------------------------
_seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False),
)
_units = st.integers(min_value=1, max_value=64)


@st.composite
def profile_estimates(draw):
    profile = JobPerfProfile(
        unit_arrays=draw(_units),
        t_load=draw(_seconds),
        t_replica_unit=draw(_seconds),
        t_compute_unit=draw(_seconds),
        waves_unit=draw(st.integers(min_value=1, max_value=256)),
        overhead_delta=draw(
            st.one_of(
                st.sampled_from([0.0, 0.05]),
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            )
        ),
        n_iter=draw(st.integers(min_value=1, max_value=8)),
    )
    scale = draw(
        st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=8.0))
    )
    return ProfileEstimate(profile, compute_scale=scale)


@st.composite
def scale_free_estimates(draw):
    unit = draw(_units)
    return ScaleFreeEstimate(
        unit_arrays=unit,
        t_load=draw(_seconds),
        t_replica_unit=draw(_seconds),
        t_compute_unit=draw(_seconds),
        beta=draw(
            st.one_of(
                st.sampled_from([0.5, 0.92, 1.0]),
                st.floats(min_value=0.05, max_value=1.0, exclude_min=True),
            )
        ),
        n_iter=draw(st.integers(min_value=1, max_value=8)),
        max_useful_arrays=draw(
            st.one_of(st.none(), st.integers(min_value=unit, max_value=unit * 300))
        ),
    )


@st.composite
def caps(draw, unit: int):
    """A cap on a replica boundary, just below one, between two, or
    inside the first replica (a single-point grid)."""
    replicas = draw(st.integers(min_value=1, max_value=400))
    where = draw(st.sampled_from(["on", "below", "between", "single"]))
    if where == "on":
        return replicas * unit
    if where == "below":
        return max(unit, (replicas + 1) * unit - 1)
    if where == "between":
        return replicas * unit + draw(st.integers(min_value=0, max_value=unit - 1))
    return draw(st.integers(min_value=unit, max_value=2 * unit - 1))


def _check(estimate, cap: int, target_pick: float) -> None:
    want_knee = oracle_knee(estimate, cap)
    want_min = oracle_min_time(estimate, cap)
    grid = _oracle_grid(estimate.unit_arrays, cap)
    times = _oracle_times(estimate, grid)
    # A target on a grid time, a hair either side of it, and one the
    # curve never reaches.
    hit = float(times[int(target_pick * (len(times) - 1))])
    targets = [
        t for t in (hit, np.nextafter(hit, 0.0), hit * (1 + 1e-12), 1e-30) if t > 0
    ]
    want_inv = [oracle_invert(estimate, t, cap) for t in targets]
    config = perfmodel.perf_config()
    saved = config.cache_enabled
    try:
        for enabled, passes in ((True, 2), (False, 1)):
            perfmodel.configure(cache_enabled=enabled)
            for _ in range(passes):
                assert knee_allocation(estimate, cap) == want_knee
                assert perfmodel._knee_allocation_impl(estimate, cap) == want_knee
                assert min_time_allocation(estimate, cap) == want_min
                got_inv = [estimate.invert_total_time(t, cap) for t in targets]
                assert got_inv == want_inv
    finally:
        perfmodel.configure(cache_enabled=saved)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), estimate=profile_estimates(), pick=st.floats(0.0, 1.0))
def test_profile_searches_match_oracle(data, estimate, pick):
    _check(estimate, data.draw(caps(estimate.unit_arrays)), pick)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), estimate=scale_free_estimates(), pick=st.floats(0.0, 1.0))
def test_scale_free_searches_match_oracle(data, estimate, pick):
    _check(estimate, data.draw(caps(estimate.unit_arrays)), pick)


@pytest.mark.parametrize("beta", (0.5, 0.92, 1.0))
@pytest.mark.parametrize("max_useful", (None, 96, 512))
@pytest.mark.parametrize("cap", (8, 15, 16, 17, 511, 512, 513, 4096))
def test_scale_free_grid_corners(beta, max_useful, cap):
    estimate = ScaleFreeEstimate(
        unit_arrays=8,
        t_load=2e-6,
        t_replica_unit=3e-7,
        t_compute_unit=4e-4,
        beta=beta,
        n_iter=3,
        max_useful_arrays=max_useful,
    )
    _check(estimate, cap, 0.5)


@pytest.mark.parametrize("delta", (0.0, 0.05, 0.3))
@pytest.mark.parametrize("scale", (1.0, 0.7, 2.5))
@pytest.mark.parametrize("cap", (4, 7, 8, 9, 255, 256, 257, 2048))
def test_profile_grid_corners(delta, scale, cap):
    profile = JobPerfProfile(
        unit_arrays=4,
        t_load=1e-6,
        t_replica_unit=2e-7,
        t_compute_unit=3e-4,
        waves_unit=100,
        overhead_delta=delta,
        n_iter=2,
    )
    _check(ProfileEstimate(profile, compute_scale=scale), cap, 0.25)


def test_seeded_profile_sweep():
    """1,500 random oracle-grade pairs, the estimate the serving path
    plans with, across the cache switch."""
    rng = np.random.default_rng(7)
    for _ in range(1500):
        unit = int(rng.integers(1, 65))
        profile = JobPerfProfile(
            unit_arrays=unit,
            t_load=float(rng.uniform(0, 1e-5)),
            t_replica_unit=float(rng.uniform(0, 1e-6)),
            t_compute_unit=float(rng.uniform(1e-7, 1e-3)),
            waves_unit=int(rng.integers(1, 300)),
            overhead_delta=float(rng.choice([0.0, 0.05, rng.uniform(0, 0.4)])),
            n_iter=int(rng.integers(1, 5)),
        )
        cap = int(rng.integers(unit, unit * 600))
        _check(ProfileEstimate(profile), cap, float(rng.uniform()))


class _DuckEstimate:
    """No ``total_time_batch``: priced point by point."""

    unit_arrays = 4

    def total_time(self, arrays: int) -> float:
        return 1e-3 / arrays + 1e-6 * arrays


@pytest.mark.parametrize("cap", (4, 7, 8, 100, 1000))
def test_duck_typed_estimate_matches_oracle(cap):
    duck = _DuckEstimate()
    saved = perfmodel.perf_config().cache_enabled
    try:
        for enabled in (True, False):
            perfmodel.configure(cache_enabled=enabled)
            assert knee_allocation(duck, cap) == oracle_knee(duck, cap)
            assert min_time_allocation(duck, cap) == oracle_min_time(duck, cap)
    finally:
        perfmodel.configure(cache_enabled=saved)
