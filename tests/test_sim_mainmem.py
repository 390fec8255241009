"""Shared-bandwidth main-memory model."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DDR4Config, SharedBandwidthPipe, Simulator


def make_pipe(bw_gbps=10.0, latency_ns=0.0):
    sim = Simulator()
    config = DDR4Config(
        channels=1, channel_bandwidth_gbps=bw_gbps, access_latency_ns=latency_ns
    )
    return sim, SharedBandwidthPipe(sim, config)


class TestConfig:
    def test_default_matches_evaluated_system(self):
        config = DDR4Config()
        assert config.channels == 4
        assert config.total_bandwidth_gbps == pytest.approx(76.8)

    def test_transfer_energy(self):
        config = DDR4Config(energy_pj_per_bit=10.0)
        assert config.transfer_energy_j(1) == pytest.approx(80e-12)


class TestSingleTransfer:
    def test_duration_is_bytes_over_bandwidth(self):
        sim, pipe = make_pipe(bw_gbps=10.0)
        done = []
        pipe.submit(10e9, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0)]

    def test_access_latency_added(self):
        sim, pipe = make_pipe(bw_gbps=10.0, latency_ns=100.0)
        done = []
        pipe.submit(10e9, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0 + 100e-9)]

    def test_zero_byte_transfer_costs_latency_only(self):
        sim, pipe = make_pipe(bw_gbps=10.0, latency_ns=50.0)
        done = []
        pipe.submit(0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(50e-9)]

    def test_negative_bytes_rejected(self):
        _, pipe = make_pipe()
        with pytest.raises(ValueError):
            pipe.submit(-1, lambda: None)


class TestContention:
    def test_two_equal_transfers_take_twice_as_long(self):
        sim, pipe = make_pipe(bw_gbps=10.0)
        done = []
        pipe.submit(5e9, lambda: done.append(sim.now))
        pipe.submit(5e9, lambda: done.append(sim.now))
        sim.run()
        # 10 GB at 10 GB/s shared -> both finish at t=1.
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_short_transfer_finishes_first_then_long_speeds_up(self):
        sim, pipe = make_pipe(bw_gbps=10.0)
        done = {}
        pipe.submit(2e9, lambda: done.setdefault("short", sim.now))
        pipe.submit(12e9, lambda: done.setdefault("long", sim.now))
        sim.run()
        # Shared until short drains: each gets 5 GB/s, short done at 0.4 s.
        assert done["short"] == pytest.approx(0.4)
        # Long has 12 - 0.4*5 = 10 GB left, alone at 10 GB/s -> 1.4 s.
        assert done["long"] == pytest.approx(1.4)

    def test_late_joiner_slows_existing_transfer(self):
        sim, pipe = make_pipe(bw_gbps=10.0)
        done = {}
        pipe.submit(10e9, lambda: done.setdefault("first", sim.now))
        sim.after(0.5, lambda: pipe.submit(5e9, lambda: done.setdefault("second", sim.now)))
        sim.run()
        # First does 5 GB alone by 0.5; then both share: first's 5 GB
        # and second's 5 GB drain at 5 GB/s each -> both at 1.5 s.
        assert done["first"] == pytest.approx(1.5)
        assert done["second"] == pytest.approx(1.5)

    def test_total_bytes_tracked_for_energy(self):
        sim, pipe = make_pipe()
        pipe.submit(1e6, lambda: None)
        pipe.submit(2e6, lambda: None)
        sim.run()
        assert pipe.total_bytes == pytest.approx(3e6)
        assert pipe.energy_j() > 0

    def test_finished_transfer_leaves_no_reference_cycle(self):
        """Reference counting alone frees a finished transfer's
        callback: nothing waits for the cyclic collector."""

        class Callback:
            def __call__(self) -> None:
                pass

        sim, pipe = make_pipe()
        callbacks = [Callback(), Callback()]
        alive = [weakref.ref(callback) for callback in callbacks]
        gc.disable()
        try:
            for callback in callbacks:
                pipe.submit(1e6, callback)
            del callbacks, callback
            sim.run()
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1e3, max_value=1e9), min_size=1, max_size=10
    )
)
def test_work_conservation_property(sizes):
    """All transfers complete, and the makespan is at least
    total_bytes / bandwidth (the pipe can't exceed its capacity) and at
    most sum of solo times (sharing never loses throughput)."""
    sim, pipe = make_pipe(bw_gbps=1.0)
    finished = []
    for size in sizes:
        pipe.submit(size, lambda: finished.append(sim.now))
    end = sim.run()
    assert len(finished) == len(sizes)
    lower = sum(sizes) / 1e9
    assert end == pytest.approx(lower, rel=1e-6) or end >= lower
    assert end <= lower * 1.001
