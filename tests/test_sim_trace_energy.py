"""Execution traces (full and streaming) and the energy ledger."""

import pytest

from repro.sim import (
    EnergyCategory,
    EnergyLedger,
    ExecutionTrace,
    Phase,
    StreamingTrace,
    TraceRecord,
)


class TestTrace:
    def make_trace(self):
        trace = ExecutionTrace()
        trace.record("j1", "sram", Phase.FILL, 0.0, 1.0, arrays=4)
        trace.record("j1", "sram", Phase.COMPUTE, 1.0, 3.0, arrays=4)
        trace.record("j2", "reram", Phase.COMPUTE, 0.5, 2.0, arrays=8)
        trace.record("j3", "sram", Phase.COMPUTE, 4.0, 5.0, arrays=2)
        return trace

    def test_makespan(self):
        assert self.make_trace().makespan == 5.0
        assert ExecutionTrace().makespan == 0.0

    def test_busy_time_merges_overlaps(self):
        trace = ExecutionTrace()
        trace.record("a", "d", Phase.COMPUTE, 0.0, 2.0)
        trace.record("b", "d", Phase.COMPUTE, 1.0, 3.0)
        trace.record("c", "d", Phase.COMPUTE, 5.0, 6.0)
        assert trace.busy_time("d") == pytest.approx(4.0)

    def test_bubble_time_is_internal_idle(self):
        trace = self.make_trace()
        # sram active [0,3] and [4,5]: bubble = 1.
        assert trace.bubble_time("sram") == pytest.approx(1.0)
        assert trace.bubble_time("reram") == pytest.approx(0.0)
        assert trace.bubble_time("absent") == 0.0

    def test_utilisation(self):
        trace = self.make_trace()
        assert trace.utilisation("sram") == pytest.approx(4.0 / 5.0)

    def test_job_latency(self):
        trace = self.make_trace()
        assert trace.job_latency("j1") == pytest.approx(3.0)
        with pytest.raises(KeyError):
            trace.job_latency("nope")

    def test_phase_time(self):
        trace = self.make_trace()
        assert trace.phase_time(Phase.FILL) == pytest.approx(1.0)
        assert trace.phase_time(Phase.COMPUTE) == pytest.approx(4.5)

    def test_devices_and_jobs(self):
        trace = self.make_trace()
        assert trace.devices() == ["reram", "sram"]
        assert trace.job_ids() == ["j1", "j2", "j3"]

    def test_breakdown(self):
        breakdown = self.make_trace().per_device_phase_breakdown()
        assert breakdown["sram"]["compute"] == pytest.approx(3.0)
        assert breakdown["sram"]["fill"] == pytest.approx(1.0)

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            TraceRecord("j", "d", Phase.COMPUTE, 2.0, 1.0)


class TestEnergyLedger:
    def test_accumulation(self):
        ledger = EnergyLedger()
        ledger.add(EnergyCategory.COMPUTE, "sram", 1.0)
        ledger.add(EnergyCategory.COMPUTE, "sram", 2.0)
        ledger.add(EnergyCategory.OFFCHIP, "ddr4", 0.5)
        assert ledger.total() == pytest.approx(3.5)
        assert ledger.get(EnergyCategory.COMPUTE, "sram") == pytest.approx(3.0)
        assert ledger.by_category()[EnergyCategory.OFFCHIP] == pytest.approx(0.5)
        assert ledger.by_device()["sram"] == pytest.approx(3.0)

    def test_negative_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.add(EnergyCategory.HOST, "cpu", -1.0)

    def test_merge(self):
        a = EnergyLedger()
        a.add(EnergyCategory.COMPUTE, "sram", 1.0)
        b = EnergyLedger()
        b.add(EnergyCategory.COMPUTE, "sram", 2.0)
        b.add(EnergyCategory.HOST, "cpu", 1.0)
        merged = a.merge(b)
        assert merged.get(EnergyCategory.COMPUTE, "sram") == pytest.approx(3.0)
        assert merged.total() == pytest.approx(4.0)
        # merge does not mutate its inputs
        assert a.total() == pytest.approx(1.0)

    def test_rows_sorted(self):
        ledger = EnergyLedger()
        ledger.add(EnergyCategory.OFFCHIP, "pcie", 1.0)
        ledger.add(EnergyCategory.COMPUTE, "sram", 1.0)
        rows = ledger.as_rows()
        assert rows == sorted(rows)


class TestStreamingTrace:
    def _fill(self, trace):
        trace.record("j0", "DRAM", Phase.FILL, 0.0, 1.0, arrays=2)
        trace.record("j0", "DRAM", Phase.COMPUTE, 1.0, 4.0)
        trace.record("j1", "RRAM", Phase.COMPUTE, 0.5, 2.0)

    def test_aggregates_match_full_trace(self):
        streaming, full = StreamingTrace(), ExecutionTrace()
        self._fill(streaming)
        self._fill(full)
        assert streaming.makespan == full.makespan
        assert streaming.devices() == full.devices()
        assert streaming.phase_time(Phase.COMPUTE) == full.phase_time(
            Phase.COMPUTE
        )
        assert (
            streaming.per_device_phase_breakdown()
            == full.per_device_phase_breakdown()
        )
        assert streaming.rows == 3

    def test_sink_receives_every_row(self):
        rows = []
        trace = StreamingTrace(sink=rows.append)
        self._fill(trace)
        assert rows == [
            ("j0", "DRAM", "fill", 0.0, 1.0, 2),
            ("j0", "DRAM", "compute", 1.0, 4.0, 0),
            ("j1", "RRAM", "compute", 0.5, 2.0, 0),
        ]

    def test_add_accepts_trace_records(self):
        trace = StreamingTrace()
        trace.add(TraceRecord("j", "DRAM", Phase.FILL, 0.0, 2.0))
        assert trace.makespan == 2.0

    def test_row_level_queries_raise(self):
        trace = StreamingTrace()
        with pytest.raises(TypeError):
            trace.records

    def test_rejects_backwards_interval(self):
        trace = StreamingTrace()
        with pytest.raises(ValueError):
            trace.record("j", "DRAM", Phase.FILL, 1.0, 0.5)

    def test_memory_stays_flat(self):
        """No per-row state: a large run's footprint is O(devices)."""
        trace = StreamingTrace()
        for i in range(10_000):
            trace.record(f"j{i}", "DRAM", Phase.COMPUTE, float(i), i + 0.5)
        assert trace.rows == 10_000
        # Only aggregates retained -- nothing sized by row count.
        assert set(trace.__slots__) == {
            "sink",
            "rows",
            "_makespan",
            "_phase_seconds",
            "_by_device",
        }
        assert len(trace._by_device) == 1
