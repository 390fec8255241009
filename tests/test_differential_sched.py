"""Differential tests across the fault boundary and the schedulers.

Two families:

* **Off == absent.**  Dispatching with an *empty* fault plan must be
  byte-identical to dispatching with no plan at all -- same trace,
  same makespan, same exported payload -- proving the fault machinery
  adds zero behavioural surface when unused.
* **Scheduler relations.**  On the paper's Table II combos the
  MLIMP-aware schedulers keep their Fig. 13/14 relation to fair-share
  LJF; on seeded random batches all three schedulers remain
  *behaviourally* interchangeable (same completions, oracle-bounded
  makespans) even where their placements diverge.
"""

import json

import pytest

from repro.apps import COMBOS, combo_jobs
from repro.core import oracle_makespan
from repro.faults import FaultPlan
from repro.harness.config import full_system
from repro.memories import DEFAULT_SPECS
from repro.obs import result_payload
from tests.prophelpers import SCHEDULERS, make_jobs, run_batch, trace_key


@pytest.mark.parametrize("seed", (0, 5, 11))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_empty_plan_is_byte_identical(scheduler, seed):
    """Every run is a fault-plan run; an empty plan is exactly no
    plan.  Only a non-empty plan switches the makespan to the trace's
    end of work and attaches a fault summary."""
    plain = run_batch(scheduler, make_jobs(seed))
    gated = run_batch(scheduler, make_jobs(seed), faults=FaultPlan.empty())
    assert trace_key(gated) == trace_key(plain)
    assert gated.makespan == plain.makespan
    assert gated.fault_summary is None
    assert not gated.failed_jobs
    assert json.dumps(result_payload(gated), sort_keys=True) == json.dumps(
        result_payload(plain), sort_keys=True
    )


class TestSchedulerOrdering:
    """Fig. 13/14 relation on the Table II combos: MLIMP-aware
    scheduling beats fair-share LJF, and the static global planner
    beats the online adaptive one on average."""

    @pytest.fixture(scope="class")
    def combo_makespans(self):
        return {
            combo: {
                s: run_batch(s, combo_jobs(combo, DEFAULT_SPECS)).makespan
                for s in SCHEDULERS
            }
            for combo in sorted(COMBOS)
        }

    def test_best_mlimp_scheduler_never_loses_to_ljf(self, combo_makespans):
        for combo, mk in combo_makespans.items():
            best = min(mk["adaptive"], mk["global"])
            assert best <= mk["ljf"] * 1.0001, (combo, mk)

    def test_mean_ordering_global_adaptive_ljf(self, combo_makespans):
        n = len(combo_makespans)
        mean = {
            s: sum(mk[s] for mk in combo_makespans.values()) / n
            for s in SCHEDULERS
        }
        assert mean["global"] <= mean["adaptive"] * 1.0001, mean
        assert mean["adaptive"] <= mean["ljf"] * 1.0001, mean


@pytest.mark.parametrize("seed", range(20))
def test_schedulers_agree_on_random_batches(seed):
    """Placement differs across schedulers; correctness must not."""
    system = full_system()
    jobs = make_jobs(seed)
    bound = oracle_makespan(jobs, system)
    spans = {}
    for scheduler in SCHEDULERS:
        result = run_batch(scheduler, make_jobs(seed))
        assert set(result.records) == {job.job_id for job in jobs}
        assert not result.failed_jobs
        assert result.makespan >= bound * 0.999
        spans[scheduler] = result.makespan
    assert max(spans.values()) <= min(spans.values()) * 2.0, spans
