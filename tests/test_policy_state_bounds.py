"""Scheduler state is sized by live jobs, not by run history.

A policy's plan table (``_plans``; LJF's ``_candidates``) holds a job
from admit to completion or failure, and Algorithm 1 ranks only the
jobs still queued.  These checks count entries on seeded overloaded
serves; they read no clock.
"""

import pytest

from repro.core import Dispatcher, OraclePredictor
from repro.core.runtime import SCHEDULERS
from repro.core.scheduler import adaptive
from repro.faults import FaultEvent, FaultKind, FaultPlan, RetryPolicy
from repro.harness.config import full_system
from repro.memories import MemoryKind
from tests.prophelpers import (
    PLAN_TABLE_SCHEDULERS,
    device_loss_plan,
    make_jobs,
    serve_overloaded,
)

#: Every scheduler with a per-job table, and the table's attribute.
PLAN_TABLES = {name: "_plans" for name in PLAN_TABLE_SCHEDULERS}
PLAN_TABLES["ljf"] = "_candidates"


def test_alg1_sees_only_queued_plans(monkeypatch):
    """Every runtime Algorithm 1 call gets plans for at most the jobs
    queued in its ``queues`` argument."""
    real = adaptive.inter_queue_adjust
    calls: list[tuple[int, int]] = []

    def spy(queues, plans, system, **kwargs):
        calls.append((len(plans), sum(len(q) for q in queues.values())))
        return real(queues, plans, system, **kwargs)

    monkeypatch.setattr(adaptive, "inter_queue_adjust", spy)
    served = serve_overloaded("adaptive")
    assert served.report.completed > 500
    assert len(calls) > 500
    oversized = [(plans, queued) for plans, queued in calls if plans > queued]
    assert not oversized, oversized[:5]


def _watched(name: str, policies: list, violations: list):
    """``name``'s scheduler whose policies check, after every
    completion, that the plan table holds exactly the queued and
    in-flight jobs."""

    class Watched(SCHEDULERS[name]):
        def plan(self, jobs, system):
            policy = super().plan(jobs, system)
            in_flight: set[str] = set()
            dispatch = policy.next_dispatches
            complete = policy.notify_completion
            lost = policy.device_lost

            def next_dispatches(view):
                dispatches = dispatch(view)
                in_flight.update(d.job.job_id for d in dispatches)
                return dispatches

            def device_lost(kind, jobs, now):
                # Absorbed victims are queued again, no longer in flight.
                unplaced = lost(kind, jobs, now)
                in_flight.difference_update(
                    {job.job_id for job in jobs} - {job.job_id for job in unplaced}
                )
                return unplaced

            def notify_completion(job, kind, now):
                complete(job, kind, now)
                in_flight.discard(job.job_id)
                live = policy.pending() + len(in_flight)
                table = getattr(policy, PLAN_TABLES[name])
                if len(table) != live:
                    violations.append((now, len(table), live))

            policy.next_dispatches = next_dispatches
            policy.device_lost = device_lost
            policy.notify_completion = notify_completion
            policies.append(policy)
            return policy

    return Watched(OraclePredictor())


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "device-loss"))
@pytest.mark.parametrize("name", PLAN_TABLES)
def test_plan_table_holds_only_live_jobs(name, faulted):
    """The plan table tracks queued + in-flight jobs and drains empty.
    Under a device loss the in-flight victims are re-placed from it, so
    dispatch must keep their entries; completion drops them."""
    policies: list = []
    violations: list = []
    kwargs = {"horizon": 0.001, "faults": device_loss_plan()} if faulted else {}
    served = serve_overloaded(_watched(name, policies, violations), **kwargs)
    assert served.report.completed > 200
    assert not served.result.failed_jobs
    assert not violations, violations[:5]
    (policy,) = policies
    table = getattr(policy, PLAN_TABLES[name])
    assert not table, f"{len(table)} plans left after drain"


@pytest.mark.parametrize("name", PLAN_TABLES)
def test_failed_jobs_leave_the_plan_table(name):
    """A job whose retry budget runs out never completes; the
    ``job_failed`` hook drops its plan instead."""
    system = full_system()
    policy = SCHEDULERS[name](OraclePredictor()).plan(make_jobs(0), system)
    plan = FaultPlan(
        events=(
            FaultEvent(
                kind=FaultKind.STALL,
                device=MemoryKind.SRAM,
                time=1e-6,
                duration=1.0,
            ),
        ),
        retry=RetryPolicy(base_backoff_s=1e-6, max_attempts=2),
    )
    result = Dispatcher(system).run(policy, faults=plan)
    # LJF's head-of-line queue parks more of the batch on SRAM.
    assert len(result.failed_jobs) == (8 if name == "ljf" else 5)
    table = getattr(policy, PLAN_TABLES[name])
    assert not table, f"{len(table)} plans left after drain"
