"""Golden-digest gates for the dispatch path's simulated outputs.

Each scenario renders its outputs as full-precision sorted JSON and
pins the sha256 of that string: the batch traces and exported payloads
per scheduler, the Fig. 19 combo batches, the Fig. 11/15/19 figure
targets on ``collab``, a seeded fault plan per scheduler, a seeded
two-tenant serving report and, per plan-table scheduler, a seeded
overloaded serve that loses a device mid-run.  Any change to the
dispatcher, engine or perf model that moves one simulated byte fails
here.

After a deliberate change of simulated output, print the new table
with ``PYTHONPATH=src python -m tests.test_golden_outputs`` and record
the reason in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.apps import combo_jobs
from repro.harness.config import full_system
from repro.harness.experiments import (
    _workload,
    fig11_kernel_speedup,
    fig15_scheduler_predictor,
    fig19_combo_schedulers,
)
from repro.memories import DEFAULT_SPECS
from repro.obs.export import result_payload
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from tests.prophelpers import (
    PLAN_TABLE_SCHEDULERS,
    SCHEDULERS,
    device_loss_plan,
    make_jobs,
    random_plan,
    run_batch,
    serve_overloaded,
    trace_key,
)

#: sha256 per scenario, generated with the table printer below.
GOLDEN = {
    "batch[0-ljf]": "371490b6fcb14e96a10f0724562da01d57006a56f2794f05ed99678cba2811ba",
    "batch[0-adaptive]": "61826d8a0cf5a74d24b838751832759ce1fc87ae6ac1c3308e52d8b5883773c2",
    "batch[0-global]": "f9ea2c1076fbb44c630e06d9a0e6a9ce94f927488f56c82884828420389269cf",
    "batch[0-ewt]": "8449919d6818a05005aab7a9e2e6b1b55a2dc441fa3c9ce94171b04dd6a80ed1",
    "batch[7-ljf]": "977764527c97693642dc853fadbac50df49d8e10d4c52318631b9329f7fe0f47",
    "batch[7-adaptive]": "d6a80b26eabf340ef912c6a235a67fdd038a70411df49683d0b0b0ae980b4060",
    "batch[7-global]": "14d38e088ea17f21f93aa40c556e03f82dd280f82cc84a3e36de71abfa214941",
    "batch[7-ewt]": "69daabc0be557340a8633d1462438ec5c2bacdebf8d20850b7b27c5c1c61586d",
    "combo[A]": "aba78c54b09bc14116d859cbc6b80b61dd37a27420ea99968838d4331839dff5",
    "combo[D]": "d7431a017bfa70f8dfaa704f3d0561546fd56f91c6825d32c320e3735591b1a1",
    "fig11": "65f9b2305d5384ded3062e963395c544773611156da7206e4dfc416663ddd9c4",
    "fig15": "ea6b6bd08fe38b0bf2304ac0d741080c630f8a187362516b62269cddad34b99d",
    "fig19": "b3a649ef74be6d9b294702874cc1c68f12cd3f270597e6442c4cc1a569cd51ca",
    "faults[ljf]": "87634d8db9d6b83302d563339ca5984312484f4f699ef95de0046fbef497b5cc",
    "faults[adaptive]": "228aabaa18cf1e4033963d95882ce624dcdda1bb57e46f3d0321e45c537cbe20",
    "faults[global]": "6841f8ad429845ee7956f732a567f42e46986e16cb1d57322d43709a9d61c1fd",
    "faults[ewt]": "09ebb13844c548c1df97845435a2b496e3d07cdcf45c7b5e8721e107d5464f56",
    "serving": "0d67e532a862fe811ffacf6ce6ee11a54c6b16016180408d385e6bfc3a581430",
    "serving_faults[adaptive]": "0129d44f6a1ee3760e30529cc5aecf79cd5eba8c564aa2cb92440349d092477f",
    "serving_faults[ewt]": "2c30bece5139c2bce4af52a5e45f301995d4669f632a5cb38f89e311892800f6",
    "serving_faults[global]": "1d04346839045f5349324cf93171d6c95d719ffce19785a1bfcaf9d8ece5b134",
}


def digest(value) -> str:
    """sha256 of ``value`` as sorted JSON (floats keep every digit)."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def batch_outputs(result) -> dict:
    return {
        "trace": trace_key(result),
        "makespan": result.makespan,
        "payload": result_payload(result),
    }


def batch(scheduler, seed):
    return batch_outputs(run_batch(scheduler, make_jobs(seed)))


def combo(name):
    return batch_outputs(run_batch("global", combo_jobs(name, DEFAULT_SPECS)))


def fig11():
    return fig11_kernel_speedup("collab").to_json_dict()


def fig15():
    mlp = _workload("collab").train_predictor()
    return fig15_scheduler_predictor("collab", mlp=mlp).to_json_dict()


def fig19():
    return fig19_combo_schedulers(("A", "B")).to_json_dict()


def faults(scheduler):
    plan = random_plan(3, 0.05, n_events=6)
    result = run_batch(scheduler, make_jobs(3), faults=plan)
    outputs = batch_outputs(result)
    outputs["failed_jobs"] = result.failed_jobs
    outputs["fault_summary"] = result.fault_summary
    return outputs


def serving():
    runtime = ServingRuntime(full_system(), scheduler="adaptive")
    served = runtime.serve(
        PoissonArrivals(rate=2e3, horizon=0.02, seed=7, tenants=("a", "b")),
        tenants=[Tenant("a"), Tenant("b", weight=2.0)],
        slo_s=0.01,
    )
    return {
        "report": served.report.as_dict(),
        "trace": trace_key(served.result),
    }


def serving_faults(scheduler):
    """Overloaded seeded serve that loses ReRAM at 0.5 ms: by then
    hundreds of jobs have completed, and the policy holds queued and
    in-flight jobs that it must re-place from its plan table."""
    plan = device_loss_plan()
    served = serve_overloaded(scheduler, horizon=0.001, faults=plan)
    return {
        "report": served.report.as_dict(),
        "trace": trace_key(served.result),
        "failed_jobs": served.result.failed_jobs,
        "fault_summary": served.result.fault_summary,
    }


#: ``name -> thunk`` for every pinned scenario, in table order.
SCENARIOS = {
    **{
        f"batch[{seed}-{scheduler}]": (lambda s=scheduler, n=seed: batch(s, n))
        for seed in (0, 7)
        for scheduler in SCHEDULERS
    },
    **{f"combo[{name}]": (lambda n=name: combo(n)) for name in ("A", "D")},
    "fig11": fig11,
    "fig15": fig15,
    "fig19": fig19,
    **{
        f"faults[{scheduler}]": (lambda s=scheduler: faults(s))
        for scheduler in SCHEDULERS
    },
    "serving": serving,
    **{
        f"serving_faults[{scheduler}]": (lambda s=scheduler: serving_faults(s))
        for scheduler in PLAN_TABLE_SCHEDULERS
    },
}


def check(name: str) -> None:
    assert digest(SCENARIOS[name]()) == GOLDEN[name], name


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", (0, 7))
def test_batch_trace_digest(scheduler, seed):
    check(f"batch[{seed}-{scheduler}]")


@pytest.mark.parametrize("combo", ("A", "D"))
def test_fig19_combo_trace_digest(combo):
    check(f"combo[{combo}]")


def test_fig11_scenario_digest():
    check("fig11")


def test_fig15_scenario_digest():
    check("fig15")


def test_fig19_scenario_digest():
    check("fig19")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_seeded_fault_run_digest(scheduler):
    check(f"faults[{scheduler}]")


def test_seeded_serving_report_digest():
    check("serving")


@pytest.mark.parametrize("scheduler", PLAN_TABLE_SCHEDULERS)
def test_seeded_faulted_serving_digest(scheduler):
    check(f"serving_faults[{scheduler}]")


if __name__ == "__main__":
    for name, thunk in SCENARIOS.items():
        print(f'    "{name}": "{digest(thunk())}",')
