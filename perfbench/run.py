"""MLIMP end-to-end benchmark: serve, cluster, replay and the paper figures.

Run from the repository root::

    python3 perfbench/run.py --workload serve-adaptive --seed 1 --seconds 20 --trace 0

``--trace 0`` starts three worker processes one after another.  Each
sets the workload up from scratch (one ``setup_s`` sample) and then
runs H/2H pass pairs for its share of ``--seconds`` (at least one pair
each).  The end-to-end metrics are medians over all passes.
``--trace 1`` starts one worker that alternates untraced and traced
pass pairs for ``--seconds`` and reports the per-layer metrics, the
tracing overhead among them.

Every pass is checked: offered = completed + shed + failed, the
report's per-tenant quantiles match the per-job data, and the sha256
of the simulated outputs repeats across every pass of one size (all
workers, traced or not).  A pass failing a check counts in ``failed``
and makes ``correct`` false.  The last line of standard output is the
result object; the line before it carries the digests, sample counts
and the sim-time outcome figures.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import selectors
import signal
import subprocess
import sys
import time
from collections import Counter
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import at_reference, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per timed run (one per worker process).
SETUP_SAMPLES = 3
#: Whole-run deadline: workers still running after it are killed and
#: the run fails without a result.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _run_worker(
    workload: str, seed: int, budget: float, mode: str, deadline: float
) -> tuple[float, dict]:
    """Spawn one worker; return (set-up seconds at reference speed, output).

    Set-up runs from spawning the worker to its READY line, less the
    calibration the worker ran just before printing it; the machine
    speed is the mean of that calibration and one taken here right
    before the spawn.  ``deadline`` is a ``perf_counter`` value."""
    before = calibrate()
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--mode", mode,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise BenchError(f"{workload}: worker set-up timed out")
            line = proc.stdout.readline()
        setup = time.perf_counter() - start
        tag, _, value = line.strip().partition(" ")
        if tag != "READY":
            raise BenchError(f"{workload}: worker failed during set-up")
        after = float(value)
        setup = at_reference(setup - after, (before + after) / 2)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{workload}: worker printed no result")
        return setup, json.loads(lines[-1])
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: worker timed out") from error
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _exponent(cost_h: float, size_h: float, cost_2h: float, size_2h: float) -> float:
    """Growth of cost with size: 1 is linear, 2 quadratic."""
    return math.log(cost_2h / cost_h) / math.log(size_2h / size_h)


def _check(passes: list[dict]) -> tuple[int, dict[int, str], list[str]]:
    """Count failed passes; return (failed, digest per size, messages)."""
    digests: dict[int, str] = {}
    messages: list[str] = []
    for size in (1, 2):
        seen = Counter(p["digest"] for p in passes if p["size"] == size)
        digests[size] = seen.most_common(1)[0][0]
        if len(seen) > 1:
            messages.append(f"size {size}: outputs differ across passes: {dict(seen)}")
    failed = 0
    for p in passes:
        bad = bool(p["errors"]) or p["digest"] != digests[p["size"]]
        failed += bad
        messages.extend(f"size {p['size']}: {e}" for e in p["errors"])
    return failed, digests, messages


def _outcome(p: dict) -> dict:
    """Sim-time outcome of one pass (identical across passes of a size)."""
    offered = p["offered"]
    return {
        "offered": offered,
        "completed": p["completed"],
        "shed": p["shed"],
        "failed": p["failed"],
        "lost": p["lost"],
        # Over offered jobs: shed, failed and lost jobs all miss.
        "slo_goodput": p["met_slo"] / offered if p["met_slo"] is not None else None,
        "failed_frac": (p["shed"] + p["failed"]) / offered,
        "sojourn_samples": p["n_sojourn"],
        "makespan_s": p["makespan_s"],
    }


def _wall(p: dict) -> float:
    """Host seconds of a pass's timed region at reference speed."""
    return at_reference(p["wall_s"], p["calibration_s"])


def _sized(p: dict) -> tuple[float, float]:
    """(raw host seconds, jobs) of the part of a pass that scales with
    size.  Raw: an H pass and its 2H twin run back to back, so their
    ratio already cancels machine speed, and a calibration would only
    add its own noise."""
    if "sized_wall_s" in p:
        return p["sized_wall_s"], p["sized_jobs"]
    return p["wall_s"], p["offered"]


def end_to_end(setups: list[float], passes: list[dict], rss: list[float]) -> dict:
    big = [p for p in passes if p["size"] == 2]
    small = [p for p in passes if p["size"] == 1]
    exponents = [_exponent(*_sized(h), *_sized(b)) for h, b in zip(small, big)]
    ref = big[0]
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([_wall(p) for p in big]), "s"),
        "jobs_per_s": (median([p["offered"] / _wall(p) for p in big]), "1/s"),
        "cost_exponent": (median(exponents), "ratio"),
        "peak_rss_mb": (median(rss), "MiB"),
        "sim_makespan_us": (ref["makespan_s"] * 1e6, "us"),
        "sojourn_p99_us": (ref["p99_s"] * 1e6, "us"),
    }


def _cache(p: dict, name: str) -> tuple[float, int]:
    stats = p["caches"].get(name, {})
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    return (stats.get("hits", 0) / lookups if lookups else 0.0), lookups


def _layer_metrics(traced_h: dict, traced: dict, untraced_wall: float, events: float) -> dict:
    """Per-layer metrics of one traced 2H pass (``traced_h``: its H twin)."""
    layers = traced["layers"]
    public = traced["public"]

    def self_s(name):
        return layers[name]["self_s"]

    def calls(name):
        return layers[name]["calls"]

    admit, admit_h = layers["core.scheduler.admit"], traced_h["layers"]["core.scheduler.admit"]
    admission = layers["serving.admission"]
    per_call = admit["total_s"] / admit["calls"] if admit["calls"] else 0.0
    per_call_h = admit_h["total_s"] / admit_h["calls"] if admit_h["calls"] else 0.0
    knee_ratio, knee_lookups = _cache(traced, "perfmodel.knee")
    grid_ratio, grid_lookups = _cache(traced, "perfmodel.grid")
    min_ratio, min_lookups = _cache(traced, "perfmodel.min_time")
    outcome = _outcome(traced)
    attributed = sum(layer["self_s"] for layer in layers.values())
    metrics = {
        "serving.arrivals.calls": (calls("serving.arrivals"), "count"),
        "serving.arrivals.self_s": (self_s("serving.arrivals"), "s"),
        "serving.tenants.calls": (calls("serving.tenants"), "count"),
        "serving.tenants.self_s": (self_s("serving.tenants"), "s"),
        "serving.tenants.shed_queue_full": (public.get("shed_queue_full", 0), "count"),
        "serving.admission.calls": (admission["calls"], "count"),
        "serving.admission.self_s": (admission["self_s"], "s"),
        "serving.admission.accept_ratio": (
            admission["items_out"] / admission["items_in"] if admission["items_in"] else 0.0,
            "ratio",
        ),
        "core.scheduler.admit.calls": (admit["calls"], "count"),
        "core.scheduler.admit.self_s": (admit["self_s"], "s"),
        "core.scheduler.admit.us_per_call": (per_call * 1e6, "us"),
        "core.scheduler.admit.exponent": (
            _exponent(per_call_h, traced_h["offered"], per_call, traced["offered"])
            if per_call_h > 0 and per_call > 0
            else 0.0,
            "ratio",
        ),
        "core.scheduler.dispatch.calls": (calls("core.scheduler.dispatch"), "count"),
        "core.scheduler.dispatch.self_s": (self_s("core.scheduler.dispatch"), "s"),
        "core.scheduler.notify.calls": (calls("core.scheduler.notify"), "count"),
        "core.scheduler.notify.self_s": (self_s("core.scheduler.notify"), "s"),
        "core.scheduler.reject_ratio": (
            admit["items_out"] / admit["items_in"] if admit["items_in"] else 0.0,
            "ratio",
        ),
        "core.scheduler.adjustments.calls": (calls("core.scheduler.adjustments"), "count"),
        "core.scheduler.adjustments.self_s": (self_s("core.scheduler.adjustments"), "s"),
        "core.perfmodel.calls": (calls("core.perfmodel"), "count"),
        "core.perfmodel.self_s": (self_s("core.perfmodel"), "s"),
        "core.perfmodel.knee.hit_ratio": (knee_ratio, "ratio"),
        "core.perfmodel.knee.lookups": (knee_lookups, "count"),
        "core.perfmodel.grid.hit_ratio": (grid_ratio, "ratio"),
        "core.perfmodel.grid.lookups": (grid_lookups, "count"),
        "core.perfmodel.min_time.hit_ratio": (min_ratio, "ratio"),
        "core.perfmodel.min_time.lookups": (min_lookups, "count"),
        "core.predictor.calls": (calls("core.predictor"), "count"),
        "core.predictor.self_s": (self_s("core.predictor"), "s"),
        "core.dispatcher.self_s": (self_s("core.dispatcher"), "s"),
        "core.dispatcher.launches": (public.get("launches", 0), "count"),
        "sim.engine.events": (events, "count"),
        "sim.engine.events_per_s": (events / untraced_wall, "1/s"),
        "cluster.placement.calls": (calls("cluster.placement"), "count"),
        "cluster.placement.self_s": (self_s("cluster.placement"), "s"),
        "cluster.placement.handoff_ratio": (public.get("handoff_ratio", 0.0), "ratio"),
        "cluster.placement.migrations": (public.get("migrations", 0), "count"),
        "cluster.links.queued_ratio": (public.get("queued_ratio", 0.0), "ratio"),
        "cluster.links.queue_delay_p95_us": (public.get("queue_delay_p95_s", 0.0) * 1e6, "us"),
        "cluster.runtime.self_s": (self_s("cluster.runtime"), "s"),
        "cluster.report.self_s": (self_s("cluster.report"), "s"),
        "serving.report.self_s": (self_s("serving.report"), "s"),
        "obs.export.self_s": (self_s("obs.export"), "s"),
        "obs.analytics.self_s": (self_s("obs.analytics"), "s"),
        "obs.metrics.hist_samples": (traced["hist_samples"], "count"),
        "obs.metrics.gauge_samples": (traced["gauge_samples"], "count"),
        "serving.autoscale.calls": (calls("serving.autoscale"), "count"),
        "serving.autoscale.self_s": (self_s("serving.autoscale"), "s"),
        "serving.autoscale.scale_changes": (public.get("scale_changes", 0), "count"),
        "outcome.slo_goodput": (outcome["slo_goodput"] or 0.0, "ratio"),
        "outcome.failed_frac": (outcome["failed_frac"], "ratio"),
        "outcome.slo_attainment_completed": (
            public.get("slo_attainment_completed", 0.0),
            "ratio",
        ),
        "outcome.sojourn_p50_us": (traced["p50_s"] * 1e6, "us"),
        "outcome.sojourn_samples": (traced["n_sojourn"], "count"),
        "unattributed.self_s": (traced["wall_s"] - attributed, "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead": (_wall(traced) / untraced_wall, "ratio"),
        "trace.missing_targets": (len(traced["missing_targets"]), "count"),
    }
    return metrics


def per_layer(passes: list[dict]) -> dict:
    untraced = [p for p in passes if not p["traced"] and p["size"] == 2]
    untraced_wall = median([_wall(p) for p in untraced])
    events = median([p["counters"].get("sim.events", 0.0) for p in untraced])
    traced = [p for p in passes if p["traced"]]
    pairs = [(traced[i], traced[i + 1]) for i in range(0, len(traced), 2)]
    samples = [_layer_metrics(h, big, untraced_wall, events) for h, big in pairs]
    metrics = {
        name: (median([s[name][0] for s in samples]), unit)
        for name, (_, unit) in samples[0].items()
    }
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so _run_worker's cleanup kills and
    # reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds the sampled batches)")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if args.trace:
            _, out = _run_worker(args.workload, args.seed, args.seconds, "trace", deadline)
            setups, passes, rss = [], out["passes"], [out["peak_rss_mb"]]
        else:
            setups, passes, rss = [], [], []
            spent = 0.0
            for i in range(SETUP_SAMPLES):
                # Each worker gets an equal share of what is left, so a
                # worker that overran its share shortens the next ones.
                budget = max(0.0, args.seconds - spent) / (SETUP_SAMPLES - i)
                setup, out = _run_worker(args.workload, args.seed, budget, "timed", deadline)
                spent += out["timed_s"]
                setups.append(setup)
                passes.extend(out["passes"])
                rss.append(out["peak_rss_mb"])
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    failed, digests, messages = _check(passes)
    for message in messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(setups, passes, rss)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digests": {"H": digests[1], "2H": digests[2]},
        "outcome_2H": _outcome(next(p for p in passes if p["size"] == 2)),
        "outcome_H": _outcome(next(p for p in passes if p["size"] == 1)),
        "passes": len(passes),
        "setup_samples_s": setups,
        "raw_wall_H_s": [p["wall_s"] for p in passes if p["size"] == 1 and not p["traced"]],
        "raw_wall_2H_s": [p["wall_s"] for p in passes if p["size"] == 2 and not p["traced"]],
        "calibration_s": [p["calibration_s"] for p in passes],
        "node_sims_in_process": bool(args.trace),
        "missing_targets": sorted({t for p in passes for t in p.get("missing_targets", [])}),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(passes),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
