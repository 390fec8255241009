"""One benchmark process: set up a workload, then run timed passes.

Started by ``run.py``; not meant to be run by hand.  It prints
``READY <calibration seconds>`` as soon as set-up is done (``run.py``
times the gap from spawning this process to that line as one
``setup_s`` sample), then runs H/2H pass pairs until its time budget
is spent -- always at least one pair -- and prints one JSON object
with every pass record.

``--mode trace`` alternates untraced and traced pairs instead, so the
traced run can report its own overhead against untraced passes of the
same process and configuration.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import calibrate  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's (the cluster
    shard workers') peak resident set, in MiB (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layer_snapshot(tracer: Tracer) -> dict:
    return {
        name: {
            "calls": s.calls,
            "total_s": s.total_s,
            "self_s": s.self_s,
            "items_in": s.items_in,
            "items_out": s.items_out,
        }
        for name, s in tracer.stats.items()
    }


class Runner:
    """Runs passes, each bracketed by calibrations (see calibration.py)."""

    def __init__(self, workload, calibration_s: float) -> None:
        self.workload = workload
        self.calibration_s = calibration_s

    def pair(self, tracer: Tracer | None = None) -> list[dict]:
        records = []
        self.workload.tracer = tracer
        for size in (1, 2):
            record = self.workload.run_pass(size)
            after = calibrate()
            record["calibration_s"] = (self.calibration_s + after) / 2
            self.calibration_s = after
            record["traced"] = tracer is not None
            if tracer is not None:
                record["layers"] = _layer_snapshot(tracer)
                record["missing_targets"] = list(tracer.missing)
            records.append(record)
        return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), default="timed")
    args = parser.parse_args()

    tracing = args.mode == "trace"
    workload = WORKLOADS[args.workload](args.seed, in_process=tracing)
    calibration_s = calibrate()
    # run.py subtracts this calibration from the set-up time it measures.
    print(f"READY {calibration_s!r}", flush=True)

    start = time.perf_counter()
    passes: list[dict] = []
    runner = Runner(workload, calibration_s)
    tracer = Tracer() if tracing else None
    while True:
        pair_start = time.perf_counter()
        passes.extend(runner.pair())
        if tracer is not None:
            passes.extend(runner.pair(tracer))
        last = time.perf_counter() - pair_start
        # Stop when another round would overrun the budget.
        if time.perf_counter() - start + last > args.budget:
            break
    timed = time.perf_counter() - start
    print(
        json.dumps({"passes": passes, "timed_s": timed, "peak_rss_mb": _peak_rss_mb()}),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
