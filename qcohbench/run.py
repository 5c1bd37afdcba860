"""qcoh benchmark: one workload, one seed, one run.

    python3 qcohbench/run.py --workload duality-sharp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; qcoh is imported from its ``src/``. Every
process is single-threaded (BLAS/OpenMP pinned to one thread) and runs one
workload only. Set-up (interpreter start, ``import qcoh`` and generating the
seeded inputs) is done SETUP_RUNS times, each in a fresh process, and its
median is reported. The measuring process then runs the workload's tasks for
at least ``--seconds`` and checks every answer against ``expected.json``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from a traced pass that follows an untraced one. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Timings compare only at equal seed, because the seed relabels the
group elements and that changes the work done.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON of its last line."""
    # a system-wide clock, so the child can time its own start from this stamp
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_worker([*common, "--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    info = result["info"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':48s} {info['fail_ratio']:>14.6g} 1  ({result['failed']}/{result['attempted']} tasks)")
    if not args.trace:
        for name in ("task_s.p50", "task_s.tail"):
            print(f"  {name:48s} {info[name]:>14.6g} s")
        print(
            f"  task_s samples: {info['task_samples']} over {info['passes']} pass(es); "
            f"tail is the slowest task; setup runs: {len(setups)}"
        )
    else:
        print(f"  call counts repeat across two traced passes: {info['counts_repeat']}")
    for task, answer in info["failures"].items():
        print(f"  FAILED {task}: {answer}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
