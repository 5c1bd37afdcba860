"""One benchmark process: set up one workload, run its tasks, report metrics.

Started by ``run.py``, which passes the CLOCK_MONOTONIC time at which it
spawned this process; set-up time runs from then until the interpreter is up,
``qcoh`` is imported and the seeded inputs exist. Prints one JSON line: the
set-up time only with ``--setup-only``, else also the counts and metrics of
the run.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (imports qcoh from the checkout's src/)

_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


@dataclass
class Pass:
    wall_s: float
    task_s: list[float] = field(default_factory=list)
    answers: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def canonical(answer: object) -> object:
    return json.loads(json.dumps(answer))


def run_pass(tasks: list, inputs: dict, expected: dict, tracer=None) -> Pass:
    """All tasks once, in order; a wrong or raising task is a failure and the pass goes on."""
    state = dict(inputs)
    done = Pass(0.0)
    start = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        t0 = time.perf_counter()
        try:
            answer = canonical(task.run(state))
        except Exception as exc:  # noqa: BLE001  (counted as a failed task)
            answer = f"raised {type(exc).__name__}: {exc}"
        done.task_s.append(time.perf_counter() - t0)
        done.answers[task.id] = answer
        if answer != expected.get(task.id):
            done.failures.append(task.id)
    done.wall_s = time.perf_counter() - start
    return done


def rss_mb() -> float:
    """Resident memory now, after collecting garbage and returning free heap to the OS."""
    gc.collect()
    _LIBC.malloc_trim(0)
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_metrics(passes: list[Pass]) -> tuple[dict, dict]:
    samples = [t for p in passes for t in p.task_s]
    # every pass runs the same tasks in the same order
    per_task = [statistics.median(times) for times in zip(*(p.task_s for p in passes))]
    metrics = {"wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"}}
    # Printed, not gated: a statistic of one to seven unlike tasks moves more
    # from run to run than the bound allows. No workload has the eleven tasks
    # that a percentile with ten beyond it needs, so the tail is the slowest
    # task, by its median over passes.
    info = {
        "task_s.p50": statistics.median(samples),
        "task_s.tail": max(per_task),
        "passes": len(passes),
        "task_samples": len(samples),
    }
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    if not Path(workloads.qcoh.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qcoh was imported from {workloads.qcoh.__file__}, not from this checkout's src/")

    inputs, tasks = workloads.make(args.workload, args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    base_mb = rss_mb()
    start = time.perf_counter()
    first = run_pass(tasks, inputs, expected)
    # memory is taken after the first pass, so the number of passes cannot move it
    retained_mb = rss_mb() - base_mb
    peak_mb = peak_rss_mb()
    passes = [first]
    counts_repeat = True
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced = run_pass(tasks, inputs, expected, tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced.wall_s - first.wall_s, "unit": "s"}
        counts = tracer.counts()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        tracer.reset()
        again = run_pass(tasks, inputs, expected, tracer)
        counts_repeat = tracer.counts() == counts
        passes += [traced, again]
        info = {"passes": len(passes), "counts_repeat": counts_repeat}
    else:
        # whole passes only, while the next one is expected to end within --seconds
        while time.perf_counter() - start + passes[-1].wall_s <= args.seconds:
            passes.append(run_pass(tasks, inputs, expected))
        metrics, info = timed_metrics(passes)
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        metrics["retained_mb"] = {"value": retained_mb, "unit": "MB"}

    attempted = sum(len(p.task_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    same_answers = all(p.answers == first.answers for p in passes)
    info["fail_ratio"] = failed / attempted
    info["failures"] = {t: p.answers[t] for p in passes for t in p.failures}
    result = {
        "correct": failed == 0 and same_answers and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "setup_s": setup_s,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
