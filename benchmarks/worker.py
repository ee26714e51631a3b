"""One workload in one fresh interpreter; started by ``run.py``.

Modes:
  import  import the workload module (and so the library) and exit; run
          under ``python -X importtime`` to split import cost by package.
  setup   also build the inputs and run the warm-up task, print
          SETUP_DONE, then time the workload's probe and print
          ``SETUP_SCALE <reference over probe seconds>`` and exit.
  job     after SETUP_DONE, run the job as a closed loop (one client, the
          next task only after the previous one finished) and print one
          ``RESULT <json>`` line.  Without --trace the job runs in rounds,
          MIN_ROUNDS of them and then more while another is predicted to
          fit in --seconds, with the workload's probe timed after every
          task; each task's time is scaled by the probe times around it
          (``harness.probe_scaled``).  With --trace it runs one untraced and one traced
          round, in an order set by the seed's parity.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import importlib.metadata
import json
import math
import re
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MAX_FAILURES_LISTED = 20
# On a shared 2-core VM, other load slowed single task runs by up to 1.8x
# in bursts of seconds, and whole half-minute runs by up to 1.5x; the
# probe timed around each task cancels most of it, and the median over
# at least three rounds most of the rest.
MIN_ROUNDS = 3
# Probe runs timed right after the set-up, to scale it as the tasks are.
SETUP_PROBES = 5


def execute(wl, task, tr, ctx) -> harness.Outcome:
    """Run one task and check its output; a raise or a wrong output fails it."""
    tr.task = task.id
    start = time.perf_counter()
    try:
        with tr.span("task." + task.kind):
            result = wl.run(task, tr, ctx)
    except Exception as exc:  # the job goes on; the task counts as failed
        seconds = time.perf_counter() - start
        return harness.Outcome(task, None, seconds, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        problems = wl.check(task, result, ctx)
    except Exception as exc:  # a check that cannot judge the output fails the task
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return harness.Outcome(task, result, seconds, problems)


@dataclass
class Round:
    """One pass over every task of the job."""

    traced: bool
    tracer: object
    outcomes: list
    probes: list  # seconds of the workload's probe, one after each task

    @property
    def job_s(self) -> float:
        """The tasks back to back; the output checks and probes are excluded."""
        return sum(o.seconds for o in self.outcomes)


def run_job(wl, tasks, tr, ctx) -> Round:
    outcomes, probes = [], []
    for t in tasks:
        outcomes.append(execute(wl, t, tr, ctx))
        start = time.perf_counter()
        wl.probe()
        probes.append(time.perf_counter() - start)
    by_id = {o.task.id: o for o in outcomes}
    for task_id, problems in wl.check_job(outcomes).items():
        by_id[task_id].problems.extend(problems)
    return Round(isinstance(tr, harness.Tracer), tr, outcomes, probes)


def blas_threads():
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        cdll = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def software():
    import numpy

    return {
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
    }


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def work(wl, args, ctx) -> dict:
    tasks = wl.generate(args.seed, args.size)
    null = harness.NullTracer()
    warm = execute(wl, wl.warmup(tasks), null, ctx)
    print("SETUP_DONE", flush=True)
    wl.probe()
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        wl.probe()
        probes.append(time.perf_counter() - start)
    print(f"SETUP_SCALE {wl.PROBE_REF_S / harness.median(probes)!r}", flush=True)
    if args.mode == "setup":
        return None

    plan = [False, True] if args.seed % 2 == 0 else [True, False]
    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and plan[len(rounds)]
        rounds.append(run_job(wl, tasks, harness.Tracer() if traced else null, ctx))
        if args.trace:
            if len(rounds) == 2:
                break
            continue
        elapsed = time.perf_counter() - start
        if (len(rounds) >= MIN_ROUNDS
                and elapsed + harness.median([r.job_s for r in rounds]) > args.seconds):
            break

    untraced = [r for r in rounds if not r.traced]
    times = harness.probe_scaled([r.outcomes for r in untraced],
                                 [r.probes for r in untraced], wl.PROBE_REF_S)
    raw = [harness.median([r.outcomes[i].seconds for r in untraced])
           for i in range(len(tasks))]
    failed_ids = {o.task.id for r in untraced for o in r.outcomes if o.failed}
    # A failed task misses any latency limit, so it ranks as infinitely slow.
    latencies = [math.inf if t.id in failed_ids else 1e3 * s
                 for t, s in zip(tasks, times)]
    everything = [warm] + [o for r in rounds for o in r.outcomes]
    failures = {}
    for o in everything:
        if o.failed and o.task.id not in failures:
            failures[o.task.id] = {"task": o.task.id, "kind": o.task.kind,
                                   "inputs": o.task.inputs, "problems": o.problems}
    result = {
        "workload": wl.NAME,
        "why": wl.WHY,
        "tasks": len(tasks),
        "rounds": [{"traced": r.traced, "job_s": r.job_s} for r in rounds],
        "job_s": sum(times),
        "raw_job_s": sum(raw),
        "probe": {"median_s": harness.median([p for r in untraced for p in r.probes]),
                  "reference_s": wl.PROBE_REF_S, "scale": sum(times) / sum(raw)},
        "samples": len(latencies),
        "task_p50_ms": _finite_or_none(harness.percentile(latencies, 50)),
        "task_p90_ms": _finite_or_none(harness.percentile(latencies, 90)),
        "beyond_p90": len(latencies) - harness.rank(90, len(latencies)),
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
        "failures": list(failures.values())[:MAX_FAILURES_LISTED],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traffic": wl.traffic(untraced[0].outcomes),
        "task_ms": [[t.id, t.kind, 1e3 * s] for t, s in zip(tasks, times)],
        "round_task_ms": [[1e3 * o.seconds for o in r.outcomes] for r in untraced],
        "round_probe_ms": [[1e3 * p for p in r.probes] for r in untraced],
        "software": software(),
    }
    traced = [r for r in rounds if r.traced]
    if traced:
        rep = traced[0]
        result["traced_job_s"] = rep.job_s
        result["layers"] = harness.layer_metrics(rep.tracer)
        spans_file = OUT_DIR / f"spans_{wl.NAME}_seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": wl.NAME, "seed": args.seed,
            "fields": ["name", "start", "end", "parent", "task"],
            "spans": [sp.as_list() for sp in rep.tracer.spans],
            "counters": dict(rep.tracer.counters),
        }))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("import", "setup", "job"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = importlib.import_module(f"wl_{args.workload}")
    if args.mode == "import":
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    ctx = harness.RunContext(Path(tempfile.mkdtemp(prefix=f"{wl.NAME}-", dir=OUT_DIR)))
    try:
        result = work(wl, args, ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    if result is not None:
        print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
