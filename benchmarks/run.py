"""Benchmark of timebin-analyzer: three seeded workloads, checked outputs.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 38 --trace 0
    python3 benchmarks/run.py --workload all      # certify, aoi_sweep, drift_scan
    python3 -m pytest -q benchmarks/test_harness.py

Each workload runs in fresh worker processes (``worker.py``) against the
library in ``src/``, as a closed loop with one client and one BLAS
thread.  ``setup_s`` is the median, over
SETUP_SAMPLES fresh processes, of the time from process start to the
end of the warm-up task (interpreter start, imports, input generation
and any lazy set-up), each scaled by the workload's probe timed right
after it.  The last of those processes then runs the job in
rounds; ``job_s`` sums, and the task percentiles rank, each task's
time scaled by the workload's probe timed around it, as seconds on the
reference host (``harness.probe_scaled``).
With ``--trace 1`` the run reports the per-layer metrics instead: one
untraced and one traced round of the job, plus the import cost of
numpy, scipy and the package from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report precedes it, and a full record (machine tag, traffic, failures
with their inputs) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("certify", "aoi_sweep", "drift_scan")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A worker process failed; the run prints no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The library from src/ and one BLAS thread: the loop has one client,
    and the 6x6 eigensolves took the same wall time at twice the CPU time
    with two BLAS threads on a 2-core machine."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, seed, size, mode, seconds=0.0, trace=0):
    """Start a worker; return (seconds from start to SETUP_DONE, the
    worker's SETUP_SCALE, result)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--size", size, "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s, scale, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("SETUP_DONE") and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("SETUP_SCALE "):
                scale = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if (code != 0 or setup_s is None or scale is None
            or (mode == "job" and result is None)):
        raise BenchError(f"{mode} worker for {workload} ended with exit code {code}")
    return setup_s, scale, result


def import_times(workload) -> dict:
    """Median import seconds of numpy, scipy and timebin_analyzer."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(WORKER), "--workload", workload,
             "--mode", "import"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import of {workload} failed: {proc.stderr[-500:]}")
        samples.append(harness.parse_importtime(proc.stderr))
    return {f"setup.import.{g}_s": harness.median([s[g] for s in samples])
            for g in harness.IMPORT_GROUPS}


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the library sources, which names the code measured
    where there is no git history."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def machine_tag(software: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
               platform.processor() or None)
    mem_kb = next((int(line.split()[1]) for line in
                   _read("/proc/meminfo").splitlines() if line.startswith("MemTotal")),
                  None)
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "ram_gb": round(mem_kb / 2**20, 1) if mem_kb else None,
        "python": platform.python_version(),
        **software,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def run_workload(workload, seed, size, seconds, trace) -> dict:
    setups = []  # (unscaled seconds, scale) per fresh process
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, size, "setup")[:2])
    setup_s, scale, res = run_worker(workload, seed, size, "job", seconds, trace)
    setups.append((setup_s, scale))
    e2e = {
        "setup_s": harness.median([s * k for s, k in setups]),
        "job_s": res["job_s"],
        "task_p50_ms": res["task_p50_ms"],
        "task_p90_ms": res["task_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    layers = None
    if trace:
        layers = {**res["layers"], **import_times(workload),
                  "trace.overhead_s": res["traced_job_s"] - res["raw_job_s"]}
    record = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": trace, "why": res["why"],
        "setup_samples_s": [s for s, _ in setups],
        "setup_scales": [k for _, k in setups],
        "end_to_end": e2e, "per_layer": layers,
        "fail_ratio": res["failed"] / res["attempted"],
        **{k: res[k] for k in ("tasks", "rounds", "raw_job_s", "probe", "samples",
                               "beyond_p90", "attempted", "failed", "failures",
                               "traffic", "task_ms", "round_task_ms", "round_probe_ms")},
        "spans_file": res.get("spans_file"),
        "machine": machine_tag(res["software"]),
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result_{workload}_seed{seed}_trace{trace}.json"
    out.write_text(json.dumps(record, indent=1))
    record["record_file"] = str(out.relative_to(ROOT))
    report(record)
    return record


def _fmt(value, unit):
    return "n/a" if value is None else f"{value:.6g} {unit}"


def report(rec):
    rounds = ", ".join(f"{r['job_s']:.3f} s{' traced' if r['traced'] else ''}"
                       for r in rec["rounds"])
    print(f"== {rec['workload']} (seed {rec['seed']}, size {rec['size']}): "
          f"{rec['tasks']} tasks per job, rounds: {rounds}")
    print(f"   why: {rec['why']}")
    print(f"   traffic: {json.dumps(rec['traffic'])}")
    pr = rec["probe"]
    print(f"   speed: probe median {1e3 * pr['median_s']:.4g} ms against "
          f"{1e3 * pr['reference_s']:.4g} ms on the reference host, scale "
          f"{pr['scale']:.4f}; unscaled job_s {rec['raw_job_s']:.6g} s")
    units = {name: unit for name, unit, _, _ in harness.END_TO_END}
    for name, value in rec["end_to_end"].items():
        print(f"   {name:<13} {_fmt(value, units[name])}")
    print(f"   {'fail_ratio':<13} {rec['fail_ratio']:.6g} "
          f"({rec['failed']} failed / {rec['attempted']} attempted)")
    print(f"   latency samples: {rec['samples']} ({rec['beyond_p90']} beyond p90); "
          f"unscaled setup samples: {', '.join(f'{s:.3f}' for s in rec['setup_samples_s'])} s")
    if rec["per_layer"]:
        units = {name: unit for name, unit, _ in harness.PER_LAYER}
        for name, value in rec["per_layer"].items():
            print(f"   {name:<41} {_fmt(value, units[name])}")
        print(f"   spans: {rec['spans_file']}")
    for f in rec["failures"]:
        print(f"   FAILED task {f['task']} ({f['kind']}) inputs={json.dumps(f['inputs'])}: "
              f"{'; '.join(f['problems'])}")
    print(f"   machine: {json.dumps(rec['machine'])}")
    print(f"   record: {rec['record_file']}")


def summary(records, trace) -> dict:
    table = ([(n, u) for n, u, _ in harness.PER_LAYER] if trace
             else [(n, u) for n, u, _, _ in harness.END_TO_END])
    source = "per_layer" if trace else "end_to_end"
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name, unit in table:
            key = f"{rec['workload']}.{name}" if prefix else name
            metrics[key] = {"value": rec[source][name], "unit": unit}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny job for the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "timebin_analyzer" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.size, args.seconds, args.trace)
                   for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary(records, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
