"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import worker  # noqa: E402

WORKLOAD_MODULES = ("wl_certify", "wl_aoi_sweep", "wl_drift_scan")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert sum(v > harness.percentile(values, 90) for v in values) == 10
    assert harness.rank(90, 103) == 93  # ceil(92.7)
    assert harness.rank(90, 10) == 9
    assert harness.percentile([3.0], 90) == 3.0
    assert harness.percentile(list(reversed(values)), 50) == 50
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.rank(0, 10)


@pytest.mark.parametrize("name", WORKLOAD_MODULES)
def test_generated_inputs_repeat_exactly_for_a_seed(name):
    wl = __import__(name)
    first, again, other = wl.generate(7), wl.generate(7), wl.generate(8)
    assert first == again
    assert first != other
    assert len(first) >= 20
    # The same task classes in the same numbers for every seed.
    kinds = sorted(t.kind for t in first)
    assert kinds == sorted(t.kind for t in other)
    assert wl.warmup(first) in first
    assert wl.PROBE_REF_S > 0 and wl.probe() is None


def _fake_workload(run, check=lambda task, result, ctx: []):
    return SimpleNamespace(run=run, check=check, check_job=lambda outcomes: {},
                           probe=lambda: None)


def test_raising_or_wrong_task_counts_as_failed(tmp_path):
    ctx = harness.RunContext(tmp_path)
    task = harness.Task(0, "toy", {"x": 1})
    tr = harness.NullTracer()

    def boom(task, tr, ctx):
        raise ZeroDivisionError("no")

    raised = worker.execute(_fake_workload(boom), task, tr, ctx)
    assert raised.failed and "ZeroDivisionError" in raised.problems[0]

    wrong = worker.execute(
        _fake_workload(lambda t, tr, c: 41,
                       check=lambda t, r, c: [] if r == 42 else ["want 42"]),
        task, tr, ctx)
    assert wrong.failed and wrong.result == 41

    right = worker.execute(_fake_workload(lambda t, tr, c: 42), task, tr, ctx)
    assert not right.failed

    tasks = [harness.Task(i, "toy", {}) for i in range(3)]
    wl = _fake_workload(lambda t, tr, c: t.id)
    wl.check_job = lambda outcomes: {1: ["job-level check"]}
    rnd = worker.run_job(wl, tasks, tr, ctx)
    assert [o.failed for o in rnd.outcomes] == [False, True, False]
    assert rnd.job_s == sum(o.seconds for o in rnd.outcomes)
    assert len(rnd.probes) == len(tasks)


def test_probe_scaled_cancels_host_speed_and_takes_the_median_round():
    tasks = [harness.Task(i, "toy", {}) for i in range(3)]

    def outcomes(*seconds):
        return [harness.Outcome(t, None, s) for t, s in zip(tasks, seconds)]

    # Round 2 runs on a host twice as slow: tasks and probes both double.
    rounds = [outcomes(1.0, 2.0, 3.0), outcomes(2.0, 4.0, 6.0), outcomes(1.0, 2.0, 9.0)]
    probes = [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
    assert harness.probe_scaled(rounds, probes, 0.25) == [0.5, 1.0, 1.5]
    # The first task's probe is the one after it; later tasks use the mean
    # of the probes before and after.
    assert harness.probe_scaled([outcomes(1.0, 3.0, 1.0)], [[0.5, 1.0, 0.5]], 1.0) == [
        2.0, 4.0, 4.0 / 3.0]


def test_certify_efficiency_pairs_are_the_same_for_every_seed():
    import wl_certify

    def pairs(seed):
        return sorted((t.inputs["eta_l"], t.inputs["eta_s"])
                      for t in wl_certify.generate(seed) if t.kind == "verdict")

    assert pairs(1) == pairs(2) == sorted(wl_certify.efficiency_pairs(20))
    assert sum(l != s for l, s in pairs(1)) == 14


def test_tracer_spans_share_task_and_parent():
    tr = harness.Tracer()
    tr.task = 5
    with tr.span("task.toy"):
        value = tr.call(harness.median, [3, 1, 2])
        tr.count("things", 2)
    assert value == 2
    root, child = tr.spans
    assert child.name == "harness.median"
    assert (child.parent, child.task, root.parent, root.task) == (0, 5, None, 5)
    assert root.start <= child.start <= child.end <= root.end
    assert tr.counters["things"] == 2


def test_layer_metrics_cover_every_worker_metric():
    names = {n for n, _, _ in harness.PER_LAYER}
    from_parent = {n for n in names if n.startswith(("setup.import.", "trace."))}
    values = harness.layer_metrics(harness.Tracer())
    assert set(values) == names - from_parent
    assert all(v == 0.0 for v in values.values())


def test_parse_importtime_attributes_to_nearest_package():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     _stdlib_a",
        "import time:       200 |        300 |   numpy.core",
        "import time:        50 |        350 | numpy",
        "import time:        30 |         30 |     numpy.linalg",
        "import time:        70 |         70 |     _stdlib_b",
        "import time:       400 |        500 |   scipy.optimize",
        "import time:        10 |         10 |   argparse",
        "import time:        20 |        530 | timebin_analyzer.verify",
    ])
    got = harness.parse_importtime(sample)
    assert got == pytest.approx({"numpy": 380e-6, "scipy": 470e-6,
                                 "timebin_analyzer": 30e-6})


def test_benchmark_json_matches_the_harness_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in harness.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in harness.PER_LAYER
    ]
    assert spec["workloads"] == [
        {"name": wl.NAME, "why": wl.WHY} for wl in map(__import__, WORKLOAD_MODULES)
    ]


def test_smoke_runs_every_workload_and_checks_outputs():
    proc = _run("--workload", "all", "--size", "smoke", "--seconds", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{n}" for w in ("certify", "aoi_sweep", "drift_scan")
                for n, _, _, _ in harness.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("setup_s", "job_s", "task_p50_ms", "task_p90_ms", "peak_rss_mb",
                 "fail_ratio"):
        assert name in proc.stdout


def test_smoke_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "drift_scan", "--size", "smoke", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {n for n, _, _ in harness.PER_LAYER}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] > 0 and metrics["chsh.buckets"] > 0
    assert metrics["setup.import.numpy_s"] > 0


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "certify", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
