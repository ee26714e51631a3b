"""Shared pieces of the benchmark: tasks, outcomes, the percentile rule,
spans, per-layer metrics and the ``-X importtime`` parser.

Standard library only, so that the parent process (``run.py``) stays
light and the worker pays for exactly the imports its workload needs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# (name, unit, better, bound).  The bound is the share of the parent
# commit's median by which a metric may worsen before a change counts as
# a regression.  fail_ratio is printed for every workload but is not in
# the result line's metrics: it is 0 whenever the program is correct, and
# a ratio against a zero median has no meaning; failures reach the result
# line as the ``failed`` count instead.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("task_p50_ms", "ms", "lower", 0.25),
    ("task_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better).  Each is the benchmark's own call into a public
# function of src/timebin_analyzer, timed from outside in a traced run.
PER_LAYER = [
    ("verify.sdp_feasible.calls", "count", "higher"),
    ("verify.sdp_feasible.busy_s", "s", "lower"),
    ("verify.sdp_feasible.p50_ms", "ms", "lower"),
    ("verify.sdp_feasible.evals_per_call", "count", "lower"),
    ("verify.boundary_scan.calls", "count", "higher"),
    ("verify.boundary_scan.busy_s", "s", "lower"),
    ("verify.boundary_scan.evals_per_point", "count", "lower"),
    ("verify.build_constraints.busy_s", "s", "lower"),
    ("verify.nonconvergence", "count", "lower"),
    ("verify.infeasible_share", "ratio", "lower"),
    ("states.busy_s", "s", "lower"),
    ("measurement.busy_s", "s", "lower"),
    ("waveoptics.make_field.busy_s", "s", "lower"),
    ("waveoptics.aoi_visibility_scan.calls", "count", "higher"),
    ("waveoptics.aoi_visibility_scan.busy_s", "s", "lower"),
    ("waveoptics.angles", "count", "higher"),
    ("waveoptics.relay_off.ms_per_angle", "ms", "lower"),
    ("waveoptics.relay_on.ms_per_angle", "ms", "lower"),
    ("waveoptics.errors", "count", "lower"),
    ("geometry.busy_s", "s", "lower"),
    ("analysis.expectation_vs_aoi.busy_s", "s", "lower"),
    ("chsh.simulate_drift_scan.calls", "count", "higher"),
    ("chsh.simulate_drift_scan.busy_s", "s", "lower"),
    ("chsh.simulate_drift_scan.us_per_bucket", "us", "lower"),
    ("chsh.buckets", "count", "higher"),
    ("chsh.estimate_chsh.busy_s", "s", "lower"),
    ("chsh.max_expectation_surface.busy_s", "s", "lower"),
    ("chsh.surface_cells", "count", "higher"),
    ("analysis.stability_series.busy_s", "s", "lower"),
    ("analysis.stability_series.us_per_bucket", "us", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "higher"),
    ("cli.exit_nonzero", "count", "lower"),
    ("setup.import.numpy_s", "s", "lower"),
    ("setup.import.scipy_s", "s", "lower"),
    ("setup.import.timebin_analyzer_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

@dataclass
class Task:
    """One user-level computation of a workload, with its generated inputs."""

    id: int
    kind: str
    inputs: dict


@dataclass
class RunContext:
    """Per-process state shared by the tasks of one worker."""

    workdir: Path  # scratch directory inside the checkout, removed at exit
    memo: dict = field(default_factory=dict)


@dataclass
class Outcome:
    task: Task
    result: object
    seconds: float
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def percentile(values, p: int):
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it.

    ``p`` is an integer, so the rank ceil(p * n / 100) is exact; with
    n >= 100, at least n // 10 samples lie beyond the 90th percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[rank(p, len(values)) - 1]


def rank(p: int, n: int) -> int:
    """1-based rank of the nearest-rank ``p``-th percentile of n samples."""
    if not 0 < p <= 100:
        raise ValueError(f"p must be in (0, 100], got {p}")
    return -(-p * n // 100)


def spread(lo: int, hi: int, count: int) -> list:
    """``count`` integers from lo to hi, as evenly spaced as possible."""
    if count == 1:
        return [lo]
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def probe_scaled(rounds, probes, reference_s) -> list:
    """Each task's time in seconds on the reference host, in job order.

    ``rounds`` holds one list of outcomes per round, every list over the
    same tasks in the same order, and ``probes`` the probe's seconds
    timed after each of those tasks.  In every round a task's time is
    divided by the mean of the probe times just before and just after it
    (the first task has only the one after), so the host's speed at that
    moment cancels, and multiplied by ``reference_s``, the probe's time
    on the reference host.  The median over the rounds removes what is
    left of bursts.
    """
    scaled = []
    for i in range(len(rounds[0])):
        ratios = []
        for outcomes, times in zip(rounds, probes):
            around = times[i - 1:i + 1] if i else times[:1]
            ratios.append(outcomes[i].seconds * len(around) / sum(around))
        scaled.append(reference_s * median(ratios))
    return scaled


def ratio(num, den):
    """num / den, or 0.0 when the base is empty (the layer did no work)."""
    return num / den if den else 0.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "task")

    def __init__(self, name, start, parent, task):
        self.name, self.start, self.end = name, start, start
        self.parent, self.task = parent, task

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.task]


class Tracer:
    """Spans and counters kept in memory around the benchmark's own calls.

    A span records (name, start, end, parent span index, task id); spans
    of one task share its id.  Counters accumulate work done at the same
    boundaries (evaluations, angles, buckets, bytes).
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.task = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counters[name] += value

    def call(self, fn, *args, **kwargs):
        """Call a library function inside a span named ``<module>.<function>``."""
        with self.span(f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"):
            return fn(*args, **kwargs)


class NullTracer:
    """Tracing off: spans, counters and calls cost one extra call."""

    task = None
    _span = Span("", 0.0, None, None)

    @contextmanager
    def span(self, name):
        yield self._span

    def count(self, name, value=1):
        pass

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (without the parent's) from one traced job."""
    durations = defaultdict(list)
    for sp in tracer.spans:
        durations[sp.name].append(sp.seconds)
    c = tracer.counters

    def busy(*names):
        return sum(sum(durations.get(n, ())) for n in names)

    def busy_module(module):
        return sum(
            sum(v) for k, v in durations.items() if k.startswith(module + ".")
        )

    def calls(name):
        return len(durations.get(name, ()))

    sdp = durations.get("verify.sdp_feasible", [])
    values = {
        "verify.sdp_feasible.calls": calls("verify.sdp_feasible"),
        "verify.sdp_feasible.busy_s": busy("verify.sdp_feasible"),
        "verify.sdp_feasible.p50_ms": 1e3 * percentile(sdp, 50) if sdp else 0.0,
        "verify.sdp_feasible.evals_per_call": ratio(
            c["verify.sdp_feasible.evals"], len(sdp)
        ),
        "verify.boundary_scan.calls": calls("verify.boundary_scan"),
        "verify.boundary_scan.busy_s": busy("verify.boundary_scan"),
        "verify.boundary_scan.evals_per_point": ratio(
            c["verify.boundary_scan.evals"], c["verify.boundary_scan.points"]
        ),
        "verify.build_constraints.busy_s": busy("verify.build_constraints"),
        "verify.nonconvergence": c["verify.nonconvergence"],
        "verify.infeasible_share": ratio(
            c["verify.infeasible"], c["verify.verdicts"]
        ),
        "states.busy_s": busy_module("states"),
        "measurement.busy_s": busy_module("measurement"),
        "waveoptics.make_field.busy_s": busy(
            "waveoptics.make_gaussian", "waveoptics.make_speckle"
        ),
        "waveoptics.aoi_visibility_scan.calls": calls(
            "waveoptics.aoi_visibility_scan"
        ),
        "waveoptics.aoi_visibility_scan.busy_s": busy(
            "waveoptics.aoi_visibility_scan"
        ),
        "waveoptics.angles": c["waveoptics.relay_off.angles"]
        + c["waveoptics.relay_on.angles"],
        "waveoptics.relay_off.ms_per_angle": 1e3
        * ratio(c["waveoptics.relay_off.s"], c["waveoptics.relay_off.angles"]),
        "waveoptics.relay_on.ms_per_angle": 1e3
        * ratio(c["waveoptics.relay_on.s"], c["waveoptics.relay_on.angles"]),
        "waveoptics.errors": c["waveoptics.errors"],
        "geometry.busy_s": busy_module("geometry"),
        "analysis.expectation_vs_aoi.busy_s": busy("analysis.expectation_vs_aoi"),
        "chsh.simulate_drift_scan.calls": calls("chsh.simulate_drift_scan"),
        "chsh.simulate_drift_scan.busy_s": busy("chsh.simulate_drift_scan"),
        "chsh.simulate_drift_scan.us_per_bucket": 1e6
        * ratio(busy("chsh.simulate_drift_scan"), c["chsh.buckets"]),
        "chsh.buckets": c["chsh.buckets"],
        "chsh.estimate_chsh.busy_s": busy("chsh.estimate_chsh"),
        "chsh.max_expectation_surface.busy_s": busy("chsh.max_expectation_surface"),
        "chsh.surface_cells": c["chsh.surface_cells"],
        "analysis.stability_series.busy_s": busy("analysis.stability_series"),
        "analysis.stability_series.us_per_bucket": 1e6
        * ratio(busy("analysis.stability_series"), c["analysis.stability.buckets"]),
        "cli.main.calls": calls("cli.main"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.csv_bytes": c["cli.csv_bytes"],
        "cli.exit_nonzero": c["cli.exit_nonzero"],
    }
    return {k: float(v) for k, v in values.items()}


IMPORT_GROUPS = ("numpy", "scipy", "timebin_analyzer")


def parse_importtime(stderr_text: str) -> dict:
    """Seconds of import time per package group from ``-X importtime``.

    Each imported module is attributed to the nearest enclosing module
    (itself included) that belongs to numpy, scipy or timebin_analyzer,
    and its self time is added to that group.  Stdlib modules a package
    pulls in count towards the package; nothing is counted twice.
    """
    entries = []  # (level, name, self_us)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the column header
        raw = parts[2].rstrip()
        name = raw.lstrip()
        level = (len(raw) - len(name) - 1) // 2
        entries.append((level, name, int(parts[0])))

    def group_of(name):
        for g in IMPORT_GROUPS:
            if name == g or name.startswith(g + "."):
                return g
        return None

    # The output is in post-order: a module's line follows its children,
    # so walk it backwards, keeping the groups of the enclosing modules.
    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    chain = []  # chain[level] = group attributed to the enclosing module
    for level, name, self_us in reversed(entries):
        del chain[level:]
        g = group_of(name) or (chain[-1] if chain else None)
        chain.append(g)
        if g:
            totals[g] += self_us
    return {g: us / 1e6 for g, us in totals.items()}
