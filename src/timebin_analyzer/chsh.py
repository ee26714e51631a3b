"""CHSH estimation from coincidence counts and drifting-phase scans.

The analyzer has a single middle-bin output, so the superposition-basis
measurement lacks its second outcome.  A slow scan of the analyzer
phase substitutes for it: expectation values are formed between any two
points in time, the early/late counts at one time providing the
computational-basis outcomes and the middle-bin counts at two times
providing the two orientations of the superposition basis.  The maximum
over the two-time surface recovers the full correlation.

A scan's counts are one (2, 3, n) float array, indexed by detector
(``DETECTORS``), time bin (``BINS``) and bucket.  One private function
writes the surface's cell expression, and the two surface readers
evaluate it on the cells they need, in O(n) memory:
``max_expectation_surface`` finds the maximum without building the
surface, and ``surface_to_rows`` streams it in blocks of whole rows for
the CSV export.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import finite_in, integer_in
from .measurement import AnalyzerEfficiencies, alice_projectors, bob_povm
from .quantum import DensityMatrix, tensor
from .states import ZeroDenominatorError, as_2x3


def expectation_from_counts(n_pp, n_mm, n_pm, n_mp):
    """Correlation (N++ + N-- - N+- - N-+) / (sum of all four)."""
    for c in (n_pp, n_mm, n_pm, n_mp):
        finite_in("coincidence count", c)
    total = n_pp + n_mm + n_pm + n_mp
    if total <= 0:
        raise ZeroDenominatorError("coincidence counts sum to zero")
    return (n_pp + n_mm - n_pm - n_mp) / total


def check_expectations(values):
    """Raise ValueError naming the first value outside [-1, 1] or NaN."""
    values = np.asarray(values, dtype=float)
    bad = ~(np.abs(values) <= 1.0 + 1e-12)
    if bad.any():
        raise ValueError(f"expectation value {values[bad][0]} outside [-1, 1]")


def chsh_s(e11, e12, e21, e22):
    """CHSH parameter |E(A1,B1) - E(A1,B2) + E(A2,B1) + E(A2,B2)|."""
    check_expectations((e11, e12, e21, e22))
    return abs(e11 - e12 + e21 + e22)


def s_theo(v_z, v_xy):
    """Predicted CHSH parameter sqrt(2) * (v_z + v_xy) from visibilities."""
    finite_in("v_z", v_z, 0, 1)
    finite_in("v_xy", v_xy, 0, 1)
    return math.sqrt(2.0) * (v_z + v_xy)


def combined_expectation(e1, e2):
    """Drift-invariant magnitude sqrt(e1^2 + e2^2) of two quadratures."""
    check_expectations((e1, e2))
    return float(np.hypot(e1, e2))


@dataclass(frozen=True)
class DriftModel:
    """Analyzer phase drift phi(t).

    kind 'linear': phi = phase0 + amount * t / period (``amount`` per
    ``period`` seconds).  kind 'sinusoidal': phi = phase0 +
    amount * sin(2 pi t / period).
    """

    kind: str = "linear"
    amount: float = 2.0 * math.pi
    period: float = 120.0
    phase0: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "sinusoidal"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        finite_in("amount", self.amount)
        finite_in("phase0", self.phase0)
        finite_in("period", self.period, 0, open_lo=True)

    def phase(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "linear":
                phi = self.phase0 + self.amount * t / self.period
            else:
                phi = self.phase0 + self.amount * np.sin(2 * math.pi * t / self.period)
        if not np.all(np.isfinite(phi)):
            raise ValueError(
                f"amount and period must be such that the drift phase stays "
                f"finite, got amount {self.amount} rad and period {self.period} s"
            )
        return phi


# Largest mean pair count per bucket, rate * bucket.  numpy's Poisson
# sampler refuses means above about 9.2e18; every bucket's mean count is
# at most rate * bucket, so this bound keeps each draw within it.
MAX_PAIRS_PER_BUCKET = 1e18

# Most buckets in one scan, duration / bucket.  A drift scan takes about
# 136 bytes per bucket at its peak when seeded (80 noiseless), so 13.6 MB
# at this cap.
MAX_BUCKETS = 100_000


def bucket_times(duration, bucket, rate=None):
    """Start times of the buckets of a scan, after checking its parameters.

    ``duration``, ``bucket`` and (unless None) ``rate`` must be finite
    and > 0, rate * bucket at most ``MAX_PAIRS_PER_BUCKET``, and the
    duration must round to at least one bucket and at most ``MAX_BUCKETS``.
    """
    for name, value in (("rate", rate), ("duration", duration), ("bucket", bucket)):
        if value is not None:
            finite_in(name, value, 0, open_lo=True)
        elif name != "rate":
            raise ValueError(f"{name} must be > 0, got None")
    if rate is not None and rate * bucket > MAX_PAIRS_PER_BUCKET:
        raise ValueError(
            f"rate * bucket must be <= {MAX_PAIRS_PER_BUCKET:g} pairs per bucket, "
            f"got rate {rate} /s and bucket {bucket} s"
        )
    ratio = duration / bucket  # inf, not an error, past the float range
    n = round(ratio) if ratio <= MAX_BUCKETS else MAX_BUCKETS + 1
    if not 1 <= n <= MAX_BUCKETS:
        raise ValueError(
            f"duration must be 1 to {MAX_BUCKETS} buckets, rounded to whole buckets, "
            f"got duration {duration} s and bucket {bucket} s"
        )
    return np.arange(n) * bucket


# Alice's named measurement axes as unit Bloch vectors.
_R = 1.0 / math.sqrt(2.0)
_ALICE_AXES = {
    "z+x": (_R, 0.0, _R),
    "z-x": (-_R, 0.0, _R),
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


def _axis_name(axis):
    """``axis`` if it names one of Alice's axes, else raise ValueError."""
    if not (isinstance(axis, str) and axis in _ALICE_AXES):
        raise ValueError(f"unknown Alice axis {axis!r}")
    return axis


def alice_setting(axis):
    """Projector pair for Alice's axis 'z+x', 'z-x', 'x', 'y' or 'z'; for any
    other Bloch vector, see :func:`measurement.alice_projectors`."""
    return alice_projectors(_ALICE_AXES[_axis_name(axis)])


# Settings (eta_l, eta_s, Alice's axis) whose scan operators are kept: at
# most this many complex (2, 5, 6, 6) stacks of 5.8 kB, 92 kB in all.  Keys
# are typed: bob_povm computes in the efficiencies' own type, so float32
# 0.75 and float 0.75, which compare equal, give different operators.
_OPERATOR_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE, typed=True)
def _scan_operators(eta_l, eta_s, axis):
    """P_a x B for Alice's projectors P_a of the named ``axis`` and Bob's
    E, L and the three parts of X (see :func:`simulate_drift_scan`), as one
    read-only (2, 5, 6, 6) stack shared by the scans of one setting."""
    povm = bob_povm(AnalyzerEfficiencies(eta_l, eta_s))
    diag = np.diag(np.diag(povm["X"]))
    cross = povm["X"] - diag
    bob = np.stack(
        [povm["E"], povm["L"], diag, cross, 1j * (np.triu(cross) - np.tril(cross))]
    )
    alice = np.stack(alice_setting(axis))
    ops = tensor(alice[:, None], bob)
    ops.flags.writeable = False
    return ops


DETECTORS = ("+", "-")
BINS = ("early", "mid", "late")
# The BINS index of each bin a seeded scan draws, in the order it draws them.
_DRAWN_BINS = tuple(BINS.index(b) for b in ("early", "late", "mid"))


@dataclass
class DriftTrace:
    """Coincidence series of one drift scan.

    ``counts[k, b]`` is the series of detector ``DETECTORS[k]`` in bin
    ``BINS[b]``, one value per bucket: a float array of shape (2, 3, n).
    """

    times: np.ndarray
    counts: np.ndarray

    @property
    def n_buckets(self):
        return self.times.size

    def middle_series(self):
        """The (2, n) middle-bin series, '+' detector first."""
        return self.counts[:, BINS.index("mid")]


def simulate_drift_scan(
    rho: DensityMatrix,
    eff: AnalyzerEfficiencies,
    drift: DriftModel,
    alice_axis="z+x",
    rate=1000.0,
    duration=120.0,
    bucket=0.5,
    seed=None,
) -> DriftTrace:
    """Simulate the six coincidence traces while the analyzer phase drifts.

    Expected counts per bucket are rate * bucket * Tr[rho (P_a x M_bin)]
    with the middle-bin element evaluated at the drifted phase phi(t);
    the POVM's loss prefactors apportion the raw pair flux ``rate``.
    ``alice_axis`` is a name that :func:`alice_setting` takes.  The phase
    is sampled at bucket start times.  With an integer ``seed``, each
    trace is an independent Poisson draw from a deterministic generator;
    with ``seed=None`` the expected counts are returned (noiseless mode).

    The middle-bin element is affine in e^{i phi}: X(phi) = D + cos(phi)
    X_c + sin(phi) X_s, with D the diagonal of X(0), X_c its off-diagonal
    pair and X_s = i (upper - lower) of that pair.  So every trace is a
    fixed combination of ten static expectations Tr[rho (P_a x B)], and a
    scan takes O(n) memory and time with no per-bucket operator.  The
    operators P_a x B of a setting (eta_l, eta_s, ``alice_axis``) are
    built once and kept read-only, one complex (2, 5, 6, 6) stack of
    5.8 kB per setting for at most ``_OPERATOR_CACHE_SIZE`` (16) settings,
    so a scan computes only its ten expectations, the drifted phase and,
    seeded, one Poisson draw.
    """
    if rate is None:
        raise ValueError("rate must be > 0, got None (seed=None is the noiseless scan)")
    times = bucket_times(duration, bucket, rate)
    rho = as_2x3(rho)
    ops = _scan_operators(eff.eta_l, eff.eta_s, _axis_name(alice_axis))
    early, late, d, c, s = (rate * bucket * rho.expectation(ops)).T[..., None]
    phi = drift.phase(times)
    # The means in BINS order or, seeded, in the order of the one draw: C
    # order over (detector, early/late/mid, bucket), which the seeded
    # goldens pin.
    counts = np.empty((len(DETECTORS), len(BINS), times.size))
    early_at, late_at, mid_at = _DRAWN_BINS if seed is None else range(3)
    counts[:, early_at] = early
    counts[:, late_at] = late
    mid = counts[:, mid_at]
    np.multiply(c, np.cos(phi), out=mid)
    mid += d
    mid += s * np.sin(phi)
    if seed is None:
        return DriftTrace(times, counts)
    rng = np.random.Generator(np.random.PCG64(integer_in("seed", seed, 0)))
    draws = rng.poisson(counts)
    for slot, b in enumerate(_DRAWN_BINS):  # written over the means
        counts[:, b] = draws[:, slot]
    return DriftTrace(times, counts)


class SurfaceResult(NamedTuple):
    max_abs: float
    argmax: tuple
    value_at_argmax: float


# Cells whose exact E lies within this margin of the Dinkelbach optimum are
# re-evaluated.  For nonnegative counts the dense expression, the optimum and
# the candidate test d_i - mu s_i >= d_j + mu s_j (relative to s_i + s_j) each
# err by less than 8 u, u = 2**-53; 1e-9 exceeds their sum (about 3e-15) by
# far, so the cell the dense argmax picks is always a candidate.
_CANDIDATE_MARGIN = 1e-9

# Cells per block of the streamed surface export, rounded down to whole rows.
_EXPORT_BLOCK_CELLS = 2**12


def _cells(n_plus, n_minus, i, j):
    """E(i, j) = (N+_i + N-_j - N-_i - N+_j) / total at index arrays ``i``, ``j``.

    Returns ``(values, defined)`` in the broadcast shape of ``i`` and
    ``j``; cells whose four counts vanish are undefined and hold NaN.
    """
    total = n_plus[i] + n_minus[j] + n_minus[i] + n_plus[j]
    defined = total > 0
    # Built in place: every temporary is another array of the cells' size.
    values = n_plus[i] + n_minus[j]
    values -= n_minus[i]
    values -= n_plus[j]
    np.divide(values, total, out=values, where=defined)
    values[~defined] = np.nan
    return values, defined


def max_expectation_surface(trace: DriftTrace) -> SurfaceResult:
    """Largest |E(t1, t2)| of the two-time surface in O(n) memory.

    E(t1, t2) pairs the '+' orientation of the superposition basis at t1
    with the '-' orientation at t2 (where the drifted phase has moved),
    so E(t1,t2) = (N+(t1) + N-(t2) - N-(t1) - N+(t2)) / (total); cells
    whose four counts vanish are undefined.

    Returns the cell and value the dense surface gives: largest |E|,
    first row-major index on ties, undefined cells excluded.  With
    d = N+ - N- and s = N+ + N-, E(i, j) = (d_i - d_j) / (s_i + s_j) is
    linear-fractional and separable, so Dinkelbach's iteration (Mgmt.
    Sci. 13, 1967) finds its maximum lambda with two argmaxes per step.
    Every cell within a margin of lambda, in both orientations, is then
    re-evaluated with the surface's cell expression, in blocks of fewer
    than 3n cells.  The counts must be nonnegative, as every scan's are.
    """
    n_plus, n_minus = trace.middle_series()
    n = n_plus.size
    d = n_plus - n_minus
    s = n_plus + n_minus
    if not np.any(s > 0):
        raise ZeroDenominatorError("every surface cell is undefined")
    lam = 0.0
    while True:
        i = int(np.argmax(d - lam * s))
        j = int(np.argmax(-d - lam * s))
        if not s[i] + s[j] > 0:
            break
        value = (d[i] - d[j]) / (s[i] + s[j])
        if not value > lam:
            break
        lam = value

    # Cell (i, j) has E >= mu exactly when d_i - mu s_i >= d_j + mu s_j.
    mu = lam - _CANDIDATE_MARGIN
    col_key = d + mu * s
    order = np.argsort(col_key, kind="stable")
    per_row = np.searchsorted(col_key[order], d - mu * s, side="right")
    # Consecutive rows whose candidates end in the same 2n-cell stretch
    # form one block of fewer than 3n cells.
    block = np.cumsum(per_row) // (2 * n)
    best = (-np.inf, 0, math.nan)  # (|E|, row-major index, E)
    for rows in np.split(np.arange(n), np.flatnonzero(np.diff(block)) + 1):
        counts = per_row[rows]
        starts = np.cumsum(counts) - counts
        cols = order[np.arange(starts[-1] + counts[-1]) - np.repeat(starts, counts)]
        rows = np.repeat(rows, counts)
        i = np.concatenate([rows, cols])
        j = np.concatenate([cols, rows])
        values, defined = _cells(n_plus, n_minus, i, j)
        masked = np.where(defined, np.abs(values), -np.inf)
        flat = i * n + j
        k = np.lexsort((flat, -masked))[0]
        if (masked[k], -flat[k]) > (best[0], -best[1]):
            best = (masked[k], int(flat[k]), float(values[k]))
    _, flat, value = best
    return SurfaceResult(
        max_abs=abs(value), argmax=divmod(flat, n), value_at_argmax=value
    )


def z_expectation(trace: DriftTrace) -> float:
    """Computational-basis correlation from the aggregated early/late counts.

    '+' outcome of the time-bin qubit is the early bin, '-' the late bin.
    """
    (plus_early, _, plus_late), (minus_early, _, minus_late) = (
        trace.counts.sum(axis=2).tolist()
    )
    return expectation_from_counts(plus_early, minus_late, plus_late, minus_early)


class ChshEstimate(NamedTuple):
    s: float
    e11: float
    e12: float
    e21: float
    e22: float


def _surface_term(trace: DriftTrace, split: bool):
    """Signed middle-bin correlation extracted from the two-time surface.

    With ``split`` the argmax is selected on the even-index buckets and
    the value is re-evaluated on the adjacent odd buckets, which removes
    the selection bias of taking a maximum over noisy cells.  Raises
    :class:`ZeroDenominatorError` when those four odd-bucket counts are
    all zero.
    """
    if not split:
        return max_expectation_surface(trace).value_at_argmax
    res = max_expectation_surface(DriftTrace(trace.times[::2], trace.counts[..., ::2]))
    i_sel, j_sel = res.argmax
    sign = 1.0 if res.value_at_argmax >= 0 else -1.0
    n = trace.n_buckets
    i = min(2 * i_sel + 1, n - 1)
    j = min(2 * j_sel + 1, n - 1)
    n_plus, n_minus = trace.middle_series()
    try:
        value = expectation_from_counts(n_plus[i], n_minus[j], n_minus[i], n_plus[j])
    except ZeroDenominatorError:
        raise ZeroDenominatorError(
            "the split CHSH estimate found no middle-bin count in the odd "
            "buckets next to its chosen surface cell; raise rate or bucket "
            "for more counts per bucket"
        ) from None
    return sign * value


def estimate_chsh(trace_a1: DriftTrace, trace_a2: DriftTrace, split=True) -> ChshEstimate:
    """CHSH parameter from one drift scan per polarization setting.

    The computational-basis correlations come from the aggregated
    early/late counts.  The superposition-basis correlation of each
    setting comes from its two-time surface; because the drift explores
    the full phase circle, the middle-bin basis orientation is a
    relabeling fixed per setting by the surface search, entering the
    CHSH combination with the sign that the scan selected.
    """
    e11 = z_expectation(trace_a1)
    e21 = z_expectation(trace_a2)
    e12 = -abs(_surface_term(trace_a1, split))
    e22 = abs(_surface_term(trace_a2, split))
    values = (chsh_s(e11, e12, e21, e22), e11, e12, e21, e22)
    return ChshEstimate(*map(float, values))  # split terms are np.float64


def surface_to_rows(trace: DriftTrace):
    """Header and row blocks (t1, t2, E, defined) of the two-time surface
    (see :func:`max_expectation_surface`) for CSV export.

    The rows come from a generator of float arrays, one row per cell,
    each block holding whole t1 rows of about ``_EXPORT_BLOCK_CELLS``
    cells, so memory stays O(n + block).  Undefined cells hold NaN and
    ``defined`` is 0.0 or 1.0.
    """
    header = ["t1_s", "t2_s", "expectation", "defined"]
    n = trace.n_buckets
    step = max(1, _EXPORT_BLOCK_CELLS // n)
    n_plus, n_minus = trace.middle_series()

    def blocks():
        for first in range(0, n, step):
            rows = np.arange(first, min(first + step, n))
            i = np.repeat(rows, n)
            j = np.tile(np.arange(n), rows.size)
            values, defined = _cells(n_plus, n_minus, i, j)
            yield np.column_stack([trace.times[i], trace.times[j], values, defined])

    return header, blocks()
