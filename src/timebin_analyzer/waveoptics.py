"""Scalar wave-optics model of the analyzer.

Fields are complex amplitudes sampled on a square grid with the origin
at the center.  :func:`aoi_visibility_scan` scores the analyzer on the
field's power spectrum: the long arm is the input propagated with the
exact scalar angular-spectrum kernel, behind an anti-aliasing guard, and
offset spectrally, which is exact for band-limited fields.  The
per-angle composition it replaces (propagate, shift, overlap in real
space) is kept in ``tests/oracles.py`` as the reference.

The fundamental Gaussian is E(r) ~ exp(-r^2/(4 sigma^2)), i.e. ``sigma``
is the standard deviation of the intensity profile.  Two unit-power
copies offset by delta then interfere with fringe visibility
exp(-delta^2/(8 sigma^2)), which equals the ray-model envelope
exp(-delta^2/(2 sigma_g^2)) for a geometry width sigma_g = 2 sigma (see
:mod:`timebin_analyzer.geometry` for the conversion helpers).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from ._checks import finite_in, integer_in


class GridResolutionError(ValueError):
    """Requested structure is not resolved by the grid."""


class AliasingError(ValueError):
    """Propagation distance exceeds the alias-free range of the grid."""


class ShiftTooLargeError(ValueError):
    """Translation would wrap around the periodic grid."""


@dataclass
class ScalarField:
    """Complex field on an N x N grid with physical side length ``extent``."""

    grid: np.ndarray
    extent: float
    wavelength: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=complex)
        n = self.grid.shape[0]
        if self.grid.shape != (n, n) or n < 64:
            raise ValueError(f"grid must be square with N >= 64, got {self.grid.shape}")
        finite_in("extent", self.extent, 0, open_lo=True)
        finite_in("wavelength", self.wavelength, 0, open_lo=True)

    @property
    def n(self) -> int:
        return self.grid.shape[0]

    @property
    def cell(self) -> float:
        return self.extent / self.n

    def power(self) -> float:
        a = np.abs(self.grid)
        return float(np.sum(np.square(a, out=a)) * self.cell**2)


def _scale_to_unit_power(parts, p):
    """Scale the float array ``parts`` in place by 1/sqrt(p); a field power
    ``p`` that is zero or not finite is refused."""
    if not 0 < p < math.inf:
        raise ValueError(
            f"cannot normalize a zero-power field or one of non-finite power, got {p}"
        )
    parts *= 1.0 / math.sqrt(p)


def _unit_power(grid, extent, wavelength) -> ScalarField:
    """Field of the fresh array ``grid``, scaled in place to unit power."""
    field = ScalarField(grid, extent, wavelength)
    # numpy divides a complex by a real s as (re + im*0) * (1/s) and
    # (im - re*0) * (1/s), so one real multiply of the float view by 1/s gives
    # the same bits, except that a part of -0 stays -0 where the division can
    # give +0 (the two still compare equal).
    _scale_to_unit_power(field.grid.view(np.float64), field.power())
    return field


# Largest grid side.  A relay-off sweep of a 2048^2 field peaks near 176 MB
# (about 44 MB at 1024^2); a side twice as large would need four times that.
# Relay-off sweeps also keep one kernel quadrant per (grid_n, cell,
# wavelength, delta_l0), for at most _KERNEL_CACHE_SIZE of them: up to
# 4 x 16.8 MB at 2048^2, 4 x 1.06 MB at 512^2.  They keep one ring table per
# grid_n, for as many: the ring index of each quadrant cell, 8.4 MB at
# 2048^2 and 0.53 MB at 512^2, plus the sorted distinct ring keys, 2.5 MB
# and 0.18 MB.
MAX_GRID_N = 2048
_KERNEL_CACHE_SIZE = 4


def _require_power_of_two(n):
    if not (isinstance(n, numbers.Integral) and 64 <= n <= MAX_GRID_N) or n & (n - 1):
        raise ValueError(
            f"grid_n must be a power of two in [64, {MAX_GRID_N}], got {n}"
        )


def _require_normal_cell_area(name, value, extent, grid_n):
    """Refuse, naming ``name``, a grid whose cell area (extent/grid_n)^2 is not
    a normal float or whose extent^2 overflows: the power sums |E|^2 cell^2,
    and the Gaussian profile squares coordinates up to extent/2, so such a
    field's power reads inf or NaN.  The bounds are plain comparisons because
    squaring a Python float past its range raises OverflowError."""
    if not (1.5e-154 <= extent / grid_n and extent < 1.3e154):
        also = "" if name == "extent" else f" and extent {extent} m"
        raise ValueError(
            f"{name} must be such that (extent/grid_n)^2 is a normal float and "
            f"extent^2 finite, got {name} {value} m{also}"
        )


def make_gaussian(sigma, grid_n=512, extent=None, wavelength=776e-9) -> ScalarField:
    """Unit-power fundamental Gaussian with intensity standard deviation ``sigma``.

    The default extent is 16 sigma.  The grid must resolve the beam
    (sigma at least 3 cells) and contain its tails (extent >= 12 sigma).
    """
    _require_power_of_two(grid_n)
    finite_in("sigma", sigma, 0, open_lo=True)
    if extent is None:
        extent = 16.0 * sigma
    finite_in("extent", extent, 12.0 * sigma)
    _require_normal_cell_area("sigma", sigma, extent, grid_n)
    cell = extent / grid_n
    if sigma < 3.0 * cell:
        raise GridResolutionError(
            f"sigma = {sigma} spans fewer than 3 grid cells (cell = {cell}); "
            f"increase grid_n to at least {np.ceil(3 * extent / sigma):.12g}"
        )
    # Cell i sits at (i - N/2) cell, and (-k cell)^2 == (k cell)^2, so the
    # quadrant k = |i - N/2| <= N/2 holds every value of the full grid: rows
    # and columns N/2.. read k = 0..N/2-1, and 0..N/2-1 read k = N/2..1.
    h = grid_n // 2
    x2 = (np.arange(h + 1) * cell) ** 2
    quadrant = np.add.outer(x2, x2)
    quadrant /= -4.0 * sigma**2
    np.exp(quadrant, out=quadrant)
    field = ScalarField(np.zeros((grid_n, grid_n), dtype=complex), extent, wavelength)
    real = field.grid.real
    halves = ((slice(h, None), slice(h)), (slice(h), slice(h, 0, -1)))
    for rows, k_rows in halves:
        for cols, k_cols in halves:
            real[rows, cols] = quadrant[k_rows, k_cols]
    # |x + 0i|^2 == x^2, so this is field.power() without the complex pass.
    _scale_to_unit_power(real, float(np.sum(np.square(real)) * cell**2))
    return field


def _hermite_functions(u, order):
    """Orthonormal Hermite functions psi_0..psi_order on the axis ``u``."""
    psi = np.empty((order + 1, u.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * u**2)
    if order >= 1:
        psi[1] = math.sqrt(2.0) * u * psi[0]
    for m in range(1, order):
        psi[m + 1] = (
            math.sqrt(2.0 / (m + 1)) * u * psi[m]
            - math.sqrt(m / (m + 1)) * psi[m - 1]
        )
    return psi


def make_speckle(
    mode_count, seed, grid_n=512, extent=0.02, wavelength=776e-9
) -> ScalarField:
    """Random multimode field: a seeded Hermite-Gauss superposition.

    All transverse modes of combined order m + n < ``mode_count`` are
    superposed with independent complex-normal coefficients drawn from a
    deterministic generator, then normalized to unit power.  This is a
    reproducible surrogate for multimode-fiber output, not a fiber
    model.  The intensity std of the fundamental mode is set so that the
    highest mode's reach (turning point plus tail margin) is a third of
    the extent.
    """
    _require_power_of_two(grid_n)
    integer_in("mode_count", mode_count, 1)
    finite_in("extent", extent, 0, open_lo=True)
    _require_normal_cell_area("extent", extent, extent, grid_n)
    top = mode_count - 1  # highest 1D order present
    width = extent / (3.0 * math.sqrt(2.0) * (math.sqrt(2 * top + 1) + 3.0))
    cell = extent / grid_n
    lobe = math.pi * math.sqrt(2.0) * width / math.sqrt(2 * top + 1)
    if lobe < 3.0 * cell:
        raise GridResolutionError(
            f"highest mode lobe {lobe:.3e} m spans fewer than 3 cells "
            f"(cell = {cell:.3e}); increase grid_n or reduce mode_count"
        )

    x = (np.arange(grid_n) - grid_n // 2) * cell
    u = x / (math.sqrt(2.0) * width)
    psi = _hermite_functions(u, top) / math.sqrt(math.sqrt(2.0) * width)

    rng = np.random.Generator(np.random.PCG64(integer_in("seed", seed, 0)))
    order = np.arange(top + 1)
    present = np.add.outer(order, order) <= top
    # Boolean assignment fills in row-major order, the order of the draws.
    draws = rng.normal(size=(int(present.sum()), 2))
    coeff = np.zeros((top + 1, top + 1), dtype=complex)
    coeff[present] = draws[:, 0] + 1j * draws[:, 1]
    return _unit_power(psi.T @ coeff @ psi, extent, wavelength)


def _folded_frequencies(n, cell):
    """FFT frequencies f[:N//2+1] of an N-point grid, those of the folded
    indices min(i, N - i).

    ``fftfreq`` is odd-symmetric to the bit, f[N - i] == -f[i], so anything
    built from fx^2 + fy^2 is fixed by its values on the (N//2+1)^2 quadrant
    of folded indices, for even and odd N.
    """
    return np.fft.fftfreq(n, d=cell)[: n // 2 + 1]


def _check_shift(field: ScalarField, dx_abs):
    if dx_abs >= field.extent / 4.0:
        raise ShiftTooLargeError(
            f"|dx| = {dx_abs} exceeds a quarter of the extent {field.extent}"
        )


def _fold(power):
    """Add column j of ``power`` into column min(j, N - j), the folded index:
    the last axis shrinks from N to N//2 + 1."""
    n = power.shape[-1]
    h = n // 2
    folded = power[..., : h + 1].copy()
    folded[..., 1 : n - h] += power[..., : h : -1]
    return folded


def _folded_power(spec):
    """|spec|^2 folded over columns (N x (N//2+1)) and over both axes
    ((N//2+1)^2, indexed by the folded (kx, ky)).

    The columns are squared and folded straight from the spectrum: columns
    0..N//2 squared, plus the squares of columns N-1..N//2+1 added into
    columns 1..N-N//2-1, the same sums as :func:`_fold` of |spec|^2 without
    the N^2 power array.  A power past the float range reads inf, which the
    callers refuse by name, instead of warning of the overflow."""
    n = spec.shape[-1]
    h = n // 2
    with np.errstate(over="ignore"):
        rows = np.abs(spec[:, : h + 1])
        rows *= rows
        tail = np.abs(spec[:, :h:-1])
        tail *= tail
        rows[:, 1 : n - h] += tail
        # The transposed fold leaves the quadrant in F order, which fixes the
        # summation order of the sweep's power sums.
        return rows, _fold(rows.T).T


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _ring_table(n):
    """Rings of the (N//2+1)^2 quadrant of folded indices of an N-point
    grid: the sorted distinct keys kx^2 + ky^2 and, for every cell in
    row-major order, the index of its key.  Both arrays are shared between
    calls and read-only."""
    m2 = np.arange(n // 2 + 1) ** 2
    keys, ids = np.unique(np.add.outer(m2, m2).ravel(), return_inverse=True)
    ids = ids.ravel()
    keys.flags.writeable = ids.flags.writeable = False
    return keys, ids


def _signal_bandwidth(field: ScalarField, quadrant):
    """Radial frequency containing all but 1e-12 of the spectral power.

    ``quadrant`` is the spectral power folded onto the (N//2+1)^2 quadrant
    of folded indices (see :func:`_folded_power`); every cell of a ring
    kx^2 + ky^2 has its fold partners in the same ring.  Rings are keyed
    by that exact integer.  Radii of distinct keys differ by far more than
    an ulp, so ascending keys are ascending radii: the ring at which the
    ascending cumulative ring power first reaches (1 - 1e-12) of the total
    gives the bandwidth, as the largest radius among its cells.  Sorting
    every cell by radius instead breaks ties between equal radii
    arbitrarily and rounds the cumulative sum cell by cell, which can move
    the answer by an ulp or, rarely, to the adjacent ring.

    The rings depend on N alone and come from :func:`_ring_table`.  Each
    ring's power is summed over its cells in row-major order, and the
    cumulative sum runs over the keys present, so it skips only integers
    that no ring has, which would add exact zeros.  The crossing ring's
    cells are found per row: row kx holds the cell ky = sqrt(ring - kx^2)
    when that root is an integer no larger than N//2; the float root is
    exact, since ring is far below 2^52.
    """
    f = _folded_frequencies(field.n, field.cell)
    keys, ids = _ring_table(field.n)
    cum = np.cumsum(np.bincount(ids, weights=quadrant.ravel(), minlength=keys.size))
    total = cum[-1]
    if not total < math.inf:
        raise ValueError(f"field must carry finite power, got {total}")
    if total <= 0:
        return 0.0
    ring = int(keys[min(int(np.searchsorted(cum, (1.0 - 1e-12) * total)), keys.size - 1)])
    i = np.arange(min(math.isqrt(ring) + 1, f.size))
    rest = ring - i * i
    j = np.rint(np.sqrt(rest)).astype(int)
    on_ring = (j * j == rest) & (j < f.size)
    return float(np.max(np.hypot(f[i[on_ring]], f[j[on_ring]])))


def _check_alias(field: ScalarField, quadrant, distance):
    """Raise AliasingError if angular-spectrum propagation of ``field``, of
    folded spectral power ``quadrant``, over ``distance`` would alias.  The
    message names ``delta_l0``, the one distance the library propagates.
    A wavelength whose square is not a normal float is refused first: the
    range squares 1/wavelength and the kernel squares the wavelength."""
    if not field.wavelength >= 1.5e-154:
        raise ValueError(
            f"wavelength must be >= 1.5e-154 m for angular-spectrum "
            f"propagation, got {field.wavelength} m"
        )
    f_sig = 1.1 * _signal_bandwidth(field, quadrant)
    inv_lam = 1.0 / field.wavelength
    if f_sig >= inv_lam and distance != 0:
        raise AliasingError(
            f"delta_l0 must be 0 m when the field's bandwidth {f_sig:.3g} /m "
            f"reaches 1/wavelength, since no grid then propagates it "
            f"alias-free, got delta_l0 {distance} m and wavelength "
            f"{field.wavelength} m"
        )
    if not 0 < f_sig < inv_lam:
        return
    # Kernel phase must change by less than pi between frequency samples
    # at the field's own bandwidth: |dphi/df| * (1/L) <= pi.
    z_max = field.extent * math.sqrt(inv_lam**2 - f_sig**2) / (2.0 * f_sig)
    if abs(distance) > z_max:
        with np.errstate(over="ignore"):  # only printed; an overflow reads inf
            factor = abs(distance) / max(z_max, 1e-300)
            samples = np.ceil(field.n * factor)
        raise AliasingError(
            f"delta_l0 must be within the alias-free range {z_max:.3g} m of "
            f"this field and grid, got {distance} m; enlarge the extent (and "
            f"grid) by >= {factor:.2g}x at fixed cell size, i.e. use >= "
            f"{samples:.12g} samples"
        )


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_quadrant(n, cell, wavelength, distance):
    """Angular-spectrum kernel exp(2 pi i d sqrt(1/lambda^2 - fx^2 - fy^2)) on
    the (N//2+1)^2 quadrant of folded FFT indices of an N-point grid of
    ``cell`` spacing; evanescent components decay instead.  The array is
    shared between calls and read-only, kept for the last few grids so
    that its exp of phases near 2 pi d / lambda is paid once per grid:
    sweeps repeat the same few grids."""
    f = _folded_frequencies(n, cell)
    arg = 1.0 / wavelength**2 - f[:, None] ** 2 - f[None, :] ** 2
    quadrant = 2j * math.pi * distance * np.sqrt(np.maximum(arg, 0.0))
    np.exp(quadrant, out=quadrant)
    evanescent = arg < 0
    if np.any(evanescent):
        decay = np.exp(
            np.clip(-2.0 * math.pi * abs(distance) * np.sqrt(-arg[evanescent]), -700, 0)
        )
        quadrant[evanescent] = decay
    quadrant.flags.writeable = False
    return quadrant


def interfere(
    field: ScalarField,
    geom: "_geometry.InterferometerGeometry",
    alpha,
    relay: bool,
) -> float:
    """Fringe visibility at a single angle; see :func:`aoi_visibility_scan`."""
    return float(aoi_visibility_scan(field, geom, [alpha], relay)[0])


def aoi_visibility_scan(field, geom, alphas, relay):
    """Fringe visibility of the analyzer for an input field at each angle.

    The short-arm output is the input.  With relay the long arm images the
    input at every angle (the relay is the identity), so the arms overlap
    exactly and every angle reads v0.  Without relay the long arm is the input
    propagated over delta_l0, spectrum B = A K (A the input spectrum, K the
    angular-spectrum kernel), and offset by the ray-traced delta(alpha).
    By Parseval <a|shift(b, delta)> ~ sum_i cross[i] exp(-2 pi i fx_i delta),
    one dot product per angle, with cross[i] = sum_j conj(A) B = sum_j P K
    over the row, P = |A|^2.  K depends on the folded column index
    min(j, N - j) alone, so cross[i] = sum_m P_row[i, m] Q[min(i, N - i), m],
    with P_row the power folded over columns and Q the (N//2+1)^2 kernel
    quadrant; the powers are sum P and sum P |K|^2 over the power folded
    on both axes.  P is |fft2(grid)|^2 without the centering shift, which
    only multiplies A by a phase.  The common tilt cancels; the result is
    scaled by v0.  Raises AliasingError, then AngleDomainError, then
    ShiftTooLargeError; with relay, AngleDomainError for the angles the ray
    model rejects.  A field of zero or non-finite power raises ValueError.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        return np.empty(alphas.shape)
    if relay:
        _geometry._check_alpha(alphas)
        # The power only decides the refusal, so one pass over the grid does,
        # without the |E| array of field.power(); the message reports power().
        p = float(np.vdot(field.grid, field.grid).real) * field.cell**2
        if not 0 < p < math.inf:
            with np.errstate(over="ignore"):
                p = field.power()
            raise ValueError(f"field must carry nonzero finite power, got {p}")
        return np.full(alphas.shape, geom.v0, dtype=float)
    # With out= the first 1-D pass writes into out and the second runs in
    # place, so one spectrum array is alive, not two.  out is never field.grid,
    # and the spectrum is unnamed so that it is freed once folded.
    rows, quadrant = _folded_power(np.fft.fft2(field.grid, out=np.empty_like(field.grid)))
    _check_alias(field, quadrant, geom.delta_l0)
    delta = _geometry.lateral_offset(geom, alphas)
    _check_shift(field, np.max(np.abs(delta)))
    kernel = _kernel_quadrant(field.n, field.cell, field.wavelength, geom.delta_l0)
    # Row i reads kernel row min(i, N - i): i itself up to N//2, then
    # N - N//2 - 1 down to 1.
    n, h = field.n, field.n // 2
    cross = np.empty(n, dtype=complex)
    np.einsum("ij,ij->i", rows[: h + 1], kernel, out=cross[: h + 1])
    np.einsum("ij,ij->i", rows[h + 1 :], kernel[n - h - 1 : 0 : -1], out=cross[h + 1 :])
    fx = np.fft.fftfreq(n, d=field.cell)
    overlaps = np.exp(-2j * math.pi * np.multiply.outer(delta, fx)) @ cross
    gain = np.abs(kernel)
    gain *= gain
    pa, pb = np.sum(quadrant), np.sum(quadrant * gain)
    if not (0 < pa < math.inf and 0 < pb < math.inf):
        raise ValueError(f"both fields must carry finite power, got {pa} and {pb}")
    return geom.v0 * (np.abs(overlaps) / (0.5 * (pa + pb)))
