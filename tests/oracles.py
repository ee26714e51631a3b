"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: the eigensolver is
a classical Jacobi rotation method on a real-symmetric embedding, the
partial transpose and Kronecker product use explicit index loops,
Hermitian coordinates are Frobenius traces against an explicit list of
basis matrices, the PPT feasibility cross-check is cyclic projection,
drift-scan rates are traced one bucket at a time, the two-time surface
maximum is taken over every cell of the dense surface, integrals are
done by direct quadrature, the ray-model fringe intensity is written out
from its closed form, the classical boundary is the unit circle, the
boundary search is plain bisection, the angular-spectrum kernel is built
on the full N x N frequency grid, and the signal bandwidth is taken
either from an argsort of every radial frequency or from a cell-by-cell
loop over rings, a field is propagated with that full-grid kernel, shifted
and tilted in its own spectrum and overlapped with another in real space,
the relay is traced lens by lens, a field is normalized by a copying
division, the Gaussian is evaluated on the full N x N meshgrid, and the
superposition fringe is fitted by least squares on a phase grid.
"""

import math

import numpy as np


def jacobi_eigvalsh(matrix, tol=1e-12, max_sweeps=100):
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    A complex Hermitian H embeds into the real symmetric
    [[Re H, -Im H], [Im H, Re H]], whose spectrum is that of H with
    every eigenvalue doubled.
    """
    h = np.asarray(matrix, dtype=complex)
    n = h.shape[0]
    a = np.block([[h.real, -h.imag], [h.imag, h.real]])
    m = 2 * n
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < tol:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(m)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < tol:
            break
    w = np.sort(np.diag(a))
    return w[0::2]  # drop the doubling


def partial_transpose_loops(m, dim_a, dim_b):
    """Partial transpose of the first factor by explicit index loops."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros_like(m)
    for a in range(dim_a):
        for b in range(dim_b):
            for a2 in range(dim_a):
                for b2 in range(dim_b):
                    out[a * dim_b + b, a2 * dim_b + b2] = m[
                        a2 * dim_b + b, a * dim_b + b2
                    ]
    return out


def kron_loops(a, b):
    """Kronecker product by explicit index loops."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


def gaussian_overlap_quadrature(sigma, delta, half_width=None, samples=20001):
    """|<E|E_shifted>| for unit-power E ~ exp(-x^2/(4 sigma^2)), offset delta.

    Direct 1-D trapezoidal quadrature; the 2-D overlap separates and the
    y factor is 1 for unshifted y.
    """
    if half_width is None:
        half_width = 12.0 * sigma + abs(delta)
    x = np.linspace(-half_width, half_width, samples)
    e1 = np.exp(-(x**2) / (4.0 * sigma**2))
    e2 = np.exp(-((x - delta) ** 2) / (4.0 * sigma**2))
    num = np.trapezoid(e1 * e2, x)
    den = np.trapezoid(e1 * e1, x)
    return num / den


def fringe_intensity(geom, alpha, phi, amplitude=1.0):
    """Integrated output intensity of the two offset Gaussian beams.

    I = pi a^2 sigma^2 (1 + exp(-delta^2/(2 sigma^2)) cos phi), with the
    lateral offset delta = delta_l0 tan(alpha) / (1 + tan(alpha)).
    """
    t = np.tan(alpha)
    delta = geom.delta_l0 * t / (1.0 + t)
    envelope = np.exp(-(delta**2) / (2.0 * geom.sigma**2))
    return math.pi * amplitude**2 * geom.sigma**2 * (1.0 + envelope * np.cos(phi))


def boundary_closed_form(v_z):
    """Classical boundary in v_xy at fixed v_z: the unit circle
    v_z^2 + v_xy^2 = 1, independent of the analyzer efficiencies."""
    return math.sqrt(1.0 - v_z**2)


def boundary_scan_bisect(
    v_z_values, eff, tol=1e-7, resolution=1e-3, qubit_mass=2.0 / 3.0
):
    """Classical boundary by plain bisection of [0, 1] in v_xy on the
    verdict of ``verify.sdp_feasible``, until the bracket is at most
    ``resolution`` wide.  Same outputs as ``verify.boundary_scan``."""
    from timebin_analyzer import verify

    def solve(v_z, v_xy):
        cs = verify.build_constraints(v_z, v_xy, eff, qubit_mass)
        return verify.sdp_feasible(cs, tol=tol)

    points = []
    for v_z in v_z_values:
        report_lo = solve(v_z, 0.0)
        assert report_lo.feasible, f"v_xy = 0 infeasible at v_z = {v_z}"
        report_hi = solve(v_z, 1.0)
        iterations = report_lo.iterations + report_hi.iterations
        if report_hi.feasible:
            points.append(verify.BoundaryPoint(
                float(v_z), math.inf, report_hi.margin, iterations))
            continue
        lo, hi = 0.0, 1.0
        margin_hi = report_hi.margin
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            report = solve(v_z, mid)
            iterations += report.iterations
            if report.feasible:
                lo = mid
            else:
                hi, margin_hi = mid, report.margin
        points.append(verify.BoundaryPoint(float(v_z), hi, margin_hi, iterations))
    return points


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_density_matrix(rng, dim):
    """Random full-rank density matrix from a Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def embed_2x3_loops(rho22, arrival_prob):
    """6x6 matrix of ``states.embed_2x3`` by explicit index loops: qubit
    block at Bob positions 1, 2 scaled by ``arrival_prob``, Alice's
    marginal at Bob's vacuum position 0 scaled by the loss."""
    out = np.zeros((6, 6), dtype=complex)
    blocks = rho22.matrix.reshape(2, 2, 2, 2)
    for a in range(2):
        for a2 in range(2):
            for b in range(2):
                for b2 in range(2):
                    out[3 * a + 1 + b, 3 * a2 + 1 + b2] = arrival_prob * blocks[a, b, a2, b2]
    alice = rho22.alice_marginal()
    for a in range(2):
        for a2 in range(2):
            out[3 * a, 3 * a2] += (1.0 - arrival_prob) * alice[a, a2]
    return out


def fit_cosine(phases, values):
    """Least-squares fit of A + B cos(phi - phi0) on a phase grid.

    The model is linear in (1, cos phi, sin phi).  Returns (offset,
    amplitude, phi0, rms_residual), phi0 in (-pi, pi]; a phase of pi may
    read a few ulp inside either end, so compare fitted phases modulo 2*pi.
    """
    phases = np.asarray(phases, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    offset, c, s = coef
    phi0 = math.atan2(s, c)
    if phi0 == -math.pi:
        phi0 = math.pi
    residual = float(np.sqrt(np.mean((design @ coef - values) ** 2)))
    return float(offset), math.hypot(c, s), phi0, residual


def fit_period(times, values):
    """Best-fit period of a sinusoid by scanning least-squares residuals."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    span = times[-1] - times[0]
    periods = np.linspace(0.2 * span, 2.0 * span, 1801)
    best = (np.inf, None)
    for period in periods:
        w = 2.0 * np.pi / period
        design = np.column_stack(
            [np.ones_like(times), np.cos(w * times), np.sin(w * times)]
        )
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        resid = float(np.sum((design @ coef - values) ** 2))
        if resid < best[0]:
            best = (resid, period)
    return best[1]


def hermitian_basis(dim):
    """Orthonormal real basis of the Hermitian dim x dim matrices.

    Ordered as: diagonal unit matrices, then for each i<j the symmetric
    pair (E_ij + E_ji)/sqrt(2), then the antisymmetric i(E_ij - E_ji)/sqrt(2).
    Orthonormal under the Frobenius inner product Tr(A B).
    """
    basis = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = inv_sqrt2
            m[j, i] = inv_sqrt2
            basis.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j * inv_sqrt2
            m[j, i] = 1j * inv_sqrt2
            basis.append(m)
    return basis


def symmetric_basis(dim):
    """The real members of :func:`hermitian_basis`: an orthonormal basis of
    the real symmetric dim x dim matrices, diagonal unit matrices first,
    then (E_ij + E_ji)/sqrt(2) for each i<j."""
    return [b.real for b in hermitian_basis(dim) if not np.any(b.imag)]


def basis_traces(m, basis):
    """Real coordinates Tr(b^dagger m) of a matrix in an orthonormal basis."""
    m = np.asarray(m, dtype=complex)
    return np.array([np.trace(b.conj().T @ m).real for b in basis])


def alternating_projections(cs, iterations=4000, gap_tol=1e-6):
    """PPT feasibility by cyclic projection onto the PSD cone, the cone of
    states with PSD partial transpose, and the affine constraint set.

    ``cs`` is a 2x3 constraint set (operators C_k, targets b_k).  Returns
    (feasible, rho, gap): if the sets intersect, the iterates converge
    and the residual gap falls below ``gap_tol``; for an empty
    intersection the gap stalls at a positive value.
    """
    basis = np.array(hermitian_basis(6))
    rows = np.array([basis_traces(op, basis) for op in cs.operators])
    b = np.asarray(cs.targets, dtype=float)
    pinv = np.linalg.pinv(rows)

    def pt(m):
        return partial_transpose_loops(m, 2, 3)

    def min_eig(m):
        return float(np.linalg.eigvalsh(m)[0])

    def project_affine(x):
        return x + pinv @ (b - rows @ x)

    def project_psd(rho):
        w, v = np.linalg.eigh(rho)
        return (v * np.maximum(w, 0.0)) @ v.conj().T

    x = project_affine(np.zeros(len(basis)))
    gap = math.inf
    for _ in range(iterations):
        rho = np.tensordot(x, basis, axes=1)
        rho_psd = project_psd(rho)
        rho_ppt = pt(project_psd(pt(rho_psd)))
        x_new = project_affine(basis_traces(rho_ppt, basis))
        gap = float(np.linalg.norm(x_new - x))
        x = x_new
        rho = np.tensordot(x, basis, axes=1)
        if gap < 1e-12 and min_eig(rho) > -gap_tol and min_eig(pt(rho)) > -gap_tol:
            break
    rho = np.tensordot(x, basis, axes=1)
    residual = max(
        abs(float(np.trace(rho @ op).real) - float(t))
        for op, t in zip(cs.operators, cs.targets)
    )
    feasible = (
        min_eig(rho) > -gap_tol and min_eig(pt(rho)) > -gap_tol and residual < gap_tol
    )
    return feasible, rho, gap


def drift_scan_rates_loop(rho, projectors, eta_l, eta_s, phases, scale):
    """Expected drift-scan counts, one middle-bin element and six traces per bucket.

    ``rho`` is a 6x6 (2x3) state, ``projectors`` Alice's (+, -) pair,
    ``phases`` the analyzer phase of each bucket and ``scale`` the pairs
    per bucket.  Returns the six series as a (2, 3, n) array indexed by
    detector ('+', '-'), bin (early, mid, late) and bucket, as
    ``DriftTrace.counts`` holds them in noiseless mode.
    """

    def kron(a, b):
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(6, 6)

    rho = np.asarray(rho, dtype=complex)
    m_e = 0.25 * np.diag([0.0, eta_s, 0.0]).astype(complex)
    m_l = 0.25 * np.diag([0.0, 0.0, eta_l]).astype(complex)
    rates = np.empty((2, 3, len(phases)))
    for k, phi in enumerate(phases):
        cross = np.sqrt(eta_l * eta_s) * np.exp(1j * phi)
        m_x = 0.25 * np.array(
            [[0.0, 0.0, 0.0], [0.0, eta_l, cross], [0.0, np.conj(cross), eta_s]],
            dtype=complex,
        )
        for det, proj in enumerate(projectors):
            for b, op in enumerate((m_e, m_x, m_l)):
                rates[det, b, k] = scale * np.trace(rho @ kron(proj, op)).real
    return rates


def expectation_surface_dense(n_plus, n_minus):
    """Dense two-time surface by broadcasting, as (surface, defined).

    Builds every cell E(i, j) = ((N+_i + N-_j) - N-_i) - N+_j over the sum
    of the four; cells whose counts sum to zero are undefined and hold NaN.
    """
    p1 = n_plus[:, None]
    m1 = n_minus[:, None]
    p2 = n_plus[None, :]
    m2 = n_minus[None, :]
    total = p1 + m2 + m1 + p2
    defined = total > 0
    surface = p1 + m2
    surface -= m1
    surface -= p2
    np.divide(surface, total, out=surface, where=defined)
    surface[~defined] = np.nan
    return surface, defined


def max_expectation_surface_dense(n_plus, n_minus):
    """Largest |E| of ``expectation_surface_dense``, as (max_abs, argmax, value).

    Excludes undefined cells and takes the first row-major argmax of |E|.
    """
    from timebin_analyzer.chsh import ZeroDenominatorError

    surface, defined = expectation_surface_dense(n_plus, n_minus)
    if not np.any(defined):
        raise ZeroDenominatorError("every surface cell is undefined")
    masked = np.abs(surface)
    masked[~defined] = -np.inf
    argmax = np.unravel_index(int(np.argmax(masked)), surface.shape)
    value = float(surface[argmax])
    return abs(value), (int(argmax[0]), int(argmax[1])), value


def angular_spectrum_kernel_dense(field, distance):
    """exp(2 pi i d sqrt(1/lambda^2 - fx^2 - fy^2)) evaluated on every cell
    of the N x N FFT frequency grid; evanescent cells decay as
    exp(-2 pi |d| sqrt(fx^2 + fy^2 - 1/lambda^2)), clipped at exp(-700)."""
    f = np.fft.fftfreq(field.n, d=field.cell)
    fx, fy = f[:, None], f[None, :]
    inv_lam2 = 1.0 / field.wavelength**2
    arg = inv_lam2 - fx**2 - fy**2
    kernel = 2j * math.pi * distance * np.sqrt(np.maximum(arg, 0.0))
    np.exp(kernel, out=kernel)
    evanescent = arg < 0
    if np.any(evanescent):
        decay = np.exp(
            np.clip(-2.0 * math.pi * abs(distance) * np.sqrt(-arg[evanescent]), -700, 0)
        )
        kernel[evanescent] = decay
    return kernel


def coords(field):
    """Centered coordinate axis of the field's grid [m]."""
    return (np.arange(field.n) - field.n // 2) * field.cell


def spectrum(field):
    """Unshifted 2-D spectrum of the centered field grid."""
    return np.fft.fft2(np.fft.ifftshift(field.grid))


def propagate(field, distance):
    """Exact scalar angular-spectrum propagation over ``distance`` [m]: the
    spectrum times the full-grid kernel.  Power is conserved for propagating
    components.  Raises the library's AliasingError when the kernel would
    alias at the field's bandwidth."""
    from timebin_analyzer import waveoptics as w
    from timebin_analyzer._checks import finite_in

    finite_in("distance", distance)
    if distance == 0.0:
        return w.ScalarField(field.grid.copy(), field.extent, field.wavelength)
    spec = spectrum(field)
    w._check_alias(field, w._folded_power(spec)[1], distance)
    kernel = angular_spectrum_kernel_dense(field, distance)
    out = np.fft.fftshift(np.fft.ifft2(np.multiply(spec, kernel, out=kernel)))
    return w.ScalarField(out, field.extent, field.wavelength)


def overlap(a, b):
    """Inner product <a|b> with the physical cell measure."""
    if a.grid.shape != b.grid.shape or a.extent != b.extent:
        raise ValueError("fields must share the same grid")
    product = np.conj(a.grid)
    return complex(np.sum(np.multiply(product, b.grid, out=product)) * a.cell**2)


def fringe_visibility(a, b):
    """Fringe visibility of two interfering fields,
    V = |<a|b>| / ((|a|^2 + |b|^2)/2); the symmetric denominator makes
    unequal arm powers reduce the visibility."""
    cross = overlap(a, b)
    pa, pb = a.power(), b.power()
    if not (0 < pa < math.inf and 0 < pb < math.inf):
        raise ValueError(f"both fields must carry finite power, got {pa} and {pb}")
    return float(np.abs(cross) / (0.5 * (pa + pb)))


def aoi_visibility_scan_dense(field, geom, alphas):
    """Relay-off visibilities on the full N x N grid: the spectrum A of the
    centered field, B = A K with the dense kernel, cross[i] = sum_j conj(A) B
    over each row, one phase ramp per angle, and the powers sum |A|^2 and
    sum |B|^2."""
    from timebin_analyzer import geometry as g

    spec = spectrum(field)
    spec_long = spec * angular_spectrum_kernel_dense(field, geom.delta_l0)
    cross = np.einsum("ij,ij->i", np.conj(spec), spec_long)
    delta = g.lateral_offset(geom, np.asarray(alphas, dtype=float))
    fx = np.fft.fftfreq(field.n, d=field.cell)
    overlaps = np.exp(-2j * math.pi * np.multiply.outer(delta, fx)) @ cross
    pa = np.sum(np.abs(spec) ** 2)
    pb = np.sum(np.abs(spec_long) ** 2)
    return geom.v0 * np.abs(overlaps) / (0.5 * (pa + pb))


def signal_bandwidth_argsort(field, spec):
    """Radial frequency holding all but 1e-12 of the power of the unshifted
    spectrum ``spec``: every cell sorted by hypot(fx, fy), then one
    cumulative sum in that order."""
    f = np.fft.fftfreq(field.n, d=field.cell)
    fr = np.hypot(f[:, None], f[None, :]).ravel()
    p = np.abs(spec).ravel() ** 2
    order = np.argsort(fr)
    cum = np.cumsum(p[order])
    total = cum[-1]
    if total <= 0:
        return 0.0
    idx = int(np.searchsorted(cum, (1.0 - 1e-12) * total))
    return float(fr[order][min(idx, fr.size - 1)])


def signal_bandwidth_ring_loop(field, spec, number=float):
    """The ring rule, one cell at a time: cells are grouped by the integer
    key kx^2 + ky^2 (k = min(i, N - i) per FFT index), each ring's power is
    summed in row-major cell order, the rings are accumulated in ascending
    key order, and the first ring whose cumulative power reaches
    (1 - 1e-12) of the total gives its largest radius.  With
    ``number=fractions.Fraction`` the sums and the threshold are exact."""
    n = field.n
    f = np.fft.fftfreq(n, d=field.cell)
    power = (np.abs(spec) ** 2).tolist()
    rings = {}
    for i in range(n):
        for j in range(n):
            key = min(i, n - i) ** 2 + min(j, n - j) ** 2
            p, radius = rings.get(key, (number(0), 0.0))
            rings[key] = (
                p + number(power[i][j]),
                max(radius, float(np.hypot(f[i], f[j]))),
            )
    cumulative = []
    running = number(0)
    for key in sorted(rings):
        running += rings[key][0]
        cumulative.append((running, rings[key][1]))
    if running <= 0:
        return 0.0
    threshold = (number(1) - number(1e-12)) * running
    return next(radius for cum, radius in cumulative if cum >= threshold)


def normalized(field):
    """Unit-power copy of ``field``: a new grid divided by sqrt(power)."""
    from timebin_analyzer.waveoptics import ScalarField

    p = field.power()
    if p <= 0:
        raise ValueError("cannot normalize a zero-power field")
    return ScalarField(field.grid / math.sqrt(p), field.extent, field.wavelength)


def gaussian_dense(sigma, grid_n, extent=None, wavelength=776e-9):
    """Unit-power Gaussian exp(-(x^2 + y^2) / (4 sigma^2)) evaluated on every
    cell of the N x N meshgrid, then normalized by :func:`normalized`."""
    from timebin_analyzer.waveoptics import ScalarField

    if extent is None:
        extent = 16.0 * sigma
    x = (np.arange(grid_n) - grid_n // 2) * (extent / grid_n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    grid = np.exp(-(xx**2 + yy**2) / (4.0 * sigma**2)).astype(complex)
    return normalized(ScalarField(grid, extent, wavelength))


def shift_and_tilt(field, dx, alpha):
    """The reference composition: translate ``field`` by ``dx`` along x with
    a spectral phase ramp (exact for band-limited fields), then multiply by
    the tilt exp(i 2 pi sin(alpha) x / wavelength).  Shifts beyond a
    quarter extent would wrap around and raise ShiftTooLargeError."""
    from timebin_analyzer import waveoptics as w

    w._check_shift(field, abs(dx))
    out = field.grid
    if dx != 0.0:
        fx = np.fft.fftfreq(field.n, d=field.cell)[:, None]
        spec = spectrum(field)
        spec *= np.exp(-2j * math.pi * fx * dx)
        out = np.fft.fftshift(np.fft.ifft2(spec))
    if alpha != 0.0:
        x = coords(field)
        tilt = np.exp(2j * math.pi * math.sin(alpha) * x / field.wavelength)
        out = out * tilt[:, None]
    return w.ScalarField(out, field.extent, field.wavelength)


def lens(field, focal_length):
    """Thin-lens phase exp(-i pi r^2 / (lambda f)) applied on the grid."""
    from timebin_analyzer.waveoptics import ScalarField

    x = coords(field)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    phase = np.exp(
        -1j * math.pi * (xx**2 + yy**2) / (field.wavelength * focal_length)
    )
    return ScalarField(field.grid * phase, field.extent, field.wavelength)


def relay_by_lenses(field, f):
    """The relay traced lens by lens, twice: {FS(f) L(f) FS(2f) L(f) FS(f)}^2.

    At realistic parameters the lens phase aliases on practical grids,
    which is why the library models the relay as the identity.
    """
    out = field
    for _ in range(2):
        out = propagate(out, f)
        out = lens(out, f)
        out = propagate(out, 2.0 * f)
        out = lens(out, f)
        out = propagate(out, f)
    return out
