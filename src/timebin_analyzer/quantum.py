"""Dense linear algebra for small bipartite quantum systems.

Operators live on a 2-dimensional polarization factor (Alice, basis
{H, V}) tensored with a 2- or 3-dimensional time-bin factor (Bob).  The
3-dimensional Bob basis is {no photon, E, L} with the vacuum first.
All matrices are plain complex numpy arrays, except the PPT program's
real symmetric unknowns (:func:`vec_symmetric`); :class:`DensityMatrix`
is a thin validated wrapper that remembers the factor dimensions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionMismatchError(ValueError):
    """Operator dimensions do not match."""


def is_hermitian(m, tol=HERMITICITY_TOL):
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol * max(1.0, np.max(np.abs(m))))


def tensor(a, b):
    """Kronecker product with Alice's factor leftmost.

    ``a`` and ``b`` may be stacks (..., p, q) and (..., m, n); their stack
    shapes broadcast, and each pair of matrices is tensored.  Every entry
    is the one complex product a_ij b_kl, as in ``np.kron``, formed in one
    broadcast multiply.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (p, q), (m, n) = a.shape[-2:], b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (p * m, q * n))


def partial_transpose(m, dim_a=2, dim_b=None):
    """Transpose the first (Alice) tensor factor of a bipartite operator,
    or of each operator in a stack (..., n, n).

    The operation is an involution and preserves trace and Hermiticity.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got {m.shape}")
    n = m.shape[-1]
    if dim_b is None:
        dim_b, rem = divmod(n, dim_a)
        if rem:
            raise DimensionMismatchError(f"dim_a={dim_a} does not divide size {n}")
    if dim_a * dim_b != n:
        raise DimensionMismatchError(
            f"dim_a*dim_b = {dim_a * dim_b} does not match size {n}"
        )
    blocks = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return blocks.swapaxes(-4, -2).reshape(m.shape)


def min_eigenvalue(m):
    """Smallest eigenvalue of a Hermitian matrix; a stack (..., n, n) gives
    an array of them."""
    low = np.linalg.eigvalsh(np.asarray(m, dtype=complex))[..., 0]
    return float(low) if low.ndim == 0 else low


def expectation(rho, obs):
    """Tr(rho * obs) for Hermitian rho and obs; returns the real part.

    Stacks (..., d, d) broadcast and give an array; a single pair gives a
    float.  Every imaginary residue must be below 1e-10 and is discarded
    after the check.
    """
    rho = np.asarray(rho, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    if rho.shape[-2:] != obs.shape[-2:]:
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match observable shape {obs.shape}"
        )
    val = np.trace(rho @ obs, axis1=-2, axis2=-1)
    bad = np.abs(val.imag) > 1e-10 * np.maximum(1.0, np.abs(val.real))
    if np.any(bad):
        raise ValueError(f"expectation value has imaginary residue {val.imag[bad][0]}")
    return float(val.real) if val.ndim == 0 else val.real


@dataclass
class DensityMatrix:
    """Trace-one positive operator on a 2 x d bipartite space (d = 2 or 3)."""

    matrix: np.ndarray
    dim_a: int = 2
    dim_b: int = 2

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.dim_a * self.dim_b
        if self.matrix.shape != (n, n):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match dims "
                f"({self.dim_a}, {self.dim_b})"
            )

    def validate(self):
        if not is_hermitian(self.matrix, HERMITICITY_TOL):
            raise NotHermitianError("density matrix is not Hermitian")
        tr = np.trace(self.matrix).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} differs from 1")
        if min_eigenvalue(self.matrix) < -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        return self

    def partial_transpose(self):
        return partial_transpose(self.matrix, self.dim_a, self.dim_b)

    def expectation(self, obs):
        return expectation(self.matrix, obs)

    def alice_marginal(self):
        blocks = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return np.einsum("ibjb->ij", blocks)

    def bob_marginal(self):
        blocks = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return np.einsum("aiaj->ij", blocks)


def operator_to_dict(m, dim_a, dim_b):
    """Serialize an operator to the {dim_a, dim_b, re, im} JSON schema."""
    m = np.asarray(m, dtype=complex)
    return {
        "dim_a": int(dim_a),
        "dim_b": int(dim_b),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def operator_from_dict(d):
    """Deserialize an operator from the {dim_a, dim_b, re, im} JSON schema."""
    m = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    n = int(d["dim_a"]) * int(d["dim_b"])
    if m.shape != (n, n):
        raise DimensionMismatchError(
            f"serialized shape {m.shape} does not match dims "
            f"({d['dim_a']}, {d['dim_b']})"
        )
    return m


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _upper_pairs(n):
    """Row and column indices (i, j), i < j, of an n x n matrix, row-major."""
    return np.triu_indices(n, 1)


def vec_symmetric(m):
    """Real coordinates of a real symmetric n x n matrix, or of a stack of them.

    The coordinates are those in the orthonormal (Frobenius) basis of
    diagonal unit matrices, then (E_ij + E_ji)/sqrt(2) for each i<j in
    row-major order: m[i,i], then c*m[j,i] + c*m[i,j] with c = 1/sqrt(2).
    Both triangles are read, so the map is the Frobenius pairing Tr(B m)
    also for a matrix that is symmetric only to rounding.  A nonzero
    imaginary part raises ValueError.
    """
    m = np.asarray(m)
    if np.any(np.imag(m)):
        raise ValueError("vec_symmetric needs a real matrix, got a complex one")
    m = m.real
    i, j = _upper_pairs(m.shape[-1])
    pairs = _INV_SQRT2 * m[..., j, i] + _INV_SQRT2 * m[..., i, j]
    return np.concatenate([m.diagonal(axis1=-2, axis2=-1), pairs], axis=-1)


def unvec_symmetric(x):
    """Real symmetric matrix from its coordinates in :func:`vec_symmetric` order."""
    x = np.asarray(x, dtype=float)
    n = (math.isqrt(8 * x.shape[-1] + 1) - 1) // 2
    if n * (n + 1) != 2 * x.shape[-1]:
        raise DimensionMismatchError(f"{x.shape[-1]} coordinates are not n(n+1)/2")
    i, j = _upper_pairs(n)
    m = np.zeros(x.shape[:-1] + (n, n))
    d = np.arange(n)
    m[..., d, d] = x[..., :n]
    m[..., i, j] = m[..., j, i] = _INV_SQRT2 * x[..., n:]
    return m
