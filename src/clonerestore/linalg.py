"""Closed-form linear algebra for 2x2 complex matrices.

Everything the protocol needs is exact at this size: Hilbert-Schmidt
distance, the principal square root of a PSD matrix (Cayley-Hamilton),
polar decomposition, and the nearest-unitary approximation given by the
unitary polar factor. No iterative decompositions.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext

import numpy as np

ATOL = 1e-12

# No square of an entry at most this large overflows, nor does a sum of
# four of them: 4 * (1e150)^2 is far below the largest double.
_SQUARE_MAX = 1e150

IDENTITY = np.eye(2, dtype=complex)
IDENTITY.flags.writeable = False


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; supports stacked (..., 2, 2) inputs."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def det2(a: np.ndarray) -> np.complex128:
    """Determinant of a 2x2 matrix; ValueError when it is not finite. Python's
    products have numpy's bits but never warn, so an overflow gets here."""
    (a00, a01), (a10, a11) = a.tolist()
    det = a00 * a11 - a01 * a10
    if not cmath.isfinite(det):
        raise ValueError("determinant is not finite")
    return np.complex128(det)


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance: (Tr[(a-b)^dag (a-b)])^(1/2).

    Raises ValueError for a non-finite entry, or when the squared norm of
    a, b or a - b overflows; while those of a and b are finite, a - b is.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    _finite_norm2(a)
    _finite_norm2(b)
    return float(np.sqrt(_finite_norm2(a - b)))


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=complex)
    # past _SQUARE_MAX a - a^dag may overflow, but only where the two differ
    with np.errstate(over="ignore") if np.abs(a).max() > _SQUARE_MAX else nullcontext():
        return bool(np.max(np.abs(a - dagger(a))) <= ATOL)


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=complex)
    if np.abs(a).max() > _SQUARE_MAX:
        return False    # a unitary's entries are at most 1; the product may overflow
    return bool(np.max(np.abs(dagger(a) @ a - IDENTITY)) <= ATOL)


def is_psd(a: np.ndarray) -> bool:
    """Hermitian with both eigenvalues >= -ATOL (2x2 trace/det form).

    A matrix with an entry above _SQUARE_MAX, whose square may overflow,
    is divided by its largest entry first, so there the test is relative.
    """
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        return False
    largest = np.abs(a).max()
    if largest > _SQUARE_MAX:
        a = a / largest
    tr = (a[0, 0] + a[1, 1]).real
    det = det2(a).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    return bool(tr / 2.0 - np.sqrt(disc) >= -ATOL)


def _nonfinite_error(a: np.ndarray, what: str) -> ValueError:
    """The error for an array ``what`` whose norm was found not finite.

    A square is never negative, so a NaN or infinite entry always makes
    the norm non-finite; otherwise the norm overflowed.
    """
    if np.isfinite(a).all():
        return ValueError(f"{what} norm overflows")
    return ValueError(f"{what} must be finite")


def _finite_norm2(a: np.ndarray) -> float:
    """Squared Frobenius norm of a 2x2 matrix.

    Raises ValueError for a non-finite entry or a norm that overflows.
    """
    m = np.abs(a)
    if m.max() > _SQUARE_MAX:
        # a square may overflow: the ValueError below, not numpy's
        # RuntimeWarning. errstate costs more than the sum, so only here
        with np.errstate(over="ignore"):
            norm2 = np.sum(m ** 2)
    else:
        norm2 = np.sum(m ** 2)
    if not math.isfinite(norm2):
        raise _nonfinite_error(a, "matrix")
    return norm2


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD 2x2 matrix.

    Uses sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)),
    valid for every PSD matrix except A = 0, which maps to 0. Raises
    ValueError for a non-finite entry, a norm that overflows, or a
    negative tr A + 2 sqrt(det A), which no PSD matrix has.
    """
    a = np.asarray(a, dtype=complex)
    _finite_norm2(a)
    det = max(det2(a).real, 0.0)
    tr = (a[0, 0] + a[1, 1]).real
    s = np.sqrt(det)
    if tr + 2.0 * s < 0.0:
        raise ValueError("matrix is not PSD")
    denom = np.sqrt(tr + 2.0 * s)
    if denom == 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (a + s * IDENTITY) / denom


def polar_decompose(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor e = u @ p with u unitary and p = sqrt(e^dag e) Hermitian PSD.

    Raises ValueError for (numerically) singular input: the unitary
    factor is not unique there and the protocol never produces one; and
    for a non-finite entry or a norm that overflows.
    """
    e = np.asarray(e, dtype=complex)
    norm2 = _finite_norm2(e)
    det = det2(e)
    if abs(det) <= ATOL:
        raise ValueError("degenerate input: polar decomposition requires an invertible matrix")
    # With singular values s1, s2: |det e| (e^-1)^dag = (det e/|det e|) adj(e)^dag,
    # e + |det e| (e^-1)^dag = (s1 + s2) u and (s1 + s2)^2 = |e|_F^2 + 2 |det e|.
    # Unlike e @ inv(p), nothing is inverted, so u stays unitary to
    # rounding when e is ill-conditioned.
    adj_dag = np.array([[e[1, 1], -e[1, 0]], [-e[0, 1], e[0, 0]]]).conj()
    u = (e + (det / abs(det)) * adj_dag) / np.sqrt(norm2 + 2.0 * abs(det))
    h = dagger(u) @ e
    return u, 0.5 * (h + dagger(h))


def nearest_unitary(e: np.ndarray) -> np.ndarray:
    """The unitary closest to e in Hilbert-Schmidt distance.

    This is the unitary factor of the polar decomposition, equal to the
    product of the two unitaries in the singular value decomposition.
    """
    u, _ = polar_decompose(e)
    return u


def haar_random_unitary(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed 2x2 unitaries; shape (2, 2) or (size, 2, 2)."""
    shape = (2, 2) if size is None else (size, 2, 2)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_invertible(rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian 2x2 matrix, resampled until |det| >= 0.05."""
    while True:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(det2(g)) >= 0.05:
            return g
