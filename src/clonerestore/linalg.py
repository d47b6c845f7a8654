"""Closed-form linear algebra for 2x2 complex matrices.

Everything the protocol needs is exact at this size: Hilbert-Schmidt
distance, the principal square root of a PSD matrix (Cayley-Hamilton),
polar decomposition, and the nearest-unitary approximation given by the
unitary polar factor. No iterative decompositions. The square root,
the polar decomposition and the determinant also take a (..., 2, 2)
stack, with a single matrix the one-element case of the same code.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from numbers import Real

import numpy as np

ATOL = 1e-12

# No square of an entry at most this large overflows, nor does a sum of
# four of them: 4 * (1e150)^2 is far below the largest double.
_SQUARE_MAX = 1e150

IDENTITY = np.eye(2, dtype=complex)
IDENTITY.flags.writeable = False


def _may_overflow(*magnitudes) -> bool:
    """Whether one of these entry magnitudes is NaN or above _SQUARE_MAX."""
    return not all(m <= _SQUARE_MAX for m in magnitudes)


def _overflow_guard(*magnitudes):
    """errstate silencing overflow and invalid where ``_may_overflow``, leaving the fault to
    the caller's finiteness test; elsewhere nullcontext: errstate costs more than 2x2 math."""
    return np.errstate(over="ignore", invalid="ignore") if _may_overflow(*magnitudes) else nullcontext()


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; supports stacked (..., 2, 2) inputs. ValueError
    unless a is a numeric array of at least 2 dimensions."""
    a = np.asarray(a)
    if a.ndim < 2 or a.dtype.kind not in "biufc":
        raise ValueError(f"a must be a numeric array of at least 2 dimensions, got {a!r}")
    return a.conj().swapaxes(-1, -2)


def _complex_array(a, name: str, shape: tuple | None = None) -> np.ndarray:
    """The argument ``name``, a, as a complex array; ValueError naming it
    where numpy cannot convert it, such as a string entry, or, given
    ``shape``, where its shape does not match: a size, a letter for any
    size, and a leading ``...`` for any number of leading axes. A real
    number beyond the double range, such as 10**400, becomes +-inf where
    numpy raises OverflowError, the rule of ``core._real_array`` for real
    ones; the finiteness tests of the callers then reject it."""
    try:
        try:
            a = np.asarray(a, dtype=complex)
        except OverflowError:
            entries = np.asarray(a, dtype=object)
            a = np.array([_inf_beyond_double(x) for x in entries.flat],
                         dtype=complex).reshape(entries.shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of complex numbers: {exc}") from None
    if shape is not None and a.shape != shape and not _fits(a.shape, shape):
        sizes = ", ".join("..." if s is ... else str(s) for s in shape)
        raise ValueError(f"{name} must have shape ({sizes}{',' * (len(shape) == 1)}), "
                         f"got {a.shape}")
    return a


def _fits(actual: tuple, shape: tuple) -> bool:
    """Whether the shape ``actual`` matches ``shape`` as ``_complex_array`` reads it."""
    if shape[0] is ...:
        shape, actual = shape[1:], actual[max(len(actual) - len(shape) + 1, 0):]
    return len(actual) == len(shape) and all(isinstance(s, str) or s == n
                                               for s, n in zip(shape, actual))


def _inf_beyond_double(x):
    """+-inf for a real number beyond the double range, else x itself."""
    if isinstance(x, Real):
        try:
            float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    return x


def det2(a: np.ndarray) -> np.complex128 | np.ndarray:
    """Determinant of a 2x2 matrix, or of each matrix of a (..., 2, 2)
    stack; ValueError where one is not finite. The products are written out
    in real and imaginary parts, in the order Python's complex product takes
    them: numpy's complex multiply fuses them and rounds differently."""
    a = _complex_array(a, "a", (..., 2, 2))
    (r00, r01), (r10, r11) = np.moveaxis(a.real, (-2, -1), (0, 1))
    (i00, i01), (i10, i11) = np.moveaxis(a.imag, (-2, -1), (0, 1))
    det = np.empty(a.shape[:-2], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        det.real = (r00 * r11 - i00 * i11) - (r01 * r10 - i01 * i10)
        det.imag = (r00 * i11 + i00 * r11) - (r01 * i10 + i01 * r10)
    if not np.isfinite(det).all():
        raise ValueError("determinant is not finite")
    return det[()]


def _modulus(z):
    """|z| as abs() gives it for a numpy complex scalar; np.abs's vector
    loop for complex arrays rounds differently."""
    return np.hypot(z.real, z.imag)


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt distance: (Tr[(a-b)^dag (a-b)])^(1/2).

    Raises ValueError unless a and b are 2x2, for a non-finite entry, or
    when the squared norm of a, b or a - b overflows; while those of a and
    b are finite, a - b is.
    """
    a, b = _complex_array(a, "a", (2, 2)), _complex_array(b, "b", (2, 2))
    _finite_norm2(a, "a")
    _finite_norm2(b, "b")
    return float(np.sqrt(_finite_norm2(a - b, "a - b")))


def is_hermitian(a: np.ndarray) -> bool:
    a = _complex_array(a, "a")
    # a - a^dag may overflow, but only where the two differ
    with _overflow_guard(np.abs(a).max()):
        return bool(np.max(np.abs(a - dagger(a))) <= ATOL)


def is_unitary(a: np.ndarray) -> bool:
    a = _complex_array(a, "a")
    if _may_overflow(np.abs(a).max()):
        return False    # a unitary's entries are at most 1; the product may overflow
    return bool(np.max(np.abs(dagger(a) @ a - IDENTITY)) <= ATOL)


def is_psd(a: np.ndarray) -> bool:
    """Hermitian with both eigenvalues >= -ATOL (2x2 trace/det form).

    A matrix with an entry above _SQUARE_MAX, whose square may overflow,
    is divided by its largest entry first, so there the test is relative.
    """
    a = _complex_array(a, "a")
    if not is_hermitian(a):
        return False
    largest = np.abs(a).max()
    if _may_overflow(largest):
        a = a / largest
    tr = (a[0, 0] + a[1, 1]).real
    det = det2(a).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    return bool(tr / 2.0 - np.sqrt(disc) >= -ATOL)


def _nonfinite_error(a: np.ndarray, name: str) -> ValueError:
    """The error for the argument ``name``, a, whose norm was found not finite.

    A square is never negative, so a NaN or infinite entry always makes
    the norm non-finite; otherwise the norm overflowed.
    """
    if np.isfinite(a).all():
        return ValueError(f"{name} norm overflows")
    return ValueError(f"{name} must be finite")


def _finite_norm2(a: np.ndarray, name: str) -> float | np.ndarray:
    """Squared Frobenius norm of a 2x2 matrix, or of each matrix of a stack.

    Raises ValueError naming ``name`` for a non-finite entry or a norm that
    overflows.
    """
    m = np.abs(a)
    with _overflow_guard(m.max(initial=0.0)):
        norm2 = np.sum(m ** 2, axis=(-2, -1))
    if not np.isfinite(norm2).all():
        raise _nonfinite_error(a, name)
    return norm2


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD 2x2 matrix, or of each
    matrix of a (..., 2, 2) stack.

    Uses sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)),
    valid for every PSD matrix except A = 0, which maps to 0. Raises
    ValueError for a wrong shape, a non-finite entry, a norm that
    overflows, or a negative tr A + 2 sqrt(det A) or a root that
    overflows, which no PSD matrix has; a stack raises the error of a
    matrix that raises one alone.
    """
    a = _complex_array(a, "a", (..., 2, 2))
    _finite_norm2(a, "a")
    det = det2(a).real
    s = np.sqrt(np.where(0.0 > det, 0.0, det))    # max(det, 0.0), -0.0 kept
    tr = (a[..., 0, 0] + a[..., 1, 1]).real
    if np.any(tr + 2.0 * s < 0.0):
        raise ValueError("matrix is not PSD")
    denom = np.sqrt(tr + 2.0 * s)
    zero = denom == 0.0
    denom = np.where(zero, np.inf, denom)
    # a PSD root's entries are at most denom; a finite entry, below 3e154
    # since the norm is finite, overflows only over a denom below 2e-154
    with _overflow_guard(1.0 / denom.min(initial=np.inf)):
        root = (a + s[..., None, None] * IDENTITY) / denom[..., None, None]
    if not np.isfinite(root).all():
        raise ValueError("matrix is not PSD: its square root overflows")
    return np.where(zero[..., None, None], 0j, root)


def polar_decompose(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor e = u @ p with u unitary and p = sqrt(e^dag e) Hermitian PSD;
    a (..., 2, 2) stack is factored matrix by matrix.

    Raises ValueError for a wrong shape; for (numerically) singular input,
    where the unitary factor is not unique and the protocol never produces
    one; and for a non-finite entry or a norm that overflows. A stack
    raises the error of a matrix that raises one alone.
    """
    e = _complex_array(e, "e", (..., 2, 2))
    norm2 = _finite_norm2(e, "e")
    det = det2(e)
    mag = _modulus(det)
    if np.any(mag <= ATOL):
        raise ValueError("degenerate input: polar decomposition requires an invertible matrix")
    # With singular values s1, s2: |det e| (e^-1)^dag = (det e/|det e|) adj(e)^dag,
    # e + |det e| (e^-1)^dag = (s1 + s2) u and (s1 + s2)^2 = |e|_F^2 + 2 |det e|.
    # Unlike e @ inv(p), nothing is inverted, so u stays unitary to
    # rounding when e is ill-conditioned.
    adj_dag = np.stack([e[..., 1, 1], -e[..., 1, 0], -e[..., 0, 1], e[..., 0, 0]],
                       axis=-1).reshape(e.shape).conj()
    u = (e + (det / mag)[..., None, None] * adj_dag) / np.sqrt(norm2 + 2.0 * mag)[..., None, None]
    h = dagger(u) @ e
    return u, 0.5 * (h + dagger(h))


def nearest_unitary(e: np.ndarray) -> np.ndarray:
    """The unitary closest to e in Hilbert-Schmidt distance.

    This is the unitary factor of the polar decomposition, equal to the
    product of the two unitaries in the singular value decomposition;
    a (..., 2, 2) stack as ``polar_decompose`` takes it.
    """
    u, _ = polar_decompose(e)
    return u


def _check_rng(rng) -> None:
    """Raise ValueError unless rng is a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")


def haar_random_unitary(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed 2x2 unitaries; shape (2, 2), or (size, 2, 2) for an integer size >= 0.
    ValueError unless rng is a ``numpy.random.Generator``."""
    from .core import _check_count    # core imports this module

    _check_rng(rng)
    if size is not None:
        _check_count(size, "size", 0)
    shape = (2, 2) if size is None else (size, 2, 2)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_invertible(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Complex Gaussian 2x2 matrices, each resampled until |det| >= 0.05;
    shape (2, 2), or (size, 2, 2) for an integer size >= 0.

    The draws are those of ``size`` calls without it: a candidate takes 8
    normals, its real then its imaginary parts, and each round draws only
    as many candidates as are still wanted, so none is drawn past the last.
    ValueError unless rng is a ``numpy.random.Generator``.
    """
    from .core import _check_count    # core imports this module

    _check_rng(rng)
    if size is not None:
        _check_count(size, "size", 0)
    kept = [np.empty((0, 2, 2), dtype=complex)]
    wanted = 1 if size is None else size
    while wanted:
        g = rng.standard_normal((wanted, 2, 2, 2))
        g = g[:, 0] + 1j * g[:, 1]
        g = g[_modulus(det2(g)) >= 0.05]
        kept.append(g)
        wanted -= len(g)
    out = np.concatenate(kept)
    return out[0] if size is None else out
