"""Single-qubit states, density matrices, and Kraus channels.

Pure states live in a fixed gauge: real amplitudes alpha, beta >= 0 with
alpha^2 + beta^2 = 1 and a relative phase phi in [0, 2*pi). Density
matrices and channel elements are plain complex ndarrays: ``KrausChannel``
checks its elements on construction, and ``fidelity`` and
``apply_channel`` reject a density matrix that is not a finite 2x2 array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from numbers import Integral, Real

import numpy as np

from .linalg import (
    ATOL,
    _complex_array,
    _may_overflow,
    _nonfinite_error,
    _overflow_guard,
    dagger,
)

# Amplitudes below this are treated as an exact zero when fixing the gauge.
GAUGE_ATOL = 1e-12

TWO_PI = 2.0 * np.pi


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a shared array read-only, so an in-place write raises ValueError."""
    a.flags.writeable = False
    return a


PAULI_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))

MAXIMALLY_MIXED = _read_only(np.eye(2, dtype=complex) / 2.0)


@dataclass(frozen=True)
class PureQubit:
    """Pure qubit state alpha|0> + beta e^{i phi}|1> in canonical gauge.

    alpha and beta are nonnegative; phi is reduced into [0, 2*pi) and
    forced to 0 whenever either amplitude vanishes (the phase is
    undefined at the poles). ValueError unless each field is a finite real
    number, not a bool or a string, and the amplitudes are normalized.
    """

    alpha: float
    beta: float
    phi: float = 0.0

    def __post_init__(self):
        a, b, p = (_check_real(self.alpha, "alpha"), _check_real(self.beta, "beta"),
                   _check_real(self.phi, "phi"))
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(p)):
            raise ValueError("state parameters must be finite")
        if a < 0.0 or b < 0.0:
            raise ValueError("amplitudes must be nonnegative")
        if abs(a * a + b * b - 1.0) > 1e-12:
            raise ValueError("state is not normalized: alpha^2 + beta^2 != 1")
        # a tiny negative phase reduces to 2*pi - tiny, which rounds to 2*pi
        p = p % TWO_PI
        if a == 0.0 or b == 0.0 or p == TWO_PI:
            p = 0.0
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "phi", p)

    @property
    def alpha2(self) -> float:
        return self.alpha * self.alpha

    @property
    def vector(self) -> np.ndarray:
        """Complex amplitude 2-vector (alpha, beta e^{i phi})."""
        return np.array([self.alpha, self.beta * np.exp(1j * self.phi)], dtype=complex)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "PureQubit":
        """Canonicalize a complex 2-vector into the fixed gauge.

        The vector is renormalized and multiplied by the phase that makes
        its first nonzero amplitude real and nonnegative. Raises ValueError
        for another shape than (2,), a zero vector, a non-finite entry or an overflowing norm.
        """
        v = _complex_array(v, "v", (2,))
        # the operations of np.linalg.norm and np.angle, without their wrappers
        re, im = v.real, v.imag
        a, b = abs(v[0]), abs(v[1])
        with _overflow_guard(a, b):
            n = math.sqrt(re.dot(re) + im.dot(im))
        if not math.isfinite(n):
            raise _nonfinite_error(v, "v")
        if n <= GAUGE_ATOL:
            raise ValueError("cannot canonicalize a zero vector")
        a /= n
        b /= n
        if a <= GAUGE_ATOL:
            return cls(0.0, 1.0, 0.0)
        if b <= GAUGE_ATOL:
            return cls(1.0, 0.0, 0.0)
        phi = float(np.arctan2(im[1], re[1]) - np.arctan2(im[0], re[0]))
        return cls(a, b, phi)


def make_pure(alpha2: float, phi: float) -> PureQubit:
    """Build the state with population alpha2 on |0> and relative phase phi.

    Raises ValueError unless alpha2 is a real number in [0, 1] and phi a
    finite real number.
    """
    alpha2 = _check_probability(alpha2, "alpha2")
    return PureQubit(np.sqrt(alpha2), np.sqrt(1.0 - alpha2), phi)


def _real_array(x, name: str) -> np.ndarray:
    """x as a float array, by ``_check_real``'s rule entry by entry: an int
    beyond the double range becomes +-inf. ValueError naming ``name`` for
    bool, string, complex and other arrays whose entries are not real
    numbers, and for a list, tuple or object array holding anything else,
    such as None or a bool beside floats. A list or tuple is read entry by
    entry, since numpy would read [True, 0.5] as floats."""
    a = np.asarray(x, dtype=object if isinstance(x, (list, tuple)) else None)
    if a.dtype == np.float64:    # the common case, and the fastest test
        return a
    if a.dtype.kind == "O":
        return np.array([_check_real(v, name) for v in a.flat], dtype=float).reshape(a.shape)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got an array of {a.dtype}")
    with np.errstate(over="ignore"):    # a long double beyond the double range
        return a.astype(float)


def _check_plane(alpha2, phi) -> tuple[np.ndarray, np.ndarray]:
    """Validate state-plane coordinates; returns them as float arrays.

    Both are real arrays by ``_real_array``'s rule. Every alpha2 must lie
    in [0, 1] and every phi must be finite; NaN fails both tests. Raises
    ValueError naming the argument otherwise, alpha2 first. phi comes back
    reduced by ``PureQubit``'s rule: into [0, 2*pi), with a result of 2*pi
    made 0.
    """
    return _check_alpha2(alpha2), _check_phi(phi)


def _check_alpha2(alpha2) -> np.ndarray:
    """The alpha2 half of ``_check_plane``."""
    alpha2 = _real_array(alpha2, "alpha2")
    if not np.all((alpha2 >= 0.0) & (alpha2 <= 1.0)):
        raise ValueError("alpha2 must lie in [0, 1]")
    return alpha2


def _check_phi(phi) -> np.ndarray:
    """The phi half of ``_check_plane``."""
    phi = _real_array(phi, "phi")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    phi = np.remainder(phi, TWO_PI)
    return np.where(phi == TWO_PI, 0.0, phi)


def state_vector(alpha2, phi) -> np.ndarray:
    """Amplitude vectors for (alpha2, phi); broadcasts over array input.

    Returns an array of shape broadcast(alpha2, phi) + (2,). The gauge is
    ``PureQubit``'s for every finite phi: the phase is reduced into
    [0, 2*pi), and it is 0 where alpha2 is 0 or 1.
    """
    a, ph = np.broadcast_arrays(*_check_plane(alpha2, phi))
    ph = np.where((a == 0.0) | (a == 1.0), 0.0, ph)
    return np.stack([np.sqrt(a) + 0j, np.sqrt(1.0 - a) * np.exp(1j * ph)], axis=-1)


# Pauli basis (I, X, Y, Z): |v><v| = sum_k r_k sigma_k / 2 with r = (1, x, y, z).
_PAULI_BASIS = _read_only(np.stack([np.eye(2), PAULI_X, [[0, -1j], [1j, 0]], PAULI_Z]))


def _form_numerators(a_ops, b_ops, scale2: int) -> list[list[int]]:
    """Symmetric integers N, sum_n Re(conj(<v|A_n|v>) <v|B_n|v>) = r^T N r / (8 scale2).

    A_n and B_n stack equally many (..., 2, 2) operators, and r = (1, x, y, z)
    is the Bloch vector of the unit vector v. ValueError unless every
    tr(M sigma_k) sqrt(scale2) is a Gaussian integer to within 1e-9. The
    sums are Python integers, so no product overflows.
    """
    _check_count(scale2, "scale2", 1)
    # an int beyond the double range is inf, which math.sqrt cannot take
    root = math.sqrt(_check_finite(scale2, "scale2"))
    rows = []
    for ops in (a_ops, b_ops):
        m = _complex_array(ops, "ops", (..., 2, 2)).reshape(-1, 2, 2)
        # a coefficient that overflows is not finite, and fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.einsum("nij,kji->nk", m, _PAULI_BASIS) * root
        g = np.round(c)
        # finite first: inf - round(inf) would warn
        if not (np.isfinite(c).all() and np.all(np.abs(c - g) <= 1e-9)):
            raise ValueError("Pauli coefficients of ops times sqrt(scale2) are not Gaussian integers")
        # row k: the real, then the imaginary parts of c_nk over n, so the
        # sum over n of Re(conj(a_k) b_l) is a dot product of two rows
        rows.append([[int(x) for x in row] for row in np.concatenate([g.real, g.imag]).T])
    d = [[sum(x * y for x, y in zip(a, b, strict=True)) for b in rows[1]] for a in rows[0]]
    return [[d[k][j] + d[j][k] for j in range(4)] for k in range(4)]


def _float_form(a_ops, b_ops, scale2: int) -> np.ndarray:
    """``_form_numerators`` over 8 * scale2; int / int is correctly rounded."""
    num = _form_numerators(a_ops, b_ops, scale2)
    return np.array([[n / (8 * int(scale2)) for n in row] for row in num])


def _form_values(form: np.ndarray, alpha2, phi) -> np.ndarray:
    """r^T G r for a symmetric 4x4 G, taken as floats, at the Bloch vectors
    r = (1, x, y, z) of the states (alpha2, phi), checked and broadcast as
    in ``state_vector``."""
    alpha2 = _check_alpha2(alpha2)
    return _form_rows(form, phi)(alpha2)


def _form_rows(form: np.ndarray, phi):
    """``_form_values`` split at phi: checks phi and computes its terms once,
    and returns ``rows(alpha2)``, the values at alpha2, an array already
    checked by ``_check_alpha2``, broadcast against phi. A sweep calls it
    once per run and ``rows`` once per block of alpha2 rows."""
    phi = _check_phi(phi)
    g = np.asarray(form, dtype=float)
    # s^2 = x^2 + y^2: each term is a function of alpha2 times one of phi
    c, sn = np.cos(phi), np.sin(phi)
    ring = g[1, 1] * c * c + 2.0 * g[1, 2] * c * sn + g[2, 2] * sn * sn
    plane = g[0, 1] * c + g[0, 2] * sn
    tilt = g[1, 3] * c + g[2, 3] * sn

    def rows(alpha2: np.ndarray) -> np.ndarray:
        z, s2 = 2.0 * alpha2 - 1.0, 4.0 * alpha2 * (1.0 - alpha2)
        return (g[0, 0] + z * (2.0 * g[0, 3] + g[3, 3] * z) + s2 * ring
                + 2.0 * np.sqrt(s2) * (plane + z * tilt))
    return rows


def _check_rho(rho) -> np.ndarray:
    """rho as a complex array; ValueError unless it is a finite 2x2 array."""
    rho = _complex_array(rho, "rho", (2, 2))
    if not np.isfinite(rho).all():
        raise ValueError("rho must be a finite 2x2 array")
    return rho


def _overlaps(v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<v|rho|v> over a stack of 2-vectors (..., 2) and one of 2x2 arrays
    (..., 2, 2), as reals; ``fidelity`` is its one-element case. Raises
    ValueError where one is not finite: only an entry above 1e150 can
    overflow it."""
    with _overflow_guard(np.abs(rho).max(initial=0.0)):
        f = (v.conj()[..., None, :] @ (rho @ v[..., None]))[..., 0, 0].real
    if not np.isfinite(f).all():
        raise ValueError("fidelity overflows")
    return f


def fidelity(psi: PureQubit, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> between a pure state and a density matrix.

    Raises ValueError unless psi is a ``PureQubit`` and rho a finite 2x2
    array, or when the overlap is not finite: only an entry above 1e150
    can overflow it.
    """
    return float(_overlaps(_check_state(psi).vector, _check_rho(rho)))


def reduce_qubit(state: np.ndarray, keep: int) -> np.ndarray:
    """Partial trace of a three-qubit pure state down to one qubit.

    The state is an 8-vector indexed big-endian, index = 4 q1 + 2 q2 + q3,
    or a (..., 8) stack of them, reduced state by state to (..., 2, 2).
    ``keep``, an integer 1, 2, or 3, selects the surviving qubit. Raises
    ValueError for another last axis than 8, or for an entry that is not
    finite or exceeds 1e150.
    """
    _check_count(keep, "keep", 1)
    if keep > 3:
        raise ValueError(f"keep must be 1, 2, or 3, got {keep}")
    state = _complex_array(state, "state", (..., 8))
    if _may_overflow(np.abs(state).max(initial=0.0)):
        raise ValueError("state entries must be finite and at most 1e150")
    # rows: the kept qubit; columns: the other two, in order
    t = np.moveaxis(state.reshape(state.shape[:-1] + (2, 2, 2)), keep - 4, -3)
    m = t.reshape(t.shape[:-2] + (4,))
    return m @ dagger(m)


class ErrorType(IntEnum):
    """Channel error drawn during transmission, a Pauli on the signal."""

    NO_ERROR = 0
    BIT_FLIP = 1
    PHASE_FLIP = 2
    BIT_PHASE_FLIP = 3

    @property
    def operator(self) -> np.ndarray:
        return _ERROR_OPERATORS[self]


_ERROR_OPERATORS = _read_only(np.stack([np.eye(2), PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z]))


def error_probabilities(p_bit: float, p_ph: float) -> np.ndarray:
    """Probabilities of the four ErrorType values; sums to 1. Raises
    ValueError unless p_bit and p_ph are real numbers in [0, 1]."""
    p_bit = _check_probability(p_bit, "p_bit")
    p_ph = _check_probability(p_ph, "p_ph")
    return np.array([
        (1.0 - p_bit) * (1.0 - p_ph),
        p_bit * (1.0 - p_ph),
        p_ph * (1.0 - p_bit),
        p_bit * p_ph,
    ])


def _check_real(x, name: str) -> float:
    """x as a Python float, +-inf beyond the double range; ValueError for a
    bool or anything else that is not a ``numbers.Real``, such as an array."""
    if isinstance(x, float):    # numpy's float64 too; the common case, and the fastest test
        return float(x)
    if isinstance(x, bool) or not isinstance(x, Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:    # an int or Fraction beyond the largest double
        return math.inf if x > 0 else -math.inf


def _check_probability(p, name: str) -> float:
    """p as a Python float; ValueError unless it is a real number in [0, 1]."""
    value = _check_real(p, name)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return value


def _check_finite(x, name: str) -> float:
    """x as a Python float; ValueError unless it is a finite real number."""
    value = _check_real(x, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {x!r}")
    return value


def _check_positive(x, name: str) -> float:
    """x as a Python float; ValueError unless it is a finite positive real number."""
    value = _check_real(x, name)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive real number, got {x!r}")
    return value


def _check_count(n: int, name: str, minimum: int) -> None:
    """Raise ValueError unless n is an integer, not a bool, and n >= minimum."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {n}")


def _check_state(psi, name: str = "psi") -> PureQubit:
    """psi itself; ValueError naming ``name`` unless it is a ``PureQubit``."""
    if not isinstance(psi, PureQubit):
        raise ValueError(f"{name} must be a PureQubit, got {psi!r}")
    return psi


def _check_member(x, kind: type[IntEnum], name: str):
    """x as a member of the IntEnum ``kind``, whose values are 0, 1, ...;
    ValueError naming ``name`` unless x is a member or such a value, an
    integer but not a bool."""
    if isinstance(x, kind):
        return x
    if isinstance(x, bool) or not isinstance(x, Integral) or not 0 <= x < len(kind):
        raise ValueError(f"{name} must be a {kind.__name__} or an integer 0 to "
                         f"{len(kind) - 1}, got {x!r}")
    return kind(int(x))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel given by operation elements E_i.

    ``effects`` caches the POVM effects E_i^dag E_i used for outcome
    probabilities. Completeness (sum of effects = identity) is checked
    on construction; the elements are copied and both arrays are
    read-only, so the check stays true. Channels compare and hash by
    identity, as their fields are arrays.
    """

    elements: np.ndarray

    def __post_init__(self):
        elements = np.array(_complex_array(self.elements, "elements", ("k", 2, 2)))
        # NaN fails every comparison, so completeness alone would let it through
        if not np.isfinite(elements).all():
            raise ValueError("elements must be finite")
        effects = np.einsum("aji,ajk->aik", elements.conj(), elements)
        # an overflowing product can leave a NaN, which fails this test too
        if not np.max(np.abs(effects.sum(axis=0) - np.eye(2))) <= ATOL:
            raise ValueError("operation elements violate completeness")
        object.__setattr__(self, "elements", _read_only(elements))
        object.__setattr__(self, "effects", _read_only(effects))

    def __len__(self) -> int:
        return self.elements.shape[0]


def error_channel(p_bit: float, p_ph: float) -> KrausChannel:
    """Bit/phase-flip channel with independent flip probabilities.

    Elements are sqrt(P) times I, sigma_x, sigma_z, and sigma_x sigma_z
    for the four ErrorType branches.
    """
    probs = error_probabilities(p_bit, p_ph)
    elements = np.sqrt(probs)[:, None, None] * _ERROR_OPERATORS
    return KrausChannel(elements)


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_i E_i rho E_i^dag.

    Raises ValueError unless ch is a ``KrausChannel`` and rho a finite 2x2
    array.
    """
    if not isinstance(ch, KrausChannel):
        raise ValueError(f"ch must be a KrausChannel, got {ch!r}")
    return np.einsum("aij,jk,alk->il", ch.elements, _check_rho(rho), ch.elements.conj())
