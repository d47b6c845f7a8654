"""Single-qubit states, density matrices, and Kraus channels.

Pure states live in a fixed gauge: real amplitudes alpha, beta >= 0 with
alpha^2 + beta^2 = 1 and a relative phase phi in [0, 2*pi). Density
matrices and channel elements are plain complex ndarrays with validation
helpers that enforce the invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from numbers import Integral

import numpy as np

from .linalg import ATOL, _nonfinite_error, is_hermitian, is_psd

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
    undefined at the poles).
    """

    alpha: float
    beta: float
    phi: float = 0.0

    def __post_init__(self):
        a, b, p = float(self.alpha), float(self.beta), float(self.phi)
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

    def density(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        v = self.vector
        return np.outer(v, v.conj())

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "PureQubit":
        """Canonicalize a complex 2-vector into the fixed gauge.

        The vector is renormalized and multiplied by the phase that makes
        its first nonzero amplitude real and nonnegative. Raises ValueError
        for a zero vector, a non-finite entry or a norm that overflows.
        """
        v = np.asarray(v, dtype=complex).reshape(2)
        # the operations of np.linalg.norm and np.angle, without their wrappers
        re, im = v.real, v.imag
        n = math.sqrt(re.dot(re) + im.dot(im))
        if not math.isfinite(n):
            raise _nonfinite_error(v, "vector")
        if n <= GAUGE_ATOL:
            raise ValueError("cannot canonicalize a zero vector")
        a = abs(v[0]) / n
        b = abs(v[1]) / n
        if a <= GAUGE_ATOL:
            return cls(0.0, 1.0, 0.0)
        if b <= GAUGE_ATOL:
            return cls(1.0, 0.0, 0.0)
        phi = float(np.arctan2(im[1], re[1]) - np.arctan2(im[0], re[0]))
        return cls(a, b, phi)


def make_pure(alpha2: float, phi: float) -> PureQubit:
    """Build the state with population alpha2 on |0> and relative phase phi.

    Raises ValueError when alpha2 lies outside [0, 1].
    """
    if not (0.0 <= alpha2 <= 1.0):
        raise ValueError(f"alpha2 must lie in [0, 1], got {alpha2}")
    return PureQubit(np.sqrt(alpha2), np.sqrt(1.0 - alpha2), phi)


def _check_plane(alpha2, phi) -> tuple[np.ndarray, np.ndarray]:
    """Validate state-plane coordinates; returns them as float arrays.

    Every alpha2 must lie in [0, 1] and every phi must be finite; NaN
    fails both tests. Raises ValueError otherwise.
    """
    alpha2 = np.asarray(alpha2, dtype=float)
    if not np.all((alpha2 >= 0.0) & (alpha2 <= 1.0)):
        raise ValueError("alpha2 must lie in [0, 1]")
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    return alpha2, phi


def state_vector(alpha2, phi) -> np.ndarray:
    """Amplitude vectors for (alpha2, phi); broadcasts over array input.

    Returns an array of shape broadcast(alpha2, phi) + (2,).
    """
    a, ph = np.broadcast_arrays(*_check_plane(alpha2, phi))
    return np.stack([np.sqrt(a) + 0j, np.sqrt(1.0 - a) * np.exp(1j * ph)], axis=-1)


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a 2x2 density matrix to ATOL, PSD to 1e-10; returns it as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL or abs(np.trace(rho).imag) > ATOL:
        raise ValueError("density matrix does not have unit trace")
    if not is_psd(rho, 1e-10):
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def fidelity(psi: PureQubit, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> between a pure state and a density matrix."""
    v = psi.vector
    return float(np.real(np.vdot(v, np.asarray(rho, dtype=complex) @ v)))


def reduce_qubit(state: np.ndarray, keep: int) -> np.ndarray:
    """Partial trace of a three-qubit pure state down to one qubit.

    The state is an 8-vector indexed big-endian, index = 4 q1 + 2 q2 + q3.
    ``keep`` selects the surviving qubit (1, 2, or 3).
    """
    if keep not in (1, 2, 3):
        raise ValueError(f"keep must be 1, 2, or 3, got {keep}")
    state = np.asarray(state, dtype=complex).reshape(8)
    t = state.reshape(2, 2, 2)
    others = [ax for ax in range(3) if ax != keep - 1]
    return np.tensordot(t, t.conj(), axes=(others, others))


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
    """Probabilities of the four ErrorType values; sums to 1."""
    _check_probability(p_bit, "p_bit")
    _check_probability(p_ph, "p_ph")
    return np.array([
        (1.0 - p_bit) * (1.0 - p_ph),
        p_bit * (1.0 - p_ph),
        p_ph * (1.0 - p_bit),
        p_bit * p_ph,
    ])


def _check_probability(p: float, name: str) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def _check_count(n: int, name: str, minimum: int) -> None:
    """Raise ValueError unless n is an integer, not a bool, and n >= minimum."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {n}")


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving channel given by operation elements E_i.

    ``effects`` caches the POVM effects E_i^dag E_i used for outcome
    probabilities. Completeness (sum of effects = identity) is checked
    on construction; the elements are copied and both arrays are
    read-only, so the check stays true.
    """

    elements: np.ndarray

    def __post_init__(self):
        elements = np.array(self.elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1:] != (2, 2):
            raise ValueError("elements must have shape (k, 2, 2)")
        # NaN fails every comparison, so completeness alone would let it through
        if not np.isfinite(elements).all():
            raise ValueError("elements must be finite")
        effects = np.einsum("aji,ajk->aik", elements.conj(), elements)
        if np.max(np.abs(effects.sum(axis=0) - np.eye(2))) > ATOL:
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
    """Channel action sum_i E_i rho E_i^dag."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("aij,jk,alk->il", ch.elements, rho, ch.elements.conj())


def _count_at_most(cum, x):
    """How many of cum[0], ..., cum[k-2] are <= x: the inverse-CDF draw.

    ``cum`` holds the cumulative probabilities of k outcomes on its first
    axis; its other axes broadcast against x, whose shape the result has.
    Since they never decrease, this is the first outcome whose cumulative
    probability exceeds x, clamped to k - 1.
    """
    # one comparison at a time: no (k - 1, size) temporary
    count = np.zeros(np.shape(x), dtype=np.intp)
    for c in cum[:-1]:
        count += c <= x
    return count


def sample_elements(ch: KrausChannel, psi: PureQubit, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """Sample ``size`` independent operation-element indices for one state.

    Element i is drawn with probability <psi|E_i^dag E_i|psi>, one
    ``rng.random()`` double per draw. Raises ValueError unless ``size`` is
    an integer >= 0. Deterministic for a fixed generator state.
    """
    _check_count(size, "size", 0)
    v = psi.vector
    probs = np.einsum("i,aij,j->a", v.conj(), ch.effects, v).real
    np.clip(probs, 0.0, None, out=probs)
    total = probs.sum()
    if total <= 0.0:
        raise RuntimeError("all operation elements have zero probability")
    return _count_at_most(np.cumsum(probs), rng.random(size) * total)
