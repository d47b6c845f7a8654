"""Universal 1->2 cloning and the two-qubit estimation measurement.

The cloner is the linear input-output map on the signal qubit plus two
ancillas. Measuring the second qubit in the |+>/|-> basis and the third
in the computational basis realizes a four-outcome generalized
measurement on the signal; its operation elements, their reversal
unitaries, and the reversed fidelity surface live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

from .core import (
    KrausChannel,
    PureQubit,
    _check_member,
    _check_state,
    _float_form,
    _form_values,
    _read_only,
    make_pure,
)
from .linalg import ATOL, _complex_array, dagger, is_psd, is_unitary, nearest_unitary

_C_MAJOR = np.sqrt(2.0 / 3.0)   # weight of the copied component
_C_MINOR = np.sqrt(1.0 / 6.0)   # weight of the cross terms


class Outcome(IntEnum):
    """Joint result of the two estimation measurements.

    The index encodes (second-qubit sign, third-qubit bit) as
    0:+0, 1:+1, 2:-0, 3:-1.
    """

    PLUS_0 = 0
    PLUS_1 = 1
    MINUS_0 = 2
    MINUS_1 = 3

    @property
    def sign(self) -> str:
        return "+" if self < 2 else "-"

    @property
    def bit(self) -> int:
        return int(self) % 2

    @property
    def label(self) -> str:
        return f"{self.sign}{self.bit}"


def uqcm_output(psi: PureQubit) -> np.ndarray:
    """Three-qubit state produced by cloning the signal qubit.

    Basis order is big-endian |q1 q2 q3> with the signal first. Each of
    the two clones (qubits 1 and 2) has fidelity 5/6 with the input.
    ValueError unless psi is a ``PureQubit``.
    """
    return _clone_vectors(_check_state(psi).vector)


def _clone_vectors(v: np.ndarray) -> np.ndarray:
    """``uqcm_output`` of each amplitude vector of a (..., 2) stack, as (..., 8)."""
    a, b = v[..., 0], v[..., 1]
    out = np.zeros(v.shape[:-1] + (8,), dtype=complex)
    out[..., 0] = _C_MAJOR * a   # |000>
    out[..., 7] = _C_MAJOR * b   # |111>
    out[..., 3] = _C_MINOR * a   # |011>
    out[..., 5] = _C_MINOR * a   # |101>
    out[..., 2] = _C_MINOR * b   # |010>
    out[..., 4] = _C_MINOR * b   # |100>
    return out


_SIGN_BASIS = {
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}
_BIT_BASIS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
)


def elements_from_cloner() -> np.ndarray:
    """Operation elements built directly from the cloner output.

    Column c of element i is the signal amplitude left after projecting
    qubits 2 and 3 of the cloned basis state |c> onto outcome i. This is
    the constructive route; ``estimation_elements`` carries the closed
    forms and the two are cross-checked against each other.
    """
    basis = (make_pure(1.0, 0.0), make_pure(0.0, 0.0))
    out = np.empty((4, 2, 2), dtype=complex)
    for outcome in Outcome:
        probe = np.outer(_SIGN_BASIS[outcome.sign], _BIT_BASIS[outcome.bit]).conj()
        for col, b in enumerate(basis):
            t = uqcm_output(b).reshape(2, 2, 2)
            out[outcome, :, col] = np.einsum("ijk,jk->i", t, probe)
    return out


# Closed forms of the four operation elements, (1/(2 sqrt 3)) x integer matrices.
_ELEMENTS = np.array(
    [
        [[2, 1], [0, 1]],
        [[1, 0], [1, 2]],
        [[2, -1], [0, 1]],
        [[-1, 0], [1, -2]],
    ],
    dtype=complex,
) / (2.0 * np.sqrt(3.0))


@dataclass(frozen=True, eq=False)
class EstimationChannel(KrausChannel):
    """The estimation measurement with its per-outcome reversal unitaries.

    ``reversal_unitaries`` holds the unitary polar factors of the
    elements; applying their adjoints after the measurement implements
    the approximate reversal, leaving sqrt(E_i^dag E_i) acting on the
    signal. ``sqrt_effects`` caches those Hermitian PSD square roots.
    """

    reversal_unitaries: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        reversals = np.array(_complex_array(self.reversal_unitaries, "reversal_unitaries",
                                            (len(self), 2, 2)))
        sqrt_effects = np.einsum("aji,ajk->aik", reversals.conj(), self.elements)
        for i in range(len(self)):
            if not is_unitary(reversals[i]):
                raise ValueError(f"reversal_unitaries[{i}] is not unitary")
            if not is_psd(sqrt_effects[i]):
                raise ValueError(f"reversal_unitaries[{i}] does not leave a PSD factor")
        object.__setattr__(self, "reversal_unitaries", _read_only(reversals))
        object.__setattr__(self, "sqrt_effects", _read_only(sqrt_effects))


@lru_cache(maxsize=1)
def estimation_elements() -> EstimationChannel:
    """The four-outcome estimation channel and its reversal unitaries.

    The closed-form elements are validated against the constructive
    projective route on every first call; ValueError if they disagree.
    """
    constructed = elements_from_cloner()
    if np.max(np.abs(constructed - _ELEMENTS)) > ATOL:
        raise ValueError("closed-form elements disagree with the projective construction")
    return EstimationChannel(_ELEMENTS, nearest_unitary(_ELEMENTS))


def outcome_probability(psi: PureQubit, outcome: Outcome) -> float:
    """Probability <psi|E_i^dag E_i|psi> of one joint outcome. ValueError
    unless psi is a ``PureQubit`` and outcome an ``Outcome`` or an integer 0
    to 3, as for every function here that takes a state or an outcome."""
    v = _check_state(psi).vector
    eff = estimation_elements().effects[_check_member(outcome, Outcome, "outcome")]
    return float(np.real(np.vdot(v, eff @ v)))


def post_measurement_state(psi: PureQubit, outcome: Outcome) -> PureQubit:
    """Signal state after the estimation measurement, renormalized."""
    w = estimation_elements().elements[_check_member(outcome, Outcome, "outcome")] \
        @ _check_state(psi).vector
    return PureQubit.from_vector(w)


def reverse(state: PureQubit, outcome: Outcome) -> PureQubit:
    """Approximate measurement reversal for the given outcome.

    Applies the adjoint of the outcome's unitary polar factor, so that
    reversal after the measurement leaves sqrt(E_i^dag E_i) acting on
    the original state.
    """
    u = estimation_elements().reversal_unitaries[_check_member(outcome, Outcome, "outcome")]
    return PureQubit.from_vector(dagger(u) @ _check_state(state, "state").vector)


def _reversed_vector(psi: PureQubit, outcome: Outcome) -> np.ndarray:
    """The vector after measuring psi with the given outcome and reversing."""
    return reverse(post_measurement_state(psi, outcome), outcome).vector


def reversed_fidelity(psi: PureQubit) -> float:
    """Outcome-averaged fidelity after measurement plus reversal.

    Sum over outcomes of p_i |<psi|psi_i>|^2 with psi_i the reversed
    post-measurement state. Never below the bare clone fidelity 5/6.
    """
    total = 0.0
    for outcome in Outcome:
        p = outcome_probability(psi, outcome)
        overlap = abs(np.vdot(psi.vector, _reversed_vector(psi, outcome))) ** 2
        total += p * overlap
    return total


def reversed_fidelity_plane(alpha2, phi) -> np.ndarray:
    """Vectorized ``reversed_fidelity`` over broadcast (alpha2, phi) arrays.

    Evaluates the exact Bloch form of the algebraic reduction
    sum_i |<psi|sqrt(E_i^dag E_i)|psi>|^2, an independent route from the
    per-outcome composition above.
    """
    s = estimation_elements().sqrt_effects
    return _form_values(_float_form(s, s, 120), alpha2, phi)
