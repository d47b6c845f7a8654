"""End-to-end state restoration through a bit/phase-flip channel.

Sender side: clone, measure, reverse. Channel: one Pauli error drawn
from the bit/phase-flip distribution. Receiver side: clone, measure,
reverse, then a Pauli correction chosen by comparing the two outcome
records componentwise. The input-output fidelity is evaluated three
ways: full 64-branch enumeration, the closed-form surface, and a
maximally-mixed-input variant that bypasses the quantum channel; all
three coincide, which is exactly the protocol's error-rate independence.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

import numpy as np

from .cloning import Outcome, _reversed_vector, estimation_elements, outcome_probability
from .core import (
    _ERROR_OPERATORS,
    MAXIMALLY_MIXED,
    ErrorType,
    PureQubit,
    _check_count,
    _check_plane,
    _float_form,
    _form_numerators,
    _form_values,
    _read_only,
    error_probabilities,
)
from .linalg import dagger


def correction_unitary(alice: Outcome, bob: Outcome) -> np.ndarray:
    """Receiver's Pauli correction from comparing the two outcomes.

    Disagreement in the third-qubit bit contributes sigma_x, in the
    second-qubit sign sigma_z, both together their product, agreement
    the identity. Every protocol route looks this function up as a
    module global, so it alone decides the correction.
    """
    bit_differs = alice.bit != bob.bit
    sign_differs = alice.sign != bob.sign
    return _ERROR_OPERATORS[ErrorType(int(bit_differs) + 2 * int(sign_differs))]


def _receiver_half(w: np.ndarray, bob: Outcome, correction: np.ndarray,
                   reversal_adjoint: np.ndarray) -> tuple[float, PureQubit]:
    """Bob's half of a branch, given the vector w = P_e @ sent he receives.

    ``reversal_adjoint`` is dagger(U_bob) and ``correction`` the
    comparison correction of the branch. Returns (P(bob | alice, error),
    corrected state).
    """
    est = estimation_elements()
    prob = float(np.real(np.vdot(w, est.effects[bob] @ w)))
    final = correction @ (reversal_adjoint @ (est.elements[bob] @ w))
    return prob, PureQubit.from_vector(final)


def branch_statistics(psi: PureQubit, alice: Outcome, error: ErrorType,
                      bob: Outcome) -> tuple[float, PureQubit]:
    """One protocol branch: Bob's outcome probability and the final state.

    Conditions on Alice's outcome and the channel error: the sender
    state is measured, reversed, hit by the error, then measured and
    reversed on the receiver side with the comparison correction
    applied last. Returns (P(bob | alice, error), corrected state).
    """
    w = error.operator @ _reversed_vector(psi, alice)
    return _receiver_half(w, bob, correction_unitary(alice, bob),
                          dagger(estimation_elements().reversal_unitaries[bob]))


def exact_fidelity(psi: PureQubit, p_bit: float = 0.0, p_ph: float = 0.0) -> float:
    """Input-output fidelity by full enumeration of all 64 branches.

    Weights each (alice outcome, error, bob outcome) branch by its joint
    probability and accumulates the overlap with the input state. Each
    branch is ``branch_statistics``, with Alice's half computed once per
    outcome. The result does not depend on the error rates.
    """
    v = psi.vector
    perr = error_probabilities(p_bit, p_ph)
    adjoints = [dagger(u) for u in estimation_elements().reversal_unitaries]
    total = 0.0
    for alice in Outcome:
        p_a = outcome_probability(psi, alice)
        sent = _reversed_vector(psi, alice)
        corrections = [correction_unitary(alice, bob) for bob in Outcome]
        for error in ErrorType:
            if perr[error] == 0.0:
                continue
            w = error.operator @ sent
            for bob in Outcome:
                p_b, final = _receiver_half(w, bob, corrections[bob], adjoints[bob])
                overlap = abs(np.vdot(v, final.vector)) ** 2
                total += p_a * perr[error] * p_b * overlap
    return total


def _receiver_operator(alice: Outcome, bob: Outcome) -> np.ndarray:
    """N = C U_b^dag E_b: the receiver's measurement, reversal and correction."""
    est = estimation_elements()
    return correction_unitary(alice, bob) @ dagger(est.reversal_unitaries[bob]) @ est.elements[bob]


@lru_cache(maxsize=1)
def _branch_bank() -> np.ndarray:
    """Stacked branch operators M[a, e, b] = C U_b^dag E_b P_e S_a.

    S_a is the Hermitian factor left after the sender's reversal, P_e
    the channel Pauli, and C the comparison correction. For any unit
    vector v, |<v|M v>|^2 is the joint branch weight (given error e)
    times the branch overlap: the sampler and ``_form_bank`` read it.
    """
    sqrt_effects = estimation_elements().sqrt_effects
    bank = np.empty((4, 4, 4, 2, 2), dtype=complex)
    for alice in Outcome:
        for error in ErrorType:
            for bob in Outcome:
                bank[alice, error, bob] = (
                    _receiver_operator(alice, bob) @ error.operator @ sqrt_effects[alice])
    return _read_only(bank)


@lru_cache(maxsize=1)
def _form_bank() -> np.ndarray:
    """Float Bloch forms G[e] of ``_branch_bank()[:, e]`` per channel error,
    then G[4] of the mixed input, sum_ab <v|E_a|v> <v|N N^dag|v> / 2 with
    N = ``_receiver_operator(a, b)``. ValueError for a correction rule off
    the Pauli lattice, which has no exact form."""
    bank = _branch_bank()
    forms = [_float_form(bank[:, e], bank[:, e], 120 ** 2) for e in ErrorType]
    receivers = [_receiver_operator(a, b) for a in Outcome for b in Outcome]
    forms.append(_float_form(np.repeat(estimation_elements().effects, 4, axis=0),
                             [n @ dagger(n) / 2 for n in receivers], 24 ** 2))
    return _read_only(np.stack(forms))


def exact_fidelity_plane(alpha2, phi, p_bit: float = 0.0, p_ph: float = 0.0) -> np.ndarray:
    """Vectorized ``exact_fidelity`` over broadcast (alpha2, phi) arrays:
    the p_e-weighted sum of the per-error forms of ``_form_bank``."""
    form = np.tensordot(error_probabilities(p_bit, p_ph), _form_bank()[:4], axes=1)
    return _form_values(form, alpha2, phi)


def analytic_fidelity(alpha2, phi) -> np.ndarray | float:
    """Closed-form protocol fidelity surface; broadcasts over arrays."""
    alpha2, phi = _check_plane(alpha2, phi)
    beta2 = 1.0 - alpha2
    out = (5.0 - 2.0 * alpha2 + 2.0 * alpha2 ** 2) / 9.0 \
        + (8.0 / 9.0) * alpha2 * beta2 * np.cos(phi) ** 2
    return float(out) if out.ndim == 0 else out


def mixed_input_fidelity(psi: PureQubit) -> float:
    """Fidelity when the receiver gets the maximally mixed state instead.

    The sender branch only fixes the outcome record used for the
    comparison; the receiver runs the same measurement, reversal, and
    correction on I/2. Equals ``exact_fidelity`` for every input.
    """
    v = psi.vector
    total = 0.0
    for alice in Outcome:
        p_a = outcome_probability(psi, alice)
        for bob in Outcome:
            op = _receiver_operator(alice, bob)
            rho = op @ MAXIMALLY_MIXED @ dagger(op)
            total += p_a * float(np.real(np.vdot(v, rho @ v)))
    return total


def mixed_input_fidelity_plane(alpha2, phi) -> np.ndarray:
    """Vectorized ``mixed_input_fidelity`` over broadcast arrays: the
    mixed form of ``_form_bank``."""
    return _form_values(_form_bank()[4], alpha2, phi)


def baseline_fidelity_plane(alpha2, phi) -> np.ndarray | float:
    """Measure-and-prepare baseline over broadcast (alpha2, phi) arrays.

    The sender measures in the computational basis and the receiver
    prepares the observed basis state: alpha^4 + beta^4, whatever phi.
    """
    alpha2, _ = np.broadcast_arrays(*_check_plane(alpha2, phi))
    out = alpha2 ** 2 + (1.0 - alpha2) ** 2
    return float(out) if out.ndim == 0 else out


def alpha2_grid(n_alpha: int) -> np.ndarray:
    """Uniform grid on [0, 1] including both endpoints."""
    _check_count(n_alpha, "n_alpha", 2)
    return np.linspace(0.0, 1.0, n_alpha)


def phi_grid(n_phi: int) -> np.ndarray:
    """Uniform grid on [0, 2*pi) excluding the right endpoint."""
    _check_count(n_phi, "n_phi", 1)
    return 2.0 * np.pi * np.arange(n_phi) / n_phi


def grid_average(values: np.ndarray) -> float:
    """Average an (alpha2, phi) grid: trapezoid weights over rows, uniform over columns.

    Raises ValueError unless values is 2-D with at least 2 alpha2 rows
    and 1 phi column.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 1:
        raise ValueError("values must be a 2-D grid of at least 2 alpha2 rows and 1 phi column")
    w = np.ones(len(values))
    w[0] = w[-1] = 0.5
    return float(w @ values.mean(axis=1) / (len(values) - 1))


def bloch_form(ops, scale2: int) -> np.ndarray:
    """Exact quadratic form of sum_n |<v|M_n|v>|^2 in the Bloch vector.

    ``ops`` stacks operators M_n with shape (..., 2, 2). Returns the
    symmetric 4x4 object array G of ``Fraction`` entries with
    sum_n |<v|M_n|v>|^2 = r^T G r for every unit vector v, where
    r = (1, x, y, z) is its Bloch vector. Each Pauli coefficient
    c_nk = tr(M_n sigma_k) times sqrt(scale2) must be a Gaussian integer
    to within 1e-9, else ValueError; G is then built in integers, as
    G_kl = sum_n Re(conj(c_nk) c_nl) / 4.
    """
    # imported here: fractions loads the decimal module, which no other
    # command of the CLI needs
    from fractions import Fraction

    num = _form_numerators(ops, ops, scale2)
    return np.array([[Fraction(n, 8 * int(scale2)) for n in row] for row in num], dtype=object)


def z_score(mean: float, stderr: float, exact: float) -> float:
    """z-score of a Monte Carlo mean against ``exact``; with a zero
    standard error, 0 if the mean equals ``exact`` to 1e-12, else inf."""
    if stderr > 0.0:
        return (mean - exact) / stderr
    return 0.0 if abs(mean - exact) <= 1e-12 else float("inf")


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


def sample_branches(vectors, p_bit: float, p_ph: float, trials: int,
                    rngs: Iterable[np.random.Generator]
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one Monte Carlo sampler: ``trials`` protocol runs per input state.

    ``vectors`` holds N unit amplitude vectors, shape (N, 2); ``rngs``
    yields exactly one generator per vector and may be lazy. Yields,
    vector by vector, its 64 branch overlaps and ``trials`` branch
    indices. A run is one branch: Alice's outcome, then the channel
    error, then Bob's outcome, drawn from the exact conditional
    distributions with three ``rng.random(trials)`` calls per state. The
    index is 16 alice + 4 error + bob, the C-order flat index into the
    (alice, error, bob) axes of ``_branch_bank()``, so
    ``np.unravel_index(branches, (4, 4, 4))`` decodes it; the run's
    overlap is ``overlaps[branch]``. The branch tables of all N vectors
    come from one contraction. The arguments are checked at the first
    ``next``.
    """
    _check_count(trials, "trials", 1)
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("vectors must have shape (N, 2)")
    m = np.abs(v)
    # a unit vector's entries are at most 1: tested first, no square overflows
    if not (np.all(m <= 1.0 + 1e-12) and np.all(np.abs(np.sum(m ** 2, axis=-1) - 1.0) <= 1e-12)):
        raise ValueError("vectors must be normalized")
    amps = np.einsum("aebij,nj->naebi", _branch_bank(), v)
    # joint weight (given error) and overlap per branch
    norms2 = np.sum(np.abs(amps) ** 2, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        overlaps = np.abs(np.einsum("ni,naebi->naeb", v.conj(), amps)) ** 2 / norms2
    overlaps = np.nan_to_num(overlaps).reshape(len(v), 64)

    p_alice = norms2[:, :, 0, :].sum(axis=-1)       # error slot 0 is the identity
    total_alice = p_alice.sum(axis=-1)
    cum_alice = np.cumsum(p_alice, axis=-1)
    cum_err = np.cumsum(error_probabilities(p_bit, p_ph))
    # cum_bob[n, :, 4a + e] is the cumulative P(bob | alice, error) row
    cond_bob = norms2 / p_alice[:, :, None, None]
    cum_bob = np.cumsum(cond_bob, axis=-1).reshape(len(v), 16, 4).transpose(0, 2, 1).copy()

    for n, rng in zip(range(len(v)), rngs, strict=True):
        a_draw = _count_at_most(cum_alice[n], rng.random(trials) * total_alice[n])
        row = 4 * a_draw + _count_at_most(cum_err, rng.random(trials))
        bob_rows = cum_bob[n].take(row, axis=1)
        branches = _count_at_most(bob_rows, rng.random(trials) * bob_rows[3])
        branches += 4 * row     # in place: no extra index array while the caller reduces
        yield overlaps[n], branches


def mc_estimates(vectors, p_bit: float, p_ph: float, trials: int,
                 rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo means and standard errors for a stack of input states.

    Each point averages the overlaps of its ``trials`` runs drawn by
    ``sample_branches``, which takes the same arguments. Deterministic
    for fixed generator states.
    """
    means, stderrs = [], []
    for overlaps, branches in sample_branches(vectors, p_bit, p_ph, trials, rngs):
        sample = overlaps.take(branches)
        means.append(sample.mean())
        stderrs.append(sample.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0)
    return np.array(means), np.array(stderrs)


# perfbench/probe.py calls these two one-state forms by name to time the
# sampler's first call; they are not exported, and no command calls them.
def mc_estimate(psi: PureQubit, p_bit: float, p_ph: float, trials: int,
                rng: np.random.Generator) -> tuple[float, float]:
    """The mean and standard error of ``mc_estimates`` at psi alone."""
    means, stderrs = mc_estimates(psi.vector[None], p_bit, p_ph, trials, (rng,))
    return float(means[0]), float(stderrs[0])


def run_trajectory(psi: PureQubit, p_bit: float, p_ph: float,
                   rng: np.random.Generator) -> int:
    """One protocol run at psi: the branch index ``sample_branches`` draws."""
    _, branches = next(sample_branches(psi.vector[None], p_bit, p_ph, 1, (rng,)))
    return int(branches[0])
