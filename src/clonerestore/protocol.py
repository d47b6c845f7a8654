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

import math
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
    _check_finite,
    _check_plane,
    _check_positive,
    _check_real,
    _float_form,
    _form_numerators,
    _form_values,
    _read_only,
    _real_array,
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


def analytic_fidelity(alpha2, phi) -> np.ndarray:
    """Closed-form protocol fidelity surface; broadcasts over arrays."""
    alpha2, phi = _check_plane(alpha2, phi)
    beta2 = 1.0 - alpha2
    return (5.0 - 2.0 * alpha2 + 2.0 * alpha2 ** 2) / 9.0 \
        + (8.0 / 9.0) * alpha2 * beta2 * np.cos(phi) ** 2


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


def baseline_fidelity_plane(alpha2, phi) -> np.ndarray:
    """Measure-and-prepare baseline over broadcast (alpha2, phi) arrays.

    The sender measures in the computational basis and the receiver
    prepares the observed basis state: alpha^4 + beta^4, whatever phi.
    """
    alpha2, _ = np.broadcast_arrays(*_check_plane(alpha2, phi))
    return alpha2 ** 2 + (1.0 - alpha2) ** 2


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

    Raises ValueError unless values is a 2-D grid of at least 2 alpha2
    rows and 1 phi column of finite real numbers (``core._real_array``'s rule).
    """
    values = _real_array(values, "values")
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 1:
        raise ValueError("values must be a 2-D grid of at least 2 alpha2 rows and 1 phi column")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
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
    standard error, 0 if the mean equals ``exact`` to 1e-12, else inf.
    ValueError unless ``mean`` and ``exact`` are finite real numbers and
    ``stderr`` is 0 or a finite positive real number."""
    mean, exact = _check_finite(mean, "mean"), _check_finite(exact, "exact")
    if _check_real(stderr, "stderr") == 0.0:
        return 0.0 if abs(mean - exact) <= 1e-12 else float("inf")
    return (mean - exact) / _check_positive(stderr, "stderr")


# Protocol runs drawn and classified in one pass of the sampler: a block
# of consecutive states holds at most this many runs, and a state with
# more runs is a block alone, drawn in chunks of at most this many. It
# bounds the draw buffers whatever the stack or trial count; the draws do
# not depend on it.
_BLOCK_DRAWS = 2 ** 13
# States whose branch tables are alive at once: the sampler builds the
# tables of a chunk of at most this many consecutive states, a whole number
# of blocks, in one contraction; the draws do not depend on it.
_TABLE_STATES = 48


def _check_trials(trials: int, minimum: int = 1) -> None:
    """Raise ValueError unless ``trials`` is an integer, not a bool, from
    ``minimum`` to 2**53: up to 2**53 every branch count, and so each term
    of a mean made from counts, is exact as a double."""
    _check_count(trials, "trials", minimum)
    if trials > 2 ** 53:
        raise ValueError(f"trials must be at most 2**53, got {trials}")


def _pcg_generator(rng) -> np.random.Generator:
    """rng, if it is a numpy Generator on a PCG64 or PCG64DXSM bit generator;
    else ValueError naming ``rngs``. The chunked draws need ``advance`` by
    single 64-bit draws: MT19937 and SFC64 have no ``advance``, and Philox's
    steps whole blocks of four draws."""
    if not isinstance(getattr(rng, "bit_generator", None), (np.random.PCG64, np.random.PCG64DXSM)):
        raise ValueError("rngs must yield numpy Generators on a PCG64 or PCG64DXSM bit "
                         f"generator, as default_rng makes, got {rng!r}")
    return rng


def _inverse_cdf(thresholds, x) -> np.ndarray:
    """How many of the three ``thresholds`` are <= x, as uint8: the draw.

    The thresholds are the first three cumulative probabilities of four
    outcomes and broadcast against x. Since they never decrease, the
    count is the first outcome whose cumulative probability exceeds x,
    clamped to 3. ``thresholds`` may be lazy: one is alive at a time.
    """
    thresholds = iter(thresholds)
    # a bool is one byte of 0 or 1, so its uint8 view adds without a cast
    count = (next(thresholds) <= x).view(np.uint8)
    for t in thresholds:
        count += (t <= x).view(np.uint8)
    return count


def _branch_tables(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (n, 64) branch overlaps of the unit vectors v, shape (n, 2), then
    their total and cumulative Alice weights, shapes (n, 1) and (4, n, 1),
    and their cumulative P(bob | alice, error) rows, column 16 k + 4 alice +
    error of a (4, 16 n) table for state k: all from one contraction."""
    amps = np.einsum("aebij,nj->naebi", _branch_bank(), v)
    # joint weight (given error) and overlap per branch
    norms2 = np.sum(np.abs(amps) ** 2, axis=-1)
    # no weight is 0: a unit vector's weight is at least the bank's least
    # squared singular value, about 0.004, so no division warns
    overlaps = np.abs(np.einsum("ni,naebi->naeb", v.conj(), amps)) ** 2 / norms2
    p_alice = norms2[:, :, 0, :].sum(axis=-1)       # error slot 0 is the identity
    cond_bob = norms2 / p_alice[:, :, None, None]
    return (overlaps.reshape(len(v), 64), p_alice.sum(axis=-1)[:, None],
            np.cumsum(p_alice, axis=-1).T[:, :, None],
            np.cumsum(cond_bob, axis=-1).reshape(-1, 4).T.copy())


def _stream_chunks(rng: np.random.Generator, trials: int,
                   u: np.ndarray) -> Iterator[np.ndarray]:
    """The doubles of three ``rng.random(trials)`` calls, chunk by chunk.

    ``u`` is a (1, 3, width) buffer. Each chunk is ``u[:, :, :runs]``, filled
    with the next ``runs`` <= width doubles of the first, second and third
    call's stream. The first stream is rng's own; the others are copies of
    its bit generator, advanced by ``trials`` and ``2 * trials``. After the
    last chunk rng stands where the three calls would have left it.
    """
    bit_generator = rng.bit_generator
    start = bit_generator.state
    streams = [rng]
    for skip in (trials, 2 * trials):
        # a fixed seed, not OS entropy: the state is replaced at once
        copy = type(bit_generator)(0)
        copy.state = start
        copy.advance(skip)
        streams.append(np.random.Generator(copy))
    width = u.shape[-1]
    for lo in range(0, trials, width):
        chunk = u[:, :, :min(width, trials - lo)]
        for stream, row in zip(streams, chunk[0]):
            stream.random(out=row)
        yield chunk
    # advance clears the buffered 32-bit half that random doubles leave alone
    bit_generator.state = dict(start, state=streams[2].bit_generator.state["state"])


def _classified(draws: Iterable[np.ndarray], total_alice: np.ndarray, cum_alice: np.ndarray,
                cum_err: np.ndarray, cum_bob: np.ndarray) -> Iterator[np.ndarray]:
    """Classify each array of ``draws`` into runs: yields 64 k + branch,
    shape (states, runs), for the runs of the k-th state.

    An array holds the uniform doubles of the alice, error and bob streams
    of each state, shape (states, 3, runs); it is scaled in place.
    ``total_alice``, ``cum_alice`` and ``cum_bob`` are ``_branch_tables``'
    for the states, and ``cum_err`` the cumulative error probabilities.
    """
    first_cols = np.arange(0, 16 * len(total_alice), 16)[:, None]
    for u in draws:
        alice, error, bob = u.transpose(1, 0, 2)
        alice *= total_alice
        row = _inverse_cdf(cum_alice[:3], alice)
        row <<= 2
        row += _inverse_cdf(cum_err[:3], error)
        col = first_cols + row
        bob *= cum_bob[3].take(col)
        outcome = _inverse_cdf((c.take(col) for c in cum_bob[:3]), bob)
        col <<= 2
        col += outcome
        yield col


def _branch_blocks(vectors, p_bit: float, p_ph: float, trials: int,
                   rngs: Iterable[np.random.Generator]
                   ) -> tuple[int, Iterator[tuple[int, np.ndarray, Iterator[np.ndarray]]]]:
    """Check the sampler's arguments; return the stack's size and its blocks.

    The generator yields, block by block, the first state of the block, its
    states' (states, 64) branch overlaps and an iterator over their runs,
    drawn as ``sample_branches`` documents: arrays of shape (states, runs)
    of 64 k + branch for the block's k-th state. A block of states with at
    most ``_BLOCK_DRAWS`` runs each has one array. A state with more runs is
    a block alone, with one array per chunk of at most that many runs, drawn
    when the iterator reaches it. Take each array before the next, and a
    block's arrays before the next block: they share one draw buffer. The
    tables of a chunk of states are built at its first draw.
    """
    _check_trials(trials)
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("vectors must have shape (N, 2)")
    m = np.abs(v)
    # a unit vector's entries are at most 1: tested first, no square overflows
    if not (np.all(m <= 1.0 + 1e-12) and np.all(np.abs(np.sum(m ** 2, axis=-1) - 1.0) <= 1e-12)):
        raise ValueError("vectors must be normalized")
    cum_err = np.cumsum(error_probabilities(p_bit, p_ph))
    per_block = max(1, min(_BLOCK_DRAWS // trials, _TABLE_STATES))
    chunk = per_block * (_TABLE_STATES // per_block)

    def blocks():
        u = np.empty((min(per_block, len(v)), 3, min(trials, _BLOCK_DRAWS)))
        for n, rng in zip(range(len(v)), rngs, strict=True):
            rng = _pcg_generator(rng)
            if n % chunk == 0:
                first = n
                overlaps, total_alice, cum_alice, cum_bob = _branch_tables(v[n:n + chunk])
            i = n % per_block
            if trials <= _BLOCK_DRAWS:
                # the same doubles, and the same final generator state, as
                # three rng.random(trials) calls
                rng.random(out=u[i])
                if i + 1 < len(u) and n + 1 < len(v):
                    continue
                draws = (u[:i + 1],)
            else:
                draws = _stream_chunks(rng, trials, u)
            lo, hi = n - i - first, n + 1 - first
            yield n - i, overlaps[lo:hi], _classified(
                draws, total_alice[lo:hi], cum_alice[:, lo:hi], cum_err,
                cum_bob[:, 16 * lo:16 * hi])

    return len(v), blocks()


def sample_branches(vectors, p_bit: float, p_ph: float, trials: int,
                    rngs: Iterable[np.random.Generator]
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one Monte Carlo sampler: ``trials`` protocol runs per input state.

    ``vectors`` holds N unit amplitude vectors, shape (N, 2); ``rngs``
    yields exactly one generator per vector and may be lazy. Returns a
    generator that yields, vector by vector, its 64 branch overlaps and
    ``trials`` branch indices. A run is one branch: Alice's outcome, then
    the channel error, then Bob's outcome, drawn from the exact
    conditional distributions with the doubles of three
    ``rng.random(trials)`` calls, one stream each, and the generator is
    left where those calls leave it. The index is 16 alice + 4 error + bob,
    the C-order flat index into the (alice, error, bob) axes of
    ``_branch_bank()``, so ``np.unravel_index(branches, (4, 4, 4))``
    decodes it; the run's overlap is ``overlaps[branch]``.

    The runs of a block of consecutive vectors with at most 2**13 runs
    each are drawn with one ``rng.random`` call per vector and classified
    together. A vector with more runs is drawn alone, in chunks of 2**13:
    each stream from its own copy of the generator, advanced to the
    stream's start, so the generator's bit generator must have an
    ``advance`` by single draws, PCG64 (``default_rng``'s) or PCG64DXSM.
    The branch tables of a chunk of at most 48 consecutive vectors, a whole
    number of blocks, come from one contraction, so the tables in use do
    not grow with N; the draws depend on none of these sizes. The
    arguments, ``trials`` from 1 to 2**53 included, are checked at the
    call. A generator count other than N, or a generator on another bit
    generator, raises ValueError when the generators are drawn from.
    """
    _, blocks = _branch_blocks(vectors, p_bit, p_ph, trials, rngs)

    def states():
        for _, overlaps, draws in blocks:
            keys = np.concatenate(list(draws), axis=1)
            keys -= np.arange(0, 64 * len(keys), 64)[:, None]
            yield from zip(overlaps, keys)

    return states()


def _block_counts(vectors, p_bit: float, p_ph: float, trials: int,
                  rngs: Iterable[np.random.Generator]
                  ) -> tuple[int, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """``_branch_blocks`` with each block's runs reduced, as they are drawn,
    to its states' (states, 64) int64 branch counts: one ``np.bincount``
    per array of runs, the arrays of a state drawn in chunks added up."""
    n, blocks = _branch_blocks(vectors, p_bit, p_ph, trials, rngs)
    return n, ((lo, overlaps,
                sum(np.bincount(keys.ravel(), minlength=64 * len(overlaps))
                    for keys in draws).reshape(-1, 64))
               for lo, overlaps, draws in blocks)


def branch_counts(vectors, p_bit: float, p_ph: float, trials: int,
                  rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Each state's 64 branch overlaps and the branch counts of its runs.

    Takes ``sample_branches``' arguments and draws the same runs. Returns
    two (N, 64) arrays: the overlaps, and the int64 counts whose row k is
    ``np.bincount(branches, minlength=64)`` of state k's branch indices,
    so it sums to ``trials``. The runs are counted as they are drawn, so
    the memory used does not grow with ``trials``.
    """
    n, blocks = _block_counts(vectors, p_bit, p_ph, trials, rngs)
    overlaps = np.empty((n, 64))
    counts = np.empty((n, 64), dtype=np.int64)
    for lo, block_overlaps, block_counts in blocks:
        overlaps[lo:lo + len(block_counts)] = block_overlaps
        counts[lo:lo + len(block_counts)] = block_counts
    return overlaps, counts


def mc_estimates(vectors, p_bit: float, p_ph: float, trials: int,
                 rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo means and standard errors for a stack of input states.

    The reduction of ``branch_counts``, which takes the same arguments:
    with a state's 64 counts c and overlaps o, its mean is
    m = c . o / trials and its standard error
    sqrt(c . (o - m)**2 / (trials - 1)) / sqrt(trials), 0 at one trial.
    These are the mean and ``std(ddof=1)`` / sqrt(trials) of the overlaps
    of its ``trials`` runs, summed per branch, not per run. Each block of
    states is reduced as soon as it is drawn, so neither an (N, 64) table
    nor a run's draw outlives its block. Deterministic for fixed generator
    states.
    """
    n, blocks = _block_counts(vectors, p_bit, p_ph, trials, rngs)
    means = np.empty(n)
    stderrs = np.zeros(n)
    for lo, overlaps, counts in blocks:
        hi = lo + len(counts)
        means[lo:hi] = _row_sums(counts * overlaps) / trials
        if trials > 1:    # one run has no spread, and trials - 1 would be 0
            spread = _row_sums(counts * (overlaps - means[lo:hi, None]) ** 2)
            stderrs[lo:hi] = np.sqrt(spread / (trials - 1)) / np.sqrt(trials)
    return means, stderrs


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of the 2-D ``terms``:
    ``math.fsum``, whose only rounding is the result's."""
    return np.array([math.fsum(row) for row in terms.tolist()])


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
