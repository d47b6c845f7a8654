from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clonerestore.cloning import estimation_elements
from clonerestore.linalg import ATOL
from clonerestore.core import (
    GAUGE_ATOL,
    MAXIMALLY_MIXED,
    PAULI_X,
    PAULI_Z,
    ErrorType,
    KrausChannel,
    PureQubit,
    _overlaps,
    apply_channel,
    error_channel,
    error_probabilities,
    fidelity,
    make_pure,
    reduce_qubit,
    state_vector,
)
from clonerestore.protocol import alpha2_grid, phi_grid

KET0 = make_pure(1.0, 0.0)
KET1 = make_pure(0.0, 0.0)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
phis = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)
channels = st.one_of(st.builds(error_channel, probabilities, probabilities),
                     st.just(estimation_elements()))


@st.composite
def density_matrices(draw):
    """(I + r.sigma)/2 for a Bloch vector r in the closed unit ball."""
    r = draw(probabilities)
    theta = draw(st.floats(min_value=0.0, max_value=np.pi))
    phi = draw(phis)
    x, y, z = r * np.sin(theta) * np.cos(phi), r * np.sin(theta) * np.sin(phi), r * np.cos(theta)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def norm_angle_from_vector(v):
    """``PureQubit.from_vector`` as written with np.linalg.norm and
    np.angle, kept to pin the bits of the unwrapped form."""
    v = np.asarray(v, dtype=complex).reshape(2)
    n = float(np.linalg.norm(v))
    if n <= GAUGE_ATOL:
        raise ValueError("cannot canonicalize a zero vector")
    a = abs(v[0]) / n
    b = abs(v[1]) / n
    if a <= GAUGE_ATOL:
        return PureQubit(0.0, 1.0, 0.0)
    if b <= GAUGE_ATOL:
        return PureQubit(1.0, 0.0, 0.0)
    phi = float(np.angle(v[1]) - np.angle(v[0]))
    return PureQubit(a, b, phi)


def bits(psi):
    """The exact bits of a state's parameters; float.hex tells -0.0 from 0.0."""
    return tuple(float(x).hex() for x in (psi.alpha, psi.beta, psi.phi))


# exact zeros, amplitudes at the gauge threshold, and ordinary ones
amplitude_parts = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(min_value=0.25 * GAUGE_ATOL, max_value=4 * GAUGE_ATOL).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
complex_vectors = st.lists(st.builds(complex, amplitude_parts, amplitude_parts),
                           min_size=2, max_size=2).map(np.array)


def density(psi):
    """The projector |psi><psi|."""
    v = psi.vector
    return np.outer(v, v.conj())


# a NaN rho gave a silent NaN; a wrong shape reached numpy
INVALID_RHOS = [np.full((2, 2), np.nan), np.diag([np.inf, 0.0]), np.eye(3) / 3, np.ones(2)]


def random_density(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestPureQubit:
    def test_make_pure_pole(self):
        psi = make_pure(1.0, 2.7)
        assert (psi.alpha, psi.beta, psi.phi) == (1.0, 0.0, 0.0)

    def test_make_pure_equator(self):
        psi = make_pure(0.5, 0.0)
        np.testing.assert_allclose(psi.vector, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_make_pure_quarter(self):
        psi = make_pure(0.25, np.pi)
        assert psi.alpha == pytest.approx(0.5)
        assert psi.beta == pytest.approx(np.sqrt(0.75))
        assert psi.phi == pytest.approx(np.pi)

    @pytest.mark.parametrize("alpha2", [-0.1, 1.1, 2.0])
    def test_make_pure_domain(self, alpha2):
        with pytest.raises(ValueError):
            make_pure(alpha2, 0.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            PureQubit(0.9, 0.9, 0.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            PureQubit(-1.0, 0.0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PureQubit(np.nan, 0.0, 0.0)

    # phi and the fields take alpha2's rule: a bool or a string is not a
    # real number
    @pytest.mark.parametrize("make, args, name", [
        (make_pure, (0.5, "1.0"), "phi"), (make_pure, (0.5, True), "phi"),
        (PureQubit, (True, False, "0"), "alpha"), (PureQubit, (1.0, False, 0.0), "beta"),
        (PureQubit, (1.0, 0.0, "0"), "phi"), (PureQubit, (1.0, 0.0, np.array(0.0)), "phi")])
    def test_fields_are_real_numbers(self, make, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            make(*args)

    def test_phi_wraps(self):
        psi = PureQubit(np.sqrt(0.5), np.sqrt(0.5), 5 * np.pi)
        assert psi.phi == pytest.approx(np.pi)
        # -1e-17 % 2pi rounds to 2pi itself, outside [0, 2pi)
        assert PureQubit(np.sqrt(0.5), np.sqrt(0.5), -1e-17).phi == 0.0

    def test_from_vector_strips_global_phase(self):
        v = np.exp(1.3j) * make_pure(0.3, 2.0).vector
        psi = PureQubit.from_vector(v)
        assert psi.alpha2 == pytest.approx(0.3, abs=1e-14)
        assert psi.phi == pytest.approx(2.0, abs=1e-14)

    def test_from_vector_renormalizes(self):
        psi = PureQubit.from_vector(np.array([3.0, 4.0j]))
        assert psi.alpha == pytest.approx(0.6)
        assert psi.phi == pytest.approx(np.pi / 2)

    def test_from_vector_pole_gauge(self):
        psi = PureQubit.from_vector(np.array([0.0, np.exp(0.7j)]))
        assert (psi.alpha, psi.beta, psi.phi) == (0.0, 1.0, 0.0)

    # a (1, 2) or (2, 1) array is refused, not reshaped into a 2-vector
    @pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
    def test_from_vector_takes_shape_2_only(self, shape):
        with pytest.raises(ValueError, match=rf"^v must have shape \(2,\), got \({shape[0]}, "
                                             rf"{shape[1]}\)$"):
            PureQubit.from_vector(np.ones(shape))

    def test_from_vector_zero_rejected(self):
        with pytest.raises(ValueError):
            PureQubit.from_vector(np.zeros(2))

    # the last: the second magnitude is NaN, so the overflow guard must not
    # take max(a, b), which is a there
    @pytest.mark.parametrize("v", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 0.0],
                                   [1.0, complex(0.0, np.inf)], [1 + 1j, complex(-1e308, np.nan)]])
    def test_from_vector_nonfinite_rejected(self, v):
        with pytest.raises(ValueError, match="^v must be finite$"):
            PureQubit.from_vector(np.array(v))

    def test_from_vector_norm_overflow_rejected(self):
        # every entry is finite, but the squared norm is not
        with pytest.raises(ValueError, match="norm overflows"):
            PureQubit.from_vector(np.array([1e200, 0.0]))

    def test_from_vector_large_finite_norm(self):
        # entries past the overflow guard whose norm is still finite
        psi = PureQubit.from_vector(np.array([1e153, 1e153j]))
        assert psi.alpha2 == pytest.approx(0.5, abs=1e-15)
        assert psi.phi == pytest.approx(np.pi / 2, abs=1e-15)

    @given(
        alpha2=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    )
    def test_gauge_roundtrip(self, alpha2, phi):
        back = PureQubit.from_vector(make_pure(alpha2, phi).vector)
        assert back.alpha2 == pytest.approx(alpha2, abs=1e-12)
        dphi = abs(back.phi - phi) % (2 * np.pi)
        assert min(dphi, 2 * np.pi - dphi) < 1e-12


class TestStateVector:
    def test_matches_scalar_states(self):
        a2 = np.linspace(0, 1, 7)
        phi = np.linspace(0, 6, 7)
        v = state_vector(a2, phi)
        for i in range(7):
            np.testing.assert_allclose(v[i], make_pure(a2[i], phi[i]).vector, atol=1e-15)

    def test_equals_make_pure_bit_for_bit(self):
        # both poles are on every alpha2 grid; the phase is 0 there
        for n in (2, 3, 11, 51, 101):
            a2, phi = alpha2_grid(n), phi_grid(min(n, 37))
            expected = np.array([[make_pure(a, p).vector for p in phi] for a in a2])
            assert np.array_equal(state_vector(a2[:, None], phi[None, :]), expected)
        # off the grid both reduce phi by one rule; a phase that rounds to
        # 2*pi, such as -5e-324, becomes 0
        rng = np.random.default_rng(5)
        two_pi = 2 * np.pi
        phi = np.concatenate([rng.uniform(-20, 20, 500), [1e300, -1e300, -5e-324, two_pi,
                                                           -two_pi, np.nextafter(two_pi, 0)]])
        a2 = rng.random(phi.size)
        expected = np.array([make_pure(a, p).vector for a, p in zip(a2, phi)])
        assert np.array_equal(state_vector(a2, phi), expected)

    def test_domain(self):
        for alpha2, phi in [([0.5, 1.5], 0.0), (np.nan, 0.0), ([0.5, np.nan], 0.0),
                            (0.5, np.inf), (0.5, [0.0, np.nan])]:
            with pytest.raises(ValueError):
                state_vector(alpha2, phi)


class TestFidelity:
    def test_self_overlap(self):
        psi = make_pure(0.7, 0.4)
        assert fidelity(psi, density(psi)) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        for psi in (KET0, KET1, make_pure(0.4, 2.0)):
            assert fidelity(psi, MAXIMALLY_MIXED) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal(self):
        assert fidelity(KET0, density(KET1)) == 0.0

    @pytest.mark.parametrize("rho", INVALID_RHOS)
    def test_invalid_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            fidelity(make_pure(0.3, 1.0), rho)


class TestErrorChannel:
    def test_probabilities_sum_to_one(self):
        assert error_probabilities(0.3, 0.8).sum() == pytest.approx(1.0, abs=1e-15)

    @given(p_bit=probabilities, p_ph=probabilities)
    @settings(max_examples=100)
    def test_completeness(self, p_bit, p_ph):
        ch = error_channel(p_bit, p_ph)
        acc = ch.effects.sum(axis=0)
        assert np.max(np.abs(acc - np.eye(2))) < 1e-12

    def test_noiseless_is_identity(self):
        rng = np.random.default_rng(0)
        ch = error_channel(0.0, 0.0)
        rho = random_density(rng)
        np.testing.assert_allclose(apply_channel(ch, rho), rho, atol=1e-15)

    def test_fully_noisy_depolarizes(self):
        rng = np.random.default_rng(1)
        ch = error_channel(0.5, 0.5)
        for _ in range(10):
            np.testing.assert_allclose(
                apply_channel(ch, random_density(rng)), MAXIMALLY_MIXED, atol=1e-14)

    def test_deterministic_bit_flip(self):
        out = apply_channel(error_channel(1.0, 0.0), density(KET0))
        np.testing.assert_allclose(out, density(KET1), atol=1e-15)

    @pytest.mark.parametrize("p_bit,p_ph", [(-0.1, 0.0), (0.0, 1.2), (2.0, 2.0)])
    def test_domain(self, p_bit, p_ph):
        with pytest.raises(ValueError):
            error_channel(p_bit, p_ph)

    # a bool, a string, a complex number, None and any array are not real
    # numbers: ValueError naming the argument, not a result, a TypeError
    # or numpy's "truth value of an array is ambiguous"
    @pytest.mark.parametrize("x", [True, False, "0.1", 0.5j, None, [0.5],
                                   np.array([0.1, 0.2]), np.array(0.5)])
    def test_probabilities_are_real_numbers(self, x):
        for name, call in (("p_bit", lambda: error_probabilities(x, 0.0)),
                           ("p_ph", lambda: error_probabilities(0.0, x)),
                           ("alpha2", lambda: make_pure(x, 0.0))):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                call()

    def test_real_numbers_of_any_type(self):
        # ints, Fractions and numpy scalars are real numbers; an int beyond
        # the double range is out of range, not an OverflowError
        ref = error_probabilities(0.25, 0.5)
        for p in (Fraction(1, 4), np.float32(0.25), np.float64(0.25)):
            assert error_probabilities(p, np.int64(1) / 2).tolist() == ref.tolist()
        assert make_pure(np.int8(1), 0.0) == KET0
        for p in (10**400, -10**400):
            with pytest.raises(ValueError, match="p_bit must lie in"):
                error_probabilities(p, 0.0)

    def test_error_type_operators(self):
        np.testing.assert_array_equal(ErrorType.BIT_FLIP.operator, PAULI_X)
        np.testing.assert_array_equal(ErrorType.PHASE_FLIP.operator, PAULI_Z)
        np.testing.assert_array_equal(ErrorType.BIT_PHASE_FLIP.operator, PAULI_X @ PAULI_Z)

    def test_product_ordering_has_no_observable_effect(self):
        # sigma_x sigma_z vs sigma_z sigma_x differ by a global sign only
        rng = np.random.default_rng(2)
        probs = np.sqrt(error_probabilities(0.4, 0.7))
        alt = KrausChannel(np.stack([
            probs[0] * np.eye(2, dtype=complex),
            probs[1] * PAULI_X,
            probs[2] * PAULI_Z,
            probs[3] * (PAULI_Z @ PAULI_X),
        ]))
        ch = error_channel(0.4, 0.7)
        for _ in range(10):
            rho = random_density(rng)
            np.testing.assert_allclose(apply_channel(ch, rho), apply_channel(alt, rho), atol=1e-14)


class TestKrausChannel:
    def test_nonfinite_elements_rejected(self):
        # NaN passed the completeness check, and sampling then always drew 0
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="elements must be finite"):
                KrausChannel(np.full((1, 2, 2), value))

    def test_incomplete_elements_rejected(self):
        # finite elements whose effects overflow into NaN
        overflowing = np.array([[[1e300 - 1e300j, 1e300], [-1e300 - 1e300j, 1e300j]]])
        for elements in (np.stack([np.eye(2, dtype=complex), PAULI_X]), overflowing):
            with pytest.raises(ValueError, match="completeness"):
                KrausChannel(elements)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel(np.eye(2, dtype=complex))

    def test_channels_compare_and_hash_by_identity(self):
        # a field-wise __eq__ over the arrays raised "truth value of an array
        # is ambiguous", and the generated __hash__ hashed an ndarray
        first, second = error_channel(0.1, 0.2), error_channel(0.1, 0.2)
        est = estimation_elements()
        assert (first == first, first == second, first != second) == (True, False, True)
        assert (est == est, est == first, est != first) == (True, False, True)
        assert estimation_elements() == estimation_elements()
        assert len({first, second, est, estimation_elements()}) == 3
        assert hash(first) == hash(first)

    def test_apply_preserves_density(self):
        rng = np.random.default_rng(3)
        channels = [error_channel(rng.random(), rng.random()) for _ in range(5)]
        channels.append(estimation_elements())
        for ch in channels:
            for _ in range(10):
                out = apply_channel(ch, random_density(rng))
                assert np.max(np.abs(out - out.conj().T)) <= ATOL
                assert abs(np.trace(out) - 1.0) <= ATOL
                assert np.linalg.eigvalsh(out).min() >= -1e-10

    @pytest.mark.parametrize("rho", INVALID_RHOS)
    def test_invalid_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            apply_channel(error_channel(0.1, 0.2), rho)

    def test_apply_estimation_channel_matches_direct_sum(self):
        # direct matrix arithmetic with explicit element values
        s = 1 / (2 * np.sqrt(3))
        elements = s * np.array(
            [[[2, 1], [0, 1]], [[1, 0], [1, 2]], [[2, -1], [0, 1]], [[-1, 0], [1, -2]]],
            dtype=complex)
        rho = density(KET0)
        expected = sum(e @ rho @ e.conj().T for e in elements)
        out = apply_channel(estimation_elements(), rho)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


class TestCoreProperties:
    @given(v=complex_vectors)
    @settings(max_examples=300)
    def test_from_vector_matches_norm_angle_form(self, v):
        try:
            expected = bits(norm_angle_from_vector(v))
        except ValueError:
            with pytest.raises(ValueError, match="zero vector"):
                PureQubit.from_vector(v)
            return
        assert bits(PureQubit.from_vector(v)) == expected

    @given(ch=channels, rho=density_matrices())
    def test_channel_output_is_a_density_matrix(self, ch, rho):
        out = apply_channel(ch, rho)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-12


class TestReduceQubit:
    def test_product_state(self):
        psi = make_pure(0.3, 0.7)
        state = np.kron(psi.vector, np.kron([1, 0], [1, 0])).astype(complex)
        np.testing.assert_allclose(reduce_qubit(state, 1), density(psi), atol=1e-15)

    def test_ghz_marginal_is_mixed(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        for keep in (1, 2, 3):
            np.testing.assert_allclose(reduce_qubit(ghz, keep), MAXIMALLY_MIXED, atol=1e-15)

    # an integer 1, 2 or 3: a bool or a float equal to one is not
    @pytest.mark.parametrize("keep", [0, 4, -1, True, 1.0, "1", np.array([1])])
    def test_index_domain(self, keep):
        with pytest.raises(ValueError, match="keep must be"):
            reduce_qubit(np.zeros(8), keep)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            reduce_qubit(np.zeros(4), 1)

    # a stack of 8-vectors; an array of another last axis, even of 8
    # entries, is refused rather than reshaped
    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2), (8, 2), (3, 9)], ids=str)
    def test_wrong_trailing_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"state must have shape \(\.\.\., 8\)"):
            reduce_qubit(np.zeros(shape), 1)

    @pytest.mark.parametrize("shape", [(0,), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("keep", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_stack_equals_per_state_calls(self, keep, shape, data):
        entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
        states = data.draw(hnp.arrays(complex, shape + (8,), elements=entries))
        out = reduce_qubit(states, keep)
        per_state = np.array([reduce_qubit(s, keep) for s in states.reshape(-1, 8)], dtype=complex)
        assert out.shape == shape + (2, 2)
        assert out.tobytes() == per_state.tobytes()

    def test_one_faulty_state_fails_the_stack(self):
        states = np.zeros((3, 8), dtype=complex)
        for bad in (np.nan, np.inf, 1e200):
            states[1, 5] = bad
            with pytest.raises(ValueError, match="state entries must be finite and at most 1e150"):
                reduce_qubit(states, 1)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_overlap_kernel_is_fidelity_bit_for_bit(data):
    """``fidelity`` is the one-element case of the stacked overlap that
    verify's clone check calls."""
    n = data.draw(st.integers(0, 5))
    alpha2, phi = (np.array(data.draw(st.lists(x, min_size=n, max_size=n)), dtype=float)
                   for x in (probabilities, phis))
    rho = data.draw(hnp.arrays(complex, (n, 2, 2), elements=st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False)))
    per_state = [fidelity(make_pure(a2, p), r) for a2, p, r in zip(alpha2, phi, rho)]
    assert _overlaps(state_vector(alpha2, phi), rho).tobytes() == np.array(per_state).tobytes()
