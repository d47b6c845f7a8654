import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonerestore.cloning import estimation_elements
from clonerestore.linalg import haar_random_unitary
from clonerestore.core import (
    GAUGE_ATOL,
    MAXIMALLY_MIXED,
    PAULI_X,
    PAULI_Z,
    ErrorType,
    KrausChannel,
    PureQubit,
    apply_channel,
    check_density_matrix,
    error_channel,
    error_probabilities,
    fidelity,
    make_pure,
    reduce_qubit,
    sample_elements,
    state_vector,
)

KET0 = make_pure(1.0, 0.0)
KET1 = make_pure(0.0, 0.0)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
phis = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)
channels = st.one_of(st.builds(error_channel, probabilities, probabilities),
                     st.just(estimation_elements()))


def weighted_unitaries(k, seed):
    """A k-element channel sqrt(w_i) U_i: Haar unitaries with Dirichlet weights."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    return KrausChannel(np.sqrt(weights)[:, None, None] * haar_random_unitary(rng, k))


# channels with 1 to 6 elements, for the k-outcome inverse-CDF draw
sampling_channels = st.one_of(
    channels, st.builds(weighted_unitaries, st.integers(1, 6), st.integers(0, 2**32 - 1)))


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

    def test_from_vector_zero_rejected(self):
        with pytest.raises(ValueError):
            PureQubit.from_vector(np.zeros(2))

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 0.0],
                                   [1.0, complex(0.0, np.inf)]])
    def test_from_vector_nonfinite_rejected(self, v):
        with pytest.raises(ValueError, match="vector must be finite"):
            PureQubit.from_vector(np.array(v))

    def test_from_vector_norm_overflow_rejected(self):
        # every entry is finite, but the squared norm is not
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
            PureQubit.from_vector(np.array([1e200, 0.0]))

    @given(
        alpha2=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    )
    def test_gauge_roundtrip(self, alpha2, phi):
        back = PureQubit.from_vector(make_pure(alpha2, phi).vector)
        assert back.alpha2 == pytest.approx(alpha2, abs=1e-12)
        dphi = abs(back.phi - phi) % (2 * np.pi)
        assert min(dphi, 2 * np.pi - dphi) < 1e-12

    def test_density_is_projector(self):
        rho = make_pure(0.3, 1.1).density()
        check_density_matrix(rho)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)


class TestStateVector:
    def test_matches_scalar_states(self):
        a2 = np.linspace(0, 1, 7)
        phi = np.linspace(0, 6, 7)
        v = state_vector(a2, phi)
        for i in range(7):
            np.testing.assert_allclose(v[i], make_pure(a2[i], phi[i]).vector, atol=1e-15)

    def test_domain(self):
        for alpha2, phi in [([0.5, 1.5], 0.0), (np.nan, 0.0), ([0.5, np.nan], 0.0),
                            (0.5, np.inf), (0.5, [0.0, np.nan])]:
            with pytest.raises(ValueError):
                state_vector(alpha2, phi)


class TestFidelity:
    def test_self_overlap(self):
        psi = make_pure(0.7, 0.4)
        assert fidelity(psi, psi.density()) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        for psi in (KET0, KET1, make_pure(0.4, 2.0)):
            assert fidelity(psi, MAXIMALLY_MIXED) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal(self):
        assert fidelity(KET0, KET1.density()) == 0.0


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
        out = apply_channel(error_channel(1.0, 0.0), KET0.density())
        np.testing.assert_allclose(out, KET1.density(), atol=1e-15)

    @pytest.mark.parametrize("p_bit,p_ph", [(-0.1, 0.0), (0.0, 1.2), (2.0, 2.0)])
    def test_domain(self, p_bit, p_ph):
        with pytest.raises(ValueError):
            error_channel(p_bit, p_ph)

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
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel(np.stack([np.eye(2, dtype=complex), PAULI_X]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel(np.eye(2, dtype=complex))

    def test_apply_preserves_density(self):
        rng = np.random.default_rng(3)
        channels = [error_channel(rng.random(), rng.random()) for _ in range(5)]
        channels.append(estimation_elements())
        for ch in channels:
            for _ in range(10):
                out = apply_channel(ch, random_density(rng))
                check_density_matrix(out)

    def test_apply_estimation_channel_matches_direct_sum(self):
        # direct matrix arithmetic with explicit element values
        s = 1 / (2 * np.sqrt(3))
        elements = s * np.array(
            [[[2, 1], [0, 1]], [[1, 0], [1, 2]], [[2, -1], [0, 1]], [[-1, 0], [1, -2]]],
            dtype=complex)
        rho = KET0.density()
        expected = sum(e @ rho @ e.conj().T for e in elements)
        out = apply_channel(estimation_elements(), rho)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


def clamped_searchsorted_draw(ch, psi, rng, size):
    """Reference inverse-CDF draw: searchsorted on the cumulative Born
    probabilities, clamped to the last element."""
    v = psi.vector
    probs = np.clip(np.einsum("i,aij,j->a", v.conj(), ch.effects, v).real, 0.0, None)
    idx = np.searchsorted(np.cumsum(probs), rng.random(size) * probs.sum(), side="right")
    return np.minimum(idx, len(ch) - 1)


class TestSampleElement:
    def test_identity_channel(self):
        ch = KrausChannel(np.eye(2, dtype=complex)[None, :, :])
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_elements(ch, make_pure(0.3, 1.0), rng, 20), 0)

    def test_deterministic_bit_flip(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_elements(error_channel(1.0, 0.0), KET0, rng, 20), 1)

    def test_seed_determinism(self):
        ch = estimation_elements()
        runs = [sample_elements(ch, make_pure(0.3, 2.0), np.random.default_rng(42), 50)
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_frequencies_match_born_rule(self):
        n = 20000
        ch = estimation_elements()
        psi = make_pure(0.7, 0.9)
        v = psi.vector
        probs = np.einsum("i,aij,j->a", v.conj(), ch.effects, v).real
        counts = np.bincount(sample_elements(ch, psi, np.random.default_rng(8), n), minlength=4)
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(counts / n - probs) <= 4 * sigma)

    @pytest.mark.parametrize("ch", [estimation_elements(), error_channel(0.3, 0.6)])
    def test_batched_matches_scalar(self, ch):
        # one draw of n equals n draws of one from the same stream
        psi = make_pure(0.7, 0.9)
        batched_rng, scalar_rng = np.random.default_rng(21), np.random.default_rng(21)
        batched = sample_elements(ch, psi, batched_rng, 1000)
        scalar = [sample_elements(ch, psi, scalar_rng, 1)[0] for _ in range(1000)]
        np.testing.assert_array_equal(batched, scalar)
        assert batched_rng.random() == scalar_rng.random()

    def test_size_domain(self):
        ch = estimation_elements()
        assert sample_elements(ch, KET0, np.random.default_rng(0), 0).shape == (0,)
        for size in (2.5, True, -1, "3"):
            with pytest.raises(ValueError, match="size"):
                sample_elements(ch, KET0, np.random.default_rng(0), size)


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

    @given(ch=sampling_channels, alpha2=probabilities, phi=phis,
           seed=st.integers(0, 2**32 - 1), size=st.integers(1, 200))
    def test_sample_elements_match_clamped_searchsorted(self, ch, alpha2, phi, seed, size):
        psi = make_pure(alpha2, phi)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = sample_elements(ch, psi, rng, size)
        assert drawn.dtype == np.intp
        np.testing.assert_array_equal(drawn, clamped_searchsorted_draw(ch, psi, reference_rng, size))
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestReduceQubit:
    def test_product_state(self):
        psi = make_pure(0.3, 0.7)
        state = np.kron(psi.vector, np.kron([1, 0], [1, 0])).astype(complex)
        np.testing.assert_allclose(reduce_qubit(state, 1), psi.density(), atol=1e-15)

    def test_ghz_marginal_is_mixed(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        for keep in (1, 2, 3):
            np.testing.assert_allclose(reduce_qubit(ghz, keep), MAXIMALLY_MIXED, atol=1e-15)

    @pytest.mark.parametrize("keep", [0, 4, -1])
    def test_index_domain(self, keep):
        with pytest.raises(ValueError):
            reduce_qubit(np.zeros(8), keep)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            reduce_qubit(np.zeros(4), 1)


class TestCheckDensityMatrix:
    def test_accepts_valid(self):
        check_density_matrix(MAXIMALLY_MIXED)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            check_density_matrix(np.diag([1.5, -0.5]))
