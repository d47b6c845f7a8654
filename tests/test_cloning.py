import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonerestore.cloning import (
    EstimationChannel,
    Outcome,
    _clone_vectors,
    elements_from_cloner,
    estimation_elements,
    outcome_probability,
    post_measurement_state,
    reverse,
    reversed_fidelity,
    reversed_fidelity_plane,
    uqcm_output,
)
from clonerestore.core import PureQubit, fidelity, make_pure, reduce_qubit, state_vector
from clonerestore.linalg import dagger, nearest_unitary

KET0 = make_pure(1.0, 0.0)

ELEMENTS = np.array(
    [[[2, 1], [0, 1]], [[1, 0], [1, 2]], [[2, -1], [0, 1]], [[-1, 0], [1, -2]]],
    dtype=complex,
) / (2 * np.sqrt(3))

# adjoints of the reversal unitaries; entry 1 carries a -1 global phase
# relative to the unitary polar factor, which no measurement can see
REVERSAL_ADJOINTS = np.array(
    [[[3, -1], [1, 3]], [[-3, -1], [1, -3]], [[3, 1], [-1, 3]], [[-3, 1], [-1, -3]]],
    dtype=complex,
) / np.sqrt(10)

state_params = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)


def eigh_sqrt(m):
    """Independent PSD square root through the eigendecomposition."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def random_states(seed, n):
    rng = np.random.default_rng(seed)
    return [make_pure(rng.random(), rng.random() * 2 * np.pi) for _ in range(n)]


class TestUqcmOutput:
    def test_ket0_amplitudes(self):
        out = uqcm_output(KET0)
        expected = np.zeros(8, dtype=complex)
        expected[0] = np.sqrt(2 / 3)
        expected[3] = expected[5] = np.sqrt(1 / 6)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_ket1_amplitudes(self):
        out = uqcm_output(make_pure(0.0, 0.0))
        expected = np.zeros(8, dtype=complex)
        expected[7] = np.sqrt(2 / 3)
        expected[2] = expected[4] = np.sqrt(1 / 6)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @given(params=state_params)
    def test_normalized(self, params):
        out = uqcm_output(make_pure(*params))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_equator_clone_fidelity(self):
        psi = make_pure(0.5, 0.0)
        rho = reduce_qubit(uqcm_output(psi), 1)
        assert fidelity(psi, rho) == pytest.approx(5 / 6, abs=1e-13)

    def test_both_clones_identical_5_6(self):
        for psi in random_states(31, 50):
            cloned = uqcm_output(psi)
            rho1 = reduce_qubit(cloned, 1)
            rho2 = reduce_qubit(cloned, 2)
            assert np.max(np.abs(rho1 - rho2)) < 1e-13
            assert fidelity(psi, rho1) == pytest.approx(5 / 6, abs=1e-13)
            assert fidelity(psi, rho2) == pytest.approx(5 / 6, abs=1e-13)

    @given(points=st.lists(state_params, max_size=6))
    def test_stacked_kernel_is_uqcm_output_bit_for_bit(self, points):
        alpha2, phi = np.array(points, dtype=float).reshape(-1, 2).T
        per_state = np.array([uqcm_output(make_pure(a2, ph)) for a2, ph in zip(alpha2, phi)],
                             dtype=complex).reshape(-1, 8)
        v = state_vector(alpha2, phi)
        for stack in (v, v[None]):
            out = _clone_vectors(stack)
            assert out.shape == stack.shape[:-1] + (8,)
            assert out.reshape(-1, 8).tobytes() == per_state.tobytes()


# sha256 of the little-endian complex128 bytes, recorded before the polar
# decomposition took stacks: the reversal unitaries feed every sweep and
# Monte Carlo number, so a kernel change that moves a bit fails here first
CHANNEL_SHA256 = {
    "reversal_unitaries": "b7e02fcf0bf5693c16af766d860cc047d1936ca0c434048b6cb49c6edabb7c98",
    "sqrt_effects": "71144e9ccacac0bf4ac923a836b75e783d8548ca343007d2016bc1ea1a09713d",
}


class TestEstimationElements:
    @pytest.mark.parametrize("field", sorted(CHANNEL_SHA256))
    def test_bits_are_pinned(self, field):
        a = np.ascontiguousarray(getattr(estimation_elements(), field), dtype="<c16")
        assert hashlib.sha256(a.tobytes()).hexdigest() == CHANNEL_SHA256[field]

    def test_first_element_closed_form(self):
        est = estimation_elements()
        np.testing.assert_allclose(est.elements[0], ELEMENTS[0], atol=1e-15)

    def test_completeness(self):
        est = estimation_elements()
        np.testing.assert_allclose(est.effects.sum(axis=0), np.eye(2), atol=1e-13)

    def test_matches_projective_construction(self):
        np.testing.assert_allclose(elements_from_cloner(), ELEMENTS, atol=1e-13)

    def test_reversal_adjoint_first_outcome(self):
        est = estimation_elements()
        np.testing.assert_allclose(
            dagger(est.reversal_unitaries[0]), REVERSAL_ADJOINTS[0], atol=1e-13)

    def test_reversals_match_nearest_unitary(self):
        est = estimation_elements()
        for i in range(4):
            np.testing.assert_allclose(
                nearest_unitary(est.elements[i]), est.reversal_unitaries[i], atol=1e-13)

    def test_reversal_adjoints_match_reference_up_to_phase(self):
        est = estimation_elements()
        for i in range(4):
            a = dagger(est.reversal_unitaries[i])
            lam = np.trace(dagger(REVERSAL_ADJOINTS[i]) @ a)
            assert abs(abs(lam) - 2.0) < 1e-12  # |tr(U^dag U)| = 2 iff equal up to phase
            lam /= abs(lam)
            np.testing.assert_allclose(a, lam * REVERSAL_ADJOINTS[i], atol=1e-12)

    # a reversal that is not unitary, or that leaves -sqrt(E^dag E), is
    # refused by its index in reversal_unitaries
    @pytest.mark.parametrize("scale, fault", [(2.0, "is not unitary"),
                                              (-1.0, "does not leave a PSD factor")])
    def test_bad_reversal_named(self, scale, fault):
        est = estimation_elements()
        reversals = est.reversal_unitaries.copy()
        reversals[1] *= scale
        with pytest.raises(ValueError, match=rf"^reversal_unitaries\[1\] {fault}$"):
            EstimationChannel(est.elements, reversals)

    def test_outcome_encoding(self):
        assert [o.label for o in Outcome] == ["+0", "+1", "-0", "-1"]
        assert Outcome.MINUS_1.sign == "-"
        assert Outcome.MINUS_1.bit == 1


class TestOutcomeProbability:
    def test_ket0_distribution(self):
        probs = [outcome_probability(KET0, o) for o in Outcome]
        np.testing.assert_allclose(probs, [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-14)

    def test_equator_sign_marginal(self):
        psi = make_pure(0.5, 0.0)
        p_plus = outcome_probability(psi, Outcome.PLUS_0) + outcome_probability(psi, Outcome.PLUS_1)
        assert p_plus == pytest.approx(5 / 6, abs=1e-14)

    def test_ket1_bit_marginal(self):
        psi = make_pure(0.0, 0.0)
        p_zero = outcome_probability(psi, Outcome.PLUS_0) + outcome_probability(psi, Outcome.MINUS_0)
        assert p_zero == pytest.approx(1 / 3, abs=1e-14)

    @given(params=state_params)
    def test_sums_to_one(self, params):
        psi = make_pure(*params)
        assert sum(outcome_probability(psi, o) for o in Outcome) == pytest.approx(1.0, abs=1e-12)

    def test_marginals_match_closed_forms(self):
        for psi in random_states(12, 50):
            a, b = psi.alpha, psi.beta
            p = [outcome_probability(psi, o) for o in Outcome]
            assert p[0] + p[1] == pytest.approx(
                0.5 * (1 + (4 / 3) * a * b * np.cos(psi.phi)), abs=1e-13)
            assert p[0] + p[2] == pytest.approx((1 + a * a) / 3, abs=1e-13)


class TestPostMeasurementState:
    def test_equator_plus0(self):
        out = post_measurement_state(make_pure(0.5, 0.0), Outcome.PLUS_0)
        np.testing.assert_allclose(out.vector, np.array([3, 1]) / np.sqrt(10), atol=1e-14)

    def test_ket0_plus0_fixed_point(self):
        assert post_measurement_state(KET0, Outcome.PLUS_0) == KET0

    def test_matches_amplitude_update_formulas(self):
        # independent route: update (alpha, beta, phi) directly
        for psi in random_states(4, 50):
            a, b, phi = psi.alpha, psi.beta, psi.phi
            norm = np.sqrt(a * a + a * b * np.cos(phi) + b * b / 2)
            a_new = np.sqrt(a * a + a * b * np.cos(phi) + b * b / 4)
            b_new = b / 2
            phi_new = phi - np.arctan2(b * np.sin(phi), 2 * a + b * np.cos(phi))
            out = post_measurement_state(psi, Outcome.PLUS_0)
            assert out.alpha == pytest.approx(a_new / norm, abs=1e-12)
            assert out.beta == pytest.approx(b_new / norm, abs=1e-12)
            dphi = abs(out.phi - phi_new % (2 * np.pi)) % (2 * np.pi)
            assert min(dphi, 2 * np.pi - dphi) < 1e-12

    def test_quadrant_preserved_for_plus0(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a2 = rng.uniform(0.5 + 1e-9, 1.0 - 1e-9)
            phi = rng.choice([rng.uniform(0, np.pi / 2 - 1e-9),
                              rng.uniform(3 * np.pi / 2 + 1e-9, 2 * np.pi - 1e-12)])
            out = post_measurement_state(make_pure(a2, phi), Outcome.PLUS_0)
            assert out.alpha > out.beta
            assert np.cos(out.phi) > 0


class TestReverse:
    def test_ket0_plus0_composition(self):
        out = reverse(post_measurement_state(KET0, Outcome.PLUS_0), Outcome.PLUS_0)
        np.testing.assert_allclose(out.vector, np.array([3, 1]) / np.sqrt(10), atol=1e-13)

    def test_composition_equals_sqrt_effect(self):
        est = estimation_elements()
        for psi in random_states(9, 30):
            for o in Outcome:
                got = reverse(post_measurement_state(psi, o), o)
                s = eigh_sqrt(dagger(est.elements[o]) @ est.elements[o])
                expected = PureQubit.from_vector(s @ psi.vector)
                np.testing.assert_allclose(got.vector, expected.vector, atol=1e-12)

    def test_preserves_norm(self):
        for psi in random_states(10, 20):
            for o in Outcome:
                out = reverse(psi, o)
                assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-12


class TestReversedFidelity:
    def test_ket0_value(self):
        assert reversed_fidelity(KET0) == pytest.approx(13 / 15, abs=1e-13)

    def test_ket0_value_against_brute_force(self):
        # brute force over the four outcomes with an eigendecomposition sqrt
        est = estimation_elements()
        v = KET0.vector
        total = 0.0
        for o in Outcome:
            s = eigh_sqrt(dagger(est.elements[o]) @ est.elements[o])
            total += abs(np.vdot(v, s @ v)) ** 2
        assert reversed_fidelity(KET0) == pytest.approx(total, abs=1e-13)

    def test_never_below_clone_fidelity(self):
        a2 = np.linspace(0, 1, 41)[:, None]
        phi = 2 * np.pi * np.arange(41)[None, :] / 41
        surface = reversed_fidelity_plane(a2, phi)
        assert np.min(surface) >= 5 / 6 - 1e-12
        assert np.max(surface) <= 1.0 + 1e-12

    def test_plane_matches_scalar(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a2, phi = rng.random(), rng.random() * 2 * np.pi
            assert reversed_fidelity_plane(a2, phi) == pytest.approx(
                reversed_fidelity(make_pure(a2, phi)), abs=1e-12)
