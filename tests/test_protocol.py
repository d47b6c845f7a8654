import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonerestore import core, linalg, protocol
from clonerestore.cloning import (
    Outcome,
    estimation_elements,
    outcome_probability,
    post_measurement_state,
    reverse,
    reversed_fidelity,
    reversed_fidelity_plane,
)
from clonerestore.core import (
    MAXIMALLY_MIXED,
    PAULI_X,
    PAULI_Z,
    ErrorType,
    KrausChannel,
    PureQubit,
    error_channel,
    error_probabilities,
    make_pure,
)
from clonerestore.protocol import (
    alpha2_grid,
    analytic_fidelity,
    baseline_fidelity_plane,
    bloch_form,
    branch_counts,
    branch_statistics,
    correction_unitary,
    exact_fidelity,
    exact_fidelity_plane,
    grid_average,
    mc_estimates,
    mixed_input_fidelity,
    mixed_input_fidelity_plane,
    phi_grid,
    sample_branches,
    z_score,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = make_pure(1.0, 0.0)

ELEMENTS = np.array(
    [[[2, 1], [0, 1]], [[1, 0], [1, 2]], [[2, -1], [0, 1]], [[-1, 0], [1, -2]]],
    dtype=complex,
) / (2 * np.sqrt(3))


alpha2s = st.floats(min_value=0.0, max_value=1.0)
phis = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)
probabilities = st.floats(min_value=0.0, max_value=1.0)


def random_states(seed, n):
    rng = np.random.default_rng(seed)
    return [make_pure(rng.random(), rng.random() * 2 * np.pi) for _ in range(n)]


def eigh_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def oracle_correction(a, b):
    c = I2
    if a % 2 != b % 2:
        c = SX @ c
    if (a // 2) != (b // 2):
        c = SZ @ c
    return c


def oracle_exact_fidelity(v, p_bit, p_ph):
    """Stepwise enumeration built only from numpy primitives.

    Polar factors come from an eigendecomposition square root and an
    explicit inverse; every branch renormalizes its state explicitly.
    """
    paulis = [I2, SX, SZ, SX @ SZ]
    p_err = [(1 - p_bit) * (1 - p_ph), p_bit * (1 - p_ph), p_ph * (1 - p_bit), p_bit * p_ph]
    sqrts = [eigh_sqrt(e.conj().T @ e) for e in ELEMENTS]
    unitaries = [e @ np.linalg.inv(s) for e, s in zip(ELEMENTS, sqrts)]
    total = 0.0
    for a in range(4):
        wa = ELEMENTS[a] @ v
        pa = np.vdot(wa, wa).real
        sent = unitaries[a].conj().T @ wa / np.sqrt(pa)
        for e in range(4):
            if p_err[e] == 0.0:
                continue
            received = paulis[e] @ sent
            for b in range(4):
                wb = ELEMENTS[b] @ received
                pb = np.vdot(wb, wb).real
                final = oracle_correction(a, b) @ unitaries[b].conj().T @ wb / np.sqrt(pb)
                total += pa * p_err[e] * pb * abs(np.vdot(v, final)) ** 2
    return total


def stepwise_branch_statistics(psi, alice, error, bob):
    """``branch_statistics`` with the whole sender step in every branch,
    kept to pin the bits of the split into sender and receiver halves."""
    est = estimation_elements()
    after_alice = reverse(post_measurement_state(psi, alice), alice)
    w = error.operator @ after_alice.vector
    prob = float(np.real(np.vdot(w, est.effects[bob] @ w)))
    u = est.elements[bob] @ w
    final = protocol.correction_unitary(alice, bob) @ (linalg.dagger(est.reversal_unitaries[bob]) @ u)
    return prob, PureQubit.from_vector(final)


def per_branch_exact_fidelity(psi, p_bit, p_ph):
    """``exact_fidelity`` as one ``stepwise_branch_statistics`` call per branch."""
    v = psi.vector
    perr = error_probabilities(p_bit, p_ph)
    total = 0.0
    for alice in Outcome:
        p_a = outcome_probability(psi, alice)
        for error in ErrorType:
            if perr[error] == 0.0:
                continue
            for bob in Outcome:
                p_b, final = stepwise_branch_statistics(psi, alice, error, bob)
                overlap = abs(np.vdot(v, final.vector)) ** 2
                total += p_a * perr[error] * p_b * overlap
    return total


# the poles, the two exception points and random states
BIT_PIN_STATES = [(1.0, 0.0), (0.0, 0.0), (0.5, np.pi / 2), (0.5, 3 * np.pi / 2),
                  *((a2, 2 * np.pi * phi) for a2, phi in np.random.default_rng(30).random((16, 2)))]
BIT_PIN_RATES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                 *map(tuple, np.random.default_rng(31).random((2, 2)))]


def float_bits(*xs):
    return tuple(float(x).hex() for x in xs)


class TestCorrectionUnitary:
    def test_agreement_is_identity(self):
        np.testing.assert_array_equal(
            correction_unitary(Outcome.PLUS_0, Outcome.PLUS_0), I2)
        np.testing.assert_array_equal(
            correction_unitary(Outcome.MINUS_1, Outcome.MINUS_1), I2)

    def test_bit_disagreement_is_x(self):
        np.testing.assert_array_equal(
            correction_unitary(Outcome.PLUS_0, Outcome.PLUS_1), SX)

    def test_sign_disagreement_is_z(self):
        np.testing.assert_array_equal(
            correction_unitary(Outcome.PLUS_0, Outcome.MINUS_0), SZ)

    def test_double_disagreement_is_xz(self):
        np.testing.assert_array_equal(
            correction_unitary(Outcome.PLUS_0, Outcome.MINUS_1), SX @ SZ)

    def test_swapped_rule_exchanges_assignments(self, swapped_rule):
        np.testing.assert_array_equal(
            protocol.correction_unitary(Outcome.PLUS_0, Outcome.PLUS_1), SZ)
        np.testing.assert_array_equal(
            protocol.correction_unitary(Outcome.PLUS_0, Outcome.MINUS_0), SX)


class TestBranchStatistics:
    def test_spot_probability(self):
        p, _ = branch_statistics(KET0, Outcome.PLUS_0, ErrorType.NO_ERROR, Outcome.PLUS_0)
        assert p == pytest.approx(5 / 12, abs=1e-14)

    def test_outcome_agreement_identities(self):
        for psi in random_states(20, 100):
            stats = [branch_statistics(psi, Outcome.PLUS_0, ErrorType(i), Outcome(i))
                     for i in range(4)]
            p0, s0 = stats[0]
            for p, s in stats[1:]:
                assert p == pytest.approx(p0, abs=1e-12)
                assert np.max(np.abs(s.vector - s0.vector)) < 1e-12

    def test_bits_match_stepwise_branch(self):
        for a2, phi in BIT_PIN_STATES:
            psi = make_pure(a2, phi)
            for alice in Outcome:
                for error in ErrorType:
                    for bob in Outcome:
                        p, s = branch_statistics(psi, alice, error, bob)
                        p_ref, s_ref = stepwise_branch_statistics(psi, alice, error, bob)
                        assert float_bits(p, s.alpha, s.beta, s.phi) == float_bits(
                            p_ref, s_ref.alpha, s_ref.beta, s_ref.phi)

    def test_swapped_rule_breaks_state_identity(self, swapped_rule):
        psi = make_pure(0.7, 1.1)
        _, s0 = branch_statistics(psi, Outcome.PLUS_0, ErrorType.NO_ERROR, Outcome.PLUS_0)
        _, s1 = branch_statistics(psi, Outcome.PLUS_0, ErrorType.BIT_FLIP, Outcome.PLUS_1)
        assert np.max(np.abs(s0.vector - s1.vector)) > 1e-3


class TestExactFidelity:
    def test_error_rate_independence_example(self):
        for psi in random_states(1, 10):
            assert exact_fidelity(psi, 0.3, 0.7) == pytest.approx(
                exact_fidelity(psi, 0.0, 0.0), abs=1e-12)

    def test_ket0(self):
        for p_bit, p_ph in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.3)]:
            assert exact_fidelity(KET0, p_bit, p_ph) == pytest.approx(5 / 9, abs=1e-13)

    def test_exception_point(self):
        psi = make_pure(0.5, np.pi / 2)
        assert exact_fidelity(psi, 0.2, 0.9) == pytest.approx(0.5, abs=1e-13)

    def test_against_stepwise_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            psi = make_pure(rng.random(), rng.random() * 2 * np.pi)
            p_bit, p_ph = rng.random(), rng.random()
            assert exact_fidelity(psi, p_bit, p_ph) == pytest.approx(
                oracle_exact_fidelity(psi.vector, p_bit, p_ph), abs=1e-12)

    def test_bits_match_per_branch_enumeration(self):
        for a2, phi in BIT_PIN_STATES:
            psi = make_pure(a2, phi)
            for p_bit, p_ph in BIT_PIN_RATES:
                assert float_bits(exact_fidelity(psi, p_bit, p_ph)) == float_bits(
                    per_branch_exact_fidelity(psi, p_bit, p_ph))

    def test_swapped_rule_bits_match_per_branch_enumeration(self, swapped_rule):
        # the rule is looked up on every call, not cached across calls
        psi = make_pure(0.7, 1.1)
        assert float_bits(exact_fidelity(psi, 0.3, 0.6)) == float_bits(
            per_branch_exact_fidelity(psi, 0.3, 0.6))

    def test_plane_matches_scalar(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a2, phi = rng.random(), rng.random() * 2 * np.pi
            assert exact_fidelity_plane(a2, phi, 0.1, 0.6) == pytest.approx(
                exact_fidelity(make_pure(a2, phi), 0.1, 0.6), abs=1e-12)


PLANE_EVALUATORS = {
    "exact_fidelity_plane": exact_fidelity_plane,
    "mixed_input_fidelity_plane": mixed_input_fidelity_plane,
    "baseline_fidelity_plane": baseline_fidelity_plane,
    "analytic_fidelity": analytic_fidelity,
    "state_vector": core.state_vector,
    "reversed_fidelity_plane": reversed_fidelity_plane,
}


# one array rule (core._check_plane): no junk is coerced, warns or raises
# anything but a ValueError naming its argument; 10**400 is +inf, out of
# range; a list or tuple is read entry by entry, so a bool beside floats,
# which numpy alone reads as 1.0, is refused
@pytest.mark.parametrize("junk", [None, "0.5", True, 0.5 + 0j, 10**400, np.nan, np.inf, -np.inf,
                                  [True, 0.5], (0.5, None), [[0.5], [False]]],
                         ids=["None", "str", "bool", "complex", "10**400", "nan", "inf", "-inf",
                              "bool-in-list", "None-in-tuple", "bool-in-nested-list"])
@pytest.mark.parametrize("name", [*PLANE_EVALUATORS, "grid_average"])
def test_plane_arguments_follow_one_rule(name, junk):
    if name == "grid_average":
        calls = [("values", lambda: grid_average([[junk], [junk]])),
                 ("values", lambda: grid_average([[0.5, junk], [0.5, junk]]))]
    else:
        f = PLANE_EVALUATORS[name]
        calls = [("alpha2", lambda: f(junk, 0.0)), ("phi", lambda: f(0.5, junk))]
    for argument, call in calls:
        with pytest.raises(ValueError, match=f"^{argument} "):
            call()


class TestAnalyticFidelity:
    @pytest.mark.parametrize("alpha2,phi,expected", [
        (1.0, 0.0, 5 / 9),
        (0.5, 0.0, 13 / 18),
        (0.5, np.pi / 2, 0.5),
    ])
    def test_values(self, alpha2, phi, expected):
        assert analytic_fidelity(alpha2, phi) == pytest.approx(expected, abs=1e-14)

    def test_domain(self):
        # NaN fails every range comparison, so it needs its own rejection
        for f, args in [
            (analytic_fidelity, (1.5, 0.0)),
            (analytic_fidelity, (np.nan, 0.0)),
            (analytic_fidelity, (0.5, np.inf)),
            (baseline_fidelity_plane, (np.nan, 0.0)),
            (reversed_fidelity_plane, (np.nan, 0.0)),
            (exact_fidelity_plane, ([0.5, np.nan], 0.0)),
        ]:
            with pytest.raises(ValueError):
                f(*args)

    def test_one_return_convention(self):
        # the five plane evaluators: a numpy scalar for scalars, else an array
        evaluators = (analytic_fidelity, baseline_fidelity_plane, exact_fidelity_plane,
                      mixed_input_fidelity_plane, reversed_fidelity_plane)
        assert {type(f(0.3, 1.0)) for f in evaluators} == {np.float64}
        for f in evaluators:
            out = f(np.array([0.3, 0.7]), 1.0)
            assert type(out) is np.ndarray and out.shape == (2,)

    def test_coefficients_are_the_exact_form(self):
        # r^T G r with r = (1, x, y, z) on the sphere, where z = 2a - 1,
        # x^2 + y^2 = 4a(1 - a) and x^2 = 4a(1 - a) cos^2 phi
        g = protocol_form()
        assert all(g[k, m] == 0 for k in range(4) for m in range(4) if k != m)
        one, xx, yy, zz = np.diag(g)
        # coefficients of 1, a, a^2 and a(1 - a) cos^2 phi
        coefficients = (one + zz, 4 * yy - 4 * zz, 4 * zz - 4 * yy, 4 * (xx - yy))
        assert coefficients == (Fraction(5, 9), Fraction(-2, 9), Fraction(2, 9), Fraction(8, 9))
        c0, c1, c2, c3 = map(float, coefficients)
        for a, phi in [(0.0, 0.0), (0.3, 2.0), (0.5, np.pi / 3), (0.85, 5.5), (1.0, 1.0)]:
            assert analytic_fidelity(a, phi) == pytest.approx(
                c0 + c1 * a + c2 * a ** 2 + c3 * a * (1 - a) * np.cos(phi) ** 2, abs=1e-15)

    def test_matches_exact_on_grid(self):
        aa = alpha2_grid(41)[:, None]
        pp = phi_grid(41)[None, :]
        assert np.max(np.abs(exact_fidelity_plane(aa, pp) - analytic_fidelity(aa, pp))) < 1e-10


class TestMixedInputFidelity:
    def test_equals_exact_everywhere(self):
        for psi in random_states(2, 20):
            f = mixed_input_fidelity(psi)
            assert f == pytest.approx(exact_fidelity(psi, 0.0, 0.0), abs=1e-10)
            assert f == pytest.approx(exact_fidelity(psi, 0.4, 0.8), abs=1e-10)

    def test_ket0(self):
        assert mixed_input_fidelity(KET0) == pytest.approx(5 / 9, abs=1e-13)

    def test_equator(self):
        assert mixed_input_fidelity(make_pure(0.5, 0.0)) == pytest.approx(13 / 18, abs=1e-13)

    def test_plane_matches_scalar(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a2, phi = rng.random(), rng.random() * 2 * np.pi
            assert mixed_input_fidelity_plane(a2, phi) == pytest.approx(
                mixed_input_fidelity(make_pure(a2, phi)), abs=1e-12)


class TestBaseline:
    def test_pole(self):
        assert baseline_fidelity_plane(1.0, 0.0) == 1.0

    def test_equator(self):
        for phi in (0.0, 1.0, np.pi):
            assert baseline_fidelity_plane(0.5, phi) == pytest.approx(0.5, abs=1e-14)
        # the value ignores phi but takes the broadcast shape of both inputs
        np.testing.assert_allclose(baseline_fidelity_plane(np.array([[0.5]]), [0.0, 1.0, np.pi]),
                                   [[0.5, 0.5, 0.5]], atol=1e-14)


class TestPlaneAverage:
    def test_grid_bounds(self):
        with pytest.raises(ValueError, match="n_alpha must be at least 2"):
            alpha2_grid(1)
        with pytest.raises(ValueError, match="n_phi must be at least 1"):
            phi_grid(0)
        # a count must be an integer: 2.5 points is no grid, and True is not 1
        for n in (2.5, 3.0, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="n_alpha must be an integer"):
                alpha2_grid(n)
            with pytest.raises(ValueError, match="n_phi must be an integer"):
                phi_grid(n)
        np.testing.assert_array_equal(alpha2_grid(np.int64(3)), alpha2_grid(3))
        np.testing.assert_array_equal(phi_grid(np.int32(3)), phi_grid(3))

    def test_grid_conventions(self):
        a = alpha2_grid(5)
        np.testing.assert_allclose(a, [0.0, 0.25, 0.5, 0.75, 1.0])
        p = phi_grid(4)
        np.testing.assert_allclose(p, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_grid_average_weights(self):
        values = np.outer(alpha2_grid(11), np.ones(3))
        assert grid_average(values) == pytest.approx(0.5, abs=1e-14)

    def test_grid_average_shape(self):
        # the grid is the input's shape: a flat array is no grid, one alpha^2
        # row has no trapezoid, and no phi column has no mean
        for values in (np.ones(6), np.ones((1, 3)), np.ones((0, 3)), np.ones((2, 0)),
                       np.ones((2, 3, 1)), 0.5):
            with pytest.raises(ValueError, match="2-D grid"):
                grid_average(values)
        assert grid_average(np.array([[0.0], [1.0]])) == 0.5


def bloch_vectors(alpha2, phi):
    """r = (1, <X>, <Y>, <Z>) from the amplitude vectors."""
    v = np.stack([np.sqrt(alpha2) + 0j, np.sqrt(1 - alpha2) * np.exp(1j * phi)], axis=-1)
    paulis = [I2, SX, np.array([[0, -1j], [1j, 0]]), SZ]
    return np.stack([np.einsum("...i,ij,...j->...", v.conj(), s, v).real for s in paulis], axis=-1)


def form_values(form, alpha2, phi):
    r = bloch_vectors(alpha2, phi)
    return np.einsum("...k,kl,...l->...", r, form.astype(float), r)


def protocol_form(error=ErrorType.NO_ERROR):
    return bloch_form(protocol._branch_bank()[:, error], 120 ** 2)


BASELINE_FORM_OPS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


class TestBlochForm:
    def test_published_forms(self):
        for error in ErrorType:
            np.testing.assert_array_equal(
                protocol_form(error), np.diag([Fraction(n, 18) for n in (7, 6, 2, 3)]))
        np.testing.assert_array_equal(
            bloch_form(estimation_elements().sqrt_effects, 120),
            np.diag([Fraction(5, 6), Fraction(2, 15), 0, Fraction(1, 30)]))
        np.testing.assert_array_equal(
            bloch_form(BASELINE_FORM_OPS, 1), np.diag([Fraction(1, 2), 0, 0, Fraction(1, 2)]))
        assert all(type(x) is Fraction for x in protocol_form().ravel())

    def test_single_pauli(self):
        # |<v|Y|v>|^2 = y^2
        np.testing.assert_array_equal(
            bloch_form(np.array([[0, -1j], [1j, 0]]), 1), np.diag([0, 0, 1, 0]))

    @pytest.mark.parametrize("ops, scale2", [
        (ELEMENTS, 1),                          # the elements need scale2 = 12
        (ELEMENTS, 11),
        (estimation_elements().sqrt_effects, 12),
        (np.full((2, 2), np.nan), 1),
        (np.full((2, 2), np.inf), 1),
        (I2 * (1 + 1e-6), 1),
    ])
    def test_rejects_non_integer_coefficients(self, ops, scale2):
        with pytest.raises(ValueError, match="Gaussian integers"):
            bloch_form(ops, scale2)

    def test_input_contract(self):
        np.testing.assert_array_equal(bloch_form(ELEMENTS, 12), bloch_form(ELEMENTS, np.int64(12)))
        # numerators past int64: the sums are Python integers
        assert bloch_form(I2 * 2.0 ** 40, 1)[0, 0] == 2 ** 80
        assert bloch_form(I2, 2 ** 70)[0, 0] == 1
        assert bloch_form(I2, 2 ** 1022)[0, 0] == 1
        # 10**400 and 2**1024 lie beyond the double range that math.sqrt takes
        for scale2 in (0, -4, 1.0, True, "1", 10**400, 2**1024):
            with pytest.raises(ValueError, match="^scale2 "):
                bloch_form(I2, scale2)
        for ops in (np.ones(2), np.ones((3, 3)), np.ones((2, 2, 3))):
            with pytest.raises(ValueError, match="shape"):
                bloch_form(ops, 1)


class TestProtocolProperties:
    @given(alpha2=alpha2s, phi=phis, p_bit=probabilities, p_ph=probabilities)
    @settings(max_examples=60, deadline=None)
    def test_bloch_forms_match_planes(self, alpha2, phi, p_bit, p_ph):
        protocol_value = form_values(protocol_form(), alpha2, phi)
        assert exact_fidelity_plane(alpha2, phi, p_bit, p_ph) == pytest.approx(
            protocol_value, abs=1e-12)
        assert mixed_input_fidelity_plane(alpha2, phi) == pytest.approx(protocol_value, abs=1e-12)
        reversed_form = bloch_form(estimation_elements().sqrt_effects, 120)
        assert reversed_fidelity_plane(alpha2, phi) == pytest.approx(
            form_values(reversed_form, alpha2, phi), abs=1e-12)
        assert baseline_fidelity_plane(alpha2, phi) == pytest.approx(
            form_values(bloch_form(BASELINE_FORM_OPS, 1), alpha2, phi), abs=1e-12)

    @given(alpha2=alpha2s, phi=phis, p_bit=probabilities, p_ph=probabilities)
    @settings(max_examples=60, deadline=None)
    def test_exact_fidelity_bounds_and_routes(self, alpha2, phi, p_bit, p_ph):
        psi = make_pure(alpha2, phi)
        f = exact_fidelity(psi, p_bit, p_ph)
        assert 0.5 - 1e-12 <= f <= 13 / 18 + 1e-12
        assert f == pytest.approx(analytic_fidelity(alpha2, phi), abs=1e-12)
        assert f == pytest.approx(mixed_input_fidelity(psi), abs=1e-12)

    @given(alpha2=alpha2s, phi=phis)
    def test_reversed_fidelity_floor(self, alpha2, phi):
        assert reversed_fidelity(make_pure(alpha2, phi)) >= 5 / 6 - 1e-12

    @given(alpha2=alpha2s, phi=phis, p_bit=probabilities, p_ph=probabilities,
           seed=st.integers(0, 2**32 - 1))
    def test_trajectory_final_in_canonical_gauge(self, alpha2, phi, p_bit, p_ph, seed):
        psi = make_pure(alpha2, phi)
        overlaps, branches = next(sample_branches(psi.vector[None], p_bit, p_ph, 1,
                                                  (np.random.default_rng(seed),)))
        branch = branches[0]
        a, e, b = np.unravel_index(branch, (4, 4, 4))
        _, out = branch_statistics(psi, Outcome(a), ErrorType(e), Outcome(b))
        assert out.alpha >= 0.0 and out.beta >= 0.0
        assert out.alpha ** 2 + out.beta ** 2 == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= out.phi < 2 * np.pi
        if out.alpha == 0.0 or out.beta == 0.0:
            assert out.phi == 0.0
        # the drawn branch operator's action on psi, up to a global phase
        w = protocol._branch_bank()[a, e, b] @ psi.vector
        assert abs(np.vdot(out.vector, w)) ** 2 / np.vdot(w, w).real == pytest.approx(1.0, abs=1e-12)
        assert overlaps[branch] == pytest.approx(abs(np.vdot(psi.vector, out.vector)) ** 2,
                                                 abs=1e-12)


def test_branch_operators_are_invertible():
    # a unit vector's branch weight |M v|^2 is at least M's least squared
    # singular value, so the sampler's overlap tables never divide by 0
    singular = np.linalg.svd(protocol._branch_bank(), compute_uv=False)
    assert singular.shape == (4, 4, 4, 2)
    assert np.min(singular[..., -1]) ** 2 >= 0.004


class TestSharedArrays:
    def test_in_place_writes_raise(self):
        est = estimation_elements()
        assert isinstance(est, KrausChannel) and len(est) == 4
        ch = error_channel(0.2, 0.3)
        shared = [PAULI_X, PAULI_Z, MAXIMALLY_MIXED, *(e.operator for e in ErrorType),
                  est.elements, est.effects, est.reversal_unitaries, est.sqrt_effects,
                  ch.elements, ch.effects, protocol._branch_bank(), protocol._form_bank(),
                  core._PAULI_BASIS, linalg.IDENTITY,
                  *(correction_unitary(a, b) for a in Outcome for b in Outcome)]
        for arr in shared:
            before = arr.copy()
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
            np.testing.assert_array_equal(arr, before)
        np.testing.assert_array_equal(correction_unitary(Outcome.PLUS_0, Outcome.PLUS_1), SX)
        assert len(error_channel(0.3, 0.6)) == 4
        # a channel keeps a copy, so the caller's own array stays writable
        mine = np.eye(2, dtype=complex)[None]
        KrausChannel(mine)
        mine *= 1


def draw(psi, p_bit, p_ph, trials, seed):
    """``sample_branches`` at the one state psi: (overlaps, branches)."""
    return next(sample_branches(psi.vector[None], p_bit, p_ph, trials,
                                (np.random.default_rng(seed),)))


class TestRunTrajectory:
    """One protocol run is one branch that ``sample_branches`` draws."""

    @pytest.mark.parametrize("p_bit, p_ph", [(0.0, 0.0), (1.0, 1.0), (0.3, 0.6)])
    def test_one_trial_of_the_mc_sampler(self, p_bit, p_ph):
        # protocol.run_trajectory, which perfbench/probe.py calls
        for k, (a2, phi) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.5, np.pi / 2), (0.3, 2.0)]):
            psi = make_pure(a2, phi)
            rng, sampler_rng = np.random.default_rng(60 + k), np.random.default_rng(60 + k)
            for _ in range(20):
                branch = protocol.run_trajectory(psi, p_bit, p_ph, rng)
                _, branches = next(sample_branches(psi.vector[None], p_bit, p_ph, 1,
                                                   (sampler_rng,)))
                assert branch == branches[0]
                assert rng.bit_generator.state == sampler_rng.bit_generator.state

    def test_final_is_the_branch_state(self):
        # the constructive route: measure, reverse, error, measure, reverse,
        # correct; the sampler's overlap table agrees with it
        for a2, phi in [(1.0, 0.0), (0.6, 0.5), (0.2, 4.0)]:
            psi = make_pure(a2, phi)
            overlaps, branches = draw(psi, 0.4, 0.7, 20, 6)
            for branch, a, e, b in zip(branches, *np.unravel_index(branches, (4, 4, 4))):
                _, final = branch_statistics(psi, Outcome(a), ErrorType(e), Outcome(b))
                w = protocol._branch_bank()[a, e, b] @ psi.vector
                np.testing.assert_allclose(final.vector, PureQubit.from_vector(w).vector,
                                           atol=1e-12)
                assert overlaps[branch] == pytest.approx(
                    abs(np.vdot(psi.vector, final.vector)) ** 2, abs=1e-12)

    def test_seed_determinism(self):
        psi = make_pure(0.4, 2.2)
        a = draw(psi, 0.3, 0.6, 50, 77)
        b = draw(psi, 0.3, 0.6, 50, 77)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_certain_bit_flip_always_drawn(self):
        _, branches = draw(make_pure(0.8, 0.3), 1.0, 0.0, 50, 1)
        errors = np.unravel_index(branches, (4, 4, 4))[1]
        assert (errors == ErrorType.BIT_FLIP).all()

    def test_overlap_in_unit_interval(self):
        overlaps, branches = draw(make_pure(0.6, 5.0), 0.2, 0.7, 200, 2)
        sample = overlaps.take(branches)
        assert (sample >= 0.0).all() and (sample <= 1.0 + 1e-12).all()

    def test_mean_overlap_converges_to_exact(self):
        n = 20000
        overlaps, branches = draw(KET0, 0.0, 0.0, n, 3)
        sample = overlaps.take(branches)
        stderr = sample.std(ddof=1) / np.sqrt(n)
        assert abs(sample.mean() - 5 / 9) <= 4 * stderr

    def test_outcome_frequencies_match_branch_probabilities(self):
        psi = make_pure(0.3, 0.9)
        p_bit, p_ph = 0.25, 0.5
        n = 4000
        _, branches = draw(psi, p_bit, p_ph, n, 4)
        counts = np.bincount(branches, minlength=64).reshape(4, 4, 4)
        p_err = [(1 - p_bit) * (1 - p_ph), p_bit * (1 - p_ph),
                 p_ph * (1 - p_bit), p_bit * p_ph]
        for a in range(4):
            pa = outcome_probability(psi, Outcome(a))
            for e in range(4):
                for b in range(4):
                    pb, _ = branch_statistics(psi, Outcome(a), ErrorType(e), Outcome(b))
                    expected = pa * p_err[e] * pb
                    sigma = np.sqrt(expected * (1 - expected) / n)
                    assert abs(counts[a, e, b] / n - expected) <= 5 * sigma + 1e-12


class TestMcEstimate:
    """One state at a time: ``mc_estimates`` on a one-row stack."""

    def test_determinism(self):
        row = make_pure(0.7, 1.0).vector[None]
        a = mc_estimates(row, 0.1, 0.2, 5000, (np.random.default_rng(5),))
        b = mc_estimates(row, 0.1, 0.2, 5000, (np.random.default_rng(5),))
        np.testing.assert_array_equal(a, b)

    def test_consistency_with_exact(self):
        rng = np.random.default_rng(6)
        for a2, phi in [(1.0, 0.0), (0.5, np.pi / 2), (0.3, 2.0)]:
            psi = make_pure(a2, phi)
            (mean,), (stderr,) = mc_estimates(psi.vector[None], 0.2, 0.4, 50000, (rng,))
            exact = exact_fidelity(psi, 0.2, 0.4)
            assert stderr >= 0.0
            assert abs(mean - exact) <= 4 * max(stderr, 1e-12)

    def test_result_fields(self):
        # protocol.mc_estimate, which perfbench/probe.py calls
        res = protocol.mc_estimate(KET0, 0.0, 0.0, 100, np.random.default_rng(7))
        (mean,), (stderr,) = mc_estimates(KET0.vector[None], 0.0, 0.0, 100,
                                          (np.random.default_rng(7),))
        assert res == (mean, stderr)

    def test_trials_domain(self):
        with pytest.raises(ValueError):
            protocol.mc_estimate(KET0, 0.0, 0.0, 0, np.random.default_rng(0))
        for trials in (2.5, True, 100.0, "10"):
            with pytest.raises(ValueError, match="trials must be an integer"):
                protocol.mc_estimate(KET0, 0.0, 0.0, trials, np.random.default_rng(0))

    def test_z_score(self):
        assert z_score(0.6, 0.05, 0.5) == pytest.approx(2.0)
        assert z_score(0.5 + 1e-13, 0.0, 0.5) == 0.0
        assert z_score(0.5 + 1e-9, 0.0, 0.5) == float("inf")

    @pytest.mark.parametrize("stderr", [-1.0, -1e-300, np.nan, np.inf, -np.inf,
                                        pytest.param(10**400, id="10**400"),
                                        True, "0.1", np.array([0.1, 0.2])])
    def test_z_score_stderr_domain(self, stderr):
        # a negative error used to give inf or a sign-flipped z, not an error
        with pytest.raises(ValueError, match="stderr"):
            z_score(0.5, stderr, 0.4)

    # a mean or exact value that is not a finite real number has no z-score
    @pytest.mark.parametrize("stderr", [0.1, 0.0])
    @pytest.mark.parametrize("mean, exact, name", [
        (np.nan, 0.5, "mean"), (np.inf, 0.5, "mean"), ("0.5", 0.5, "mean"), (True, 0.5, "mean"),
        (0.5, np.nan, "exact"), (0.5, -np.inf, "exact"), (0.5, np.array([0.5]), "exact")])
    def test_z_score_mean_and_exact_domain(self, mean, exact, name, stderr):
        with pytest.raises(ValueError, match=f"^{name} must be a "):
            z_score(mean, stderr, exact)


def _reference_mc(psi, p_bit, p_ph, trials, rng):
    """Reference sampler: searchsorted draws on one state's own branch
    tables, from three ``rng.random(trials)`` calls. Returns the 64 branch
    overlaps and the branch counts of the runs."""
    v = psi.vector
    amps = np.einsum("aebij,j->aebi", protocol._branch_bank(), v)
    norms2 = np.sum(np.abs(amps) ** 2, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        overlaps = np.abs(np.einsum("i,aebi->aeb", v.conj(), amps)) ** 2 / norms2
    overlaps = np.nan_to_num(overlaps)
    p_alice = norms2[:, 0, :].sum(axis=-1)
    p_err = [(1 - p_bit) * (1 - p_ph), p_bit * (1 - p_ph), p_ph * (1 - p_bit), p_bit * p_ph]
    cond_bob = norms2 / p_alice[:, None, None]
    a = np.minimum(np.searchsorted(np.cumsum(p_alice), rng.random(trials) * p_alice.sum(),
                                   side="right"), 3)
    e = np.minimum(np.searchsorted(np.cumsum(p_err), rng.random(trials), side="right"), 3)
    rows = np.cumsum(cond_bob[a, e, :], axis=1)
    b = np.minimum(np.sum(rows <= (rng.random(trials) * rows[:, -1])[:, None], axis=1), 3)
    return overlaps.ravel(), np.bincount(16 * a + 4 * e + b, minlength=64)


def exact_estimates(overlaps, counts):
    """The exact mean, a Fraction, and the standard error, to 40 digits, of
    runs with these 64 branch overlaps and counts."""
    trials = int(counts.sum())
    terms = [(int(c), Fraction(float(o))) for c, o in zip(counts, overlaps)]
    mean = sum(c * o for c, o in terms) / trials
    if trials == 1:
        return mean, Fraction(0)
    var = sum(c * (o - mean) ** 2 for c, o in terms) / ((trials - 1) * trials)
    digits = Context(prec=40)
    return mean, Fraction(digits.sqrt(digits.divide(Decimal(var.numerator),
                                                    Decimal(var.denominator))))


class TestMcEstimates:
    # the poles, the equator at phi = pi/2 and two generic states
    STATES = [(0.0, 0.0), (1.0, 0.0), (0.5, np.pi / 2), (0.3, 2.0), (0.85, 5.5)]

    # 10_007 trials are drawn in chunks
    @pytest.mark.parametrize("p_bit, p_ph", [(0.0, 0.0), (1.0, 1.0), (0.3, 0.6)])
    @pytest.mark.parametrize("trials", [1, 2, 2000, 10_007])
    def test_batched_matches_single_points(self, p_bit, p_ph, trials):
        # each state's counts and final generator state are the reference
        # sampler's exactly; its mean and standard error are those of the
        # counts to 2**-52
        psis = [make_pure(a2, phi) for a2, phi in self.STATES]
        vectors = np.stack([psi.vector for psi in psis])
        count_rngs = [np.random.default_rng(40 + k) for k in range(len(psis))]
        overlaps, counts = branch_counts(vectors, p_bit, p_ph, trials, iter(count_rngs))
        means, stderrs = mc_estimates(vectors, p_bit, p_ph, trials,
                                      (np.random.default_rng(40 + k) for k in range(len(psis))))
        for k, psi in enumerate(psis):
            reference_rng = np.random.default_rng(40 + k)
            reference_overlaps, reference_counts = _reference_mc(psi, p_bit, p_ph, trials,
                                                                 reference_rng)
            np.testing.assert_array_equal(overlaps[k], reference_overlaps)
            np.testing.assert_array_equal(counts[k], reference_counts)
            assert count_rngs[k].bit_generator.state == reference_rng.bit_generator.state
            mean, stderr = exact_estimates(overlaps[k], counts[k])
            assert abs(Fraction(means[k]) - mean) <= 2 ** -52
            assert abs(Fraction(stderrs[k]) - stderr) <= 2 ** -52

    @pytest.mark.parametrize("trials", [1, 2000, 10_000])
    def test_shared_generator_matches_one_call_at_a_time(self, trials):
        # the sampler draws state by state, so one generator may serve a stack
        vectors = np.stack([make_pure(a2, phi).vector for a2, phi in self.STATES])
        shared, single = np.random.default_rng(41), np.random.default_rng(41)
        means, stderrs = mc_estimates(vectors, 0.3, 0.6, trials, (shared,) * len(vectors))
        for k, v in enumerate(vectors):
            (mean,), (stderr,) = mc_estimates(v[None], 0.3, 0.6, trials, (single,))
            assert (means[k], stderrs[k]) == (mean, stderr)
        assert shared.bit_generator.state == single.bit_generator.state

    def test_lazy_generators(self):
        vectors = np.stack([make_pure(a2, phi).vector for a2, phi in self.STATES])
        eager = mc_estimates(vectors, 0.2, 0.7, 300,
                             [np.random.default_rng(k) for k in range(len(vectors))])
        lazy = mc_estimates(vectors, 0.2, 0.7, 300,
                            (np.random.default_rng(k) for k in range(len(vectors))))
        np.testing.assert_array_equal(eager[0], lazy[0])
        np.testing.assert_array_equal(eager[1], lazy[1])

    def test_generator_count_must_match(self):
        vectors = np.stack([KET0.vector, make_pure(0.4, 1.0).vector])
        for count in (0, 1, 3):
            with pytest.raises(ValueError):
                mc_estimates(vectors, 0.1, 0.2, 10, (np.random.default_rng(k) for k in range(count)))

    def test_input_contract(self):
        rng = np.random.default_rng(0)
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials"):
                mc_estimates(KET0.vector[None], 0.0, 0.0, trials, [rng])
        for trials in (2.5, True, 100.0, "10"):
            with pytest.raises(ValueError, match="trials must be an integer"):
                mc_estimates(KET0.vector[None], 0.0, 0.0, trials, [rng])
        # beyond 2**53 a branch count is not exact as a double; 2**53 itself
        # passes the checks at the call, and nothing is drawn without next()
        for trials in (2**53 + 1, 10**20):
            for sampler in (sample_branches, branch_counts, mc_estimates):
                with pytest.raises(ValueError, match=r"trials must be at most 2\*\*53"):
                    sampler(KET0.vector[None], 0.0, 0.0, trials, [rng])
        sample_branches(KET0.vector[None], 0.0, 0.0, 2**53, [rng])
        # [[1e200, 0]] is finite, but its square overflows
        for vectors in (KET0.vector, np.ones((1, 3)), np.zeros((1, 2)), [[1.0, 1.0]],
                        [[np.nan, 0.0]], [[1e200, 0.0]]):
            with pytest.raises(ValueError, match="vectors"):
                mc_estimates(vectors, 0.0, 0.0, 10, [rng])
        with pytest.raises(ValueError, match="p_bit"):
            mc_estimates(KET0.vector[None], 1.5, 0.0, 10, [rng])

    def test_empty_stack(self):
        empty = np.zeros((0, 2))
        means, stderrs = mc_estimates(empty, 0.1, 0.2, 10, iter(()))
        assert means.shape == stderrs.shape == (0,)
        assert list(sample_branches(empty, 0.1, 0.2, 10, iter(()))) == []

    def test_sample_branches_checks_at_the_call(self):
        # no next(): the checks come at the call, the tables only with the
        # first draw
        rng = np.random.default_rng(0)
        for vectors, p_bit, trials, what in ((KET0.vector[None], 0.0, 0, "trials"),
                                             (np.zeros(3), 0.0, 10, "vectors"),
                                             ([[1.0, 1.0]], 0.0, 10, "vectors"),
                                             (KET0.vector[None], 1.5, 10, "p_bit")):
            with pytest.raises(ValueError, match=what):
                sample_branches(vectors, p_bit, 0.0, trials, [rng])
        with pytest.raises(ValueError, match="trials"):
            sample_branches(np.zeros(3), 0, 0, 0, [])


class TestSamplerBlocks:
    """A stack drawn in blocks of states gives each state's own draws, bit for bit."""

    # poles, the equator and generic states, with rates that leave zero-width
    # steps in the cumulative error table
    VECTORS = core.state_vector(np.linspace(0.0, 1.0, 41), 0.7 * np.arange(41))

    @staticmethod
    def per_state(vectors, trials, seeds):
        """(overlaps, branches, mean, stderr, final generator state) per state."""
        out = []
        for v, seed in zip(vectors, seeds):
            rng, mc_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            overlaps, branches = next(sample_branches(v[None], 0.3, 0.0, trials, (rng,)))
            (mean,), (stderr,) = mc_estimates(v[None], 0.3, 0.0, trials, (mc_rng,))
            assert mc_rng.bit_generator.state == rng.bit_generator.state
            out.append((overlaps, branches, mean, stderr, rng.bit_generator.state))
        return out

    def check_stack(self, n_states, trials):
        """The first n_states of VECTORS drawn as one stack match their per-state draws."""
        vectors = self.VECTORS[:n_states]
        seeds = [np.random.SeedSequence((11, k)) for k in range(n_states)]
        expected = self.per_state(vectors, trials, seeds)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        drawn = list(sample_branches(vectors, 0.3, 0.0, trials, iter(rngs)))
        mc_rngs = (np.random.default_rng(seed) for seed in seeds)
        means, stderrs = mc_estimates(vectors, 0.3, 0.0, trials, mc_rngs)
        assert len(drawn) == n_states
        for k, (overlaps, branches, mean, stderr, state) in enumerate(expected):
            assert drawn[k][1].dtype == np.intp and drawn[k][1].shape == (trials,)
            np.testing.assert_array_equal(drawn[k][0], overlaps)
            np.testing.assert_array_equal(drawn[k][1], branches)
            assert (means[k], stderrs[k]) == (mean, stderr)
            assert rngs[k].bit_generator.state == state

    # 41 states at 1000 trials span several full blocks and a partial last
    # one; more trials than a block holds put one state in each block; a
    # block of 3 draws makes 1 and 2 trials span blocks too
    @pytest.mark.parametrize("n_states, trials, block_draws", [
        (41, 1000, None), (41, 1, None), (41, 2, None), (41, 1, 3), (41, 2, 3),
        (3, protocol._BLOCK_DRAWS + 1, None)])
    def test_stack_matches_per_state(self, monkeypatch, n_states, trials, block_draws):
        if block_draws is not None:
            monkeypatch.setattr(protocol, "_BLOCK_DRAWS", block_draws)
        self.check_stack(n_states, trials)

    # table chunks of 3 and 5 states cap the blocks, and the 41 states end
    # off the block boundaries of the default chunk
    @pytest.mark.parametrize("table_states", [3, 5])
    @pytest.mark.parametrize("trials", [1000, 2, protocol._BLOCK_DRAWS + 1])
    def test_chunked_stack_matches_per_state(self, monkeypatch, trials, table_states):
        monkeypatch.setattr(protocol, "_TABLE_STATES", table_states)
        self.check_stack(41, trials)

    def test_generators_are_drawn_one_block_ahead_at_most(self):
        per_block = protocol._BLOCK_DRAWS // 1000
        made = []

        def rngs():
            for k in range(len(self.VECTORS)):
                made.append(k)
                yield np.random.default_rng(k)

        for n, _ in enumerate(sample_branches(self.VECTORS, 0.3, 0.0, 1000, rngs())):
            assert n < len(made) <= (n // per_block + 1) * per_block

    @pytest.mark.parametrize("trials", [1000, 2, protocol._BLOCK_DRAWS + 1])
    def test_tables_are_built_a_chunk_at_a_time(self, monkeypatch, trials):
        branch_tables, seen = protocol._branch_tables, []

        def spy(v):
            seen.append(len(v))
            return branch_tables(v)

        monkeypatch.setattr(protocol, "_branch_tables", spy)
        vectors = core.state_vector(np.linspace(0.0, 1.0, 300), 0.3 * np.arange(300))
        for sampler in (sample_branches, mc_estimates):
            seen.clear()
            rngs = (np.random.default_rng(k) for k in range(len(vectors)))
            list(sampler(vectors, 0.3, 0.0, trials, rngs))
            assert sum(seen) == len(vectors)
            assert max(seen) <= protocol._TABLE_STATES

    @pytest.mark.parametrize("count", [40, 42])
    def test_generator_count_across_blocks(self, count):
        for sampler in (sample_branches, mc_estimates):
            rngs = (np.random.default_rng(k) for k in range(count))
            with pytest.raises(ValueError):
                list(sampler(self.VECTORS, 0.3, 0.0, 1000, rngs))


class TestBranchCounts:
    """Each state's runs reduced to 64 branch counts, in memory that does
    not grow with the trial count."""

    VECTORS = TestSamplerBlocks.VECTORS

    @pytest.mark.parametrize("trials", [1, 2000, protocol._BLOCK_DRAWS + 1])
    def test_counts_are_the_bincount_of_the_sampled_branches(self, trials):
        overlaps, counts = branch_counts(self.VECTORS, 0.3, 0.0, trials,
                                         (np.random.default_rng(k) for k in range(41)))
        assert counts.dtype == np.int64 and counts.shape == overlaps.shape == (41, 64)
        assert (counts.sum(axis=1) == trials).all()
        drawn = sample_branches(self.VECTORS, 0.3, 0.0, trials,
                                (np.random.default_rng(k) for k in range(41)))
        for k, (row, branches) in enumerate(drawn):
            np.testing.assert_array_equal(overlaps[k], row)
            np.testing.assert_array_equal(counts[k], np.bincount(branches, minlength=64))

    def test_memory_does_not_grow_with_trials(self):
        # a million runs held as one sample would take about 57 MB
        protocol._branch_bank()
        tracemalloc.start()
        try:
            mc_estimates(KET0.vector[None], 0.1, 0.2, 10**6, (np.random.default_rng(0),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    # 2000 runs are one block by default and chunks of 3 or 1000 runs here
    @pytest.mark.parametrize("block_draws", [3, 1000])
    @pytest.mark.parametrize("stack", ["one state", "five states", "one shared generator"])
    def test_chunked_draws_match_the_default(self, monkeypatch, block_draws, stack):
        vectors = self.VECTORS[:1] if stack == "one state" else self.VECTORS[:5]

        def run():
            if stack == "one shared generator":
                count_rngs = (np.random.default_rng(9),) * 5
                mc_rngs = (np.random.default_rng(9),) * 5
            else:
                count_rngs = [np.random.default_rng(9 + k) for k in range(len(vectors))]
                mc_rngs = [np.random.default_rng(9 + k) for k in range(len(vectors))]
            overlaps, counts = branch_counts(vectors, 0.3, 0.6, 2000, count_rngs)
            means, stderrs = mc_estimates(vectors, 0.3, 0.6, 2000, mc_rngs)
            finals = [rng.bit_generator.state for rng in (*count_rngs, *mc_rngs)]
            return overlaps, counts, means, stderrs, finals

        expected = run()
        monkeypatch.setattr(protocol, "_BLOCK_DRAWS", block_draws)
        actual = run()
        for a, b in zip(actual[:4], expected[:4]):
            np.testing.assert_array_equal(a, b)
        assert actual[4] == expected[4]

    # the float32 draw leaves half of a 64-bit draw buffered, which three
    # random(trials) calls keep
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_chunks_match_three_calls(self, bit_generator):
        psi = make_pure(0.3, 2.0)
        rng, reference_rng = (np.random.Generator(bit_generator(3)) for _ in range(2))
        for g in (rng, reference_rng):
            g.random(dtype=np.float32)
        _, counts = branch_counts(psi.vector[None], 0.3, 0.6, 10_007, (rng,))
        reference = _reference_mc(psi, 0.3, 0.6, 10_007, reference_rng)
        np.testing.assert_array_equal(counts[0], reference[1])
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    # MT19937 and SFC64 have no advance, and Philox's steps four draws at a
    # time, so chunks could not continue their streams; not even a single
    # block draws from them, so the result never depends on the trial count
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                               np.random.Philox])
    @pytest.mark.parametrize("trials", [10, protocol._BLOCK_DRAWS + 1])
    def test_other_bit_generators_are_rejected(self, bit_generator, trials):
        for sampler in (sample_branches, branch_counts, mc_estimates):
            rng = np.random.Generator(bit_generator(0))
            with pytest.raises(ValueError, match="rngs"):
                list(sampler(KET0.vector[None], 0.1, 0.2, trials, (rng,)))
            # nothing was drawn
            assert rng.random() == np.random.Generator(bit_generator(0)).random()
