import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clonerestore.core import (
    KrausChannel,
    PureQubit,
    apply_channel,
    error_channel,
    fidelity,
    make_pure,
    reduce_qubit,
    state_vector,
)
from clonerestore.linalg import (
    dagger,
    det2,
    haar_random_unitary,
    hs_distance,
    is_hermitian,
    is_psd,
    is_unitary,
    nearest_unitary,
    polar_decompose,
    random_invertible,
    sqrtm_psd,
)

I2 = np.eye(2, dtype=complex)

# the four estimation elements and the frozen factors they decompose into
ELEMENTS = np.array(
    [[[2, 1], [0, 1]], [[1, 0], [1, 2]], [[2, -1], [0, 1]], [[-1, 0], [1, -2]]],
    dtype=complex,
) / (2 * np.sqrt(3))

E0_UNITARY = np.array([[3, 1], [-1, 3]], dtype=complex) / np.sqrt(10)
E0_HERMITIAN = np.array([[3, 1], [1, 2]], dtype=complex) / np.sqrt(30)
E3_UNITARY = dagger(np.array([[-3, 1], [-1, -3]], dtype=complex) / np.sqrt(10))


def entrywise_distance(a, b):
    """Brute-force Hilbert-Schmidt distance over explicit entries."""
    total = 0.0
    for i in range(2):
        for j in range(2):
            d = complex(a[i][j]) - complex(b[i][j])
            total += d.real * d.real + d.imag * d.imag
    return total ** 0.5


class TestHsDistance:
    def test_identical_matrices(self):
        a = np.array([[1, 2j], [3, 4]], dtype=complex)
        assert hs_distance(a, a) == 0.0

    def test_identity_to_zero(self):
        assert hs_distance(I2, np.zeros((2, 2))) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_matches_entrywise_oracle(self):
        got = hs_distance(ELEMENTS[0], E0_UNITARY)
        assert got == pytest.approx(entrywise_distance(ELEMENTS[0], E0_UNITARY), abs=1e-14)

    # one pair of 2x2 matrices: any other shape, a stack included, is refused
    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 2, 2)], ids=str)
    def test_wrong_shape_rejected(self, shape):
        got = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"^a must have shape \(2, 2\), got {got}$"):
            hs_distance(np.ones(shape), np.ones(shape))
        with pytest.raises(ValueError, match=rf"^b must have shape \(2, 2\), got {got}$"):
            hs_distance(I2, np.ones(shape))

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_invertible(rng), random_invertible(rng)
            assert hs_distance(a, b) == pytest.approx(hs_distance(b, a), abs=1e-13)
            assert hs_distance(a, b) == pytest.approx(entrywise_distance(a, b), abs=1e-12)


class TestSqrtmPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(sqrtm_psd(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_singular_psd(self):
        np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14)

    def test_squares_back_on_random_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = g @ dagger(g)
            r = sqrtm_psd(a)
            assert is_psd(r)
            np.testing.assert_allclose(r @ r, a, atol=1e-12)


class TestPolarDecompose:
    def test_identity(self):
        u, p = polar_decompose(I2)
        np.testing.assert_allclose(u, I2, atol=1e-14)
        np.testing.assert_allclose(p, I2, atol=1e-14)

    def test_positive_diagonal(self):
        u, p = polar_decompose(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(u, I2, atol=1e-14)
        np.testing.assert_allclose(p, np.diag([2.0, 1.0]), atol=1e-14)

    def test_first_element_closed_form(self):
        u, p = polar_decompose(ELEMENTS[0])
        np.testing.assert_allclose(u, E0_UNITARY, atol=1e-13)
        np.testing.assert_allclose(p, E0_HERMITIAN, atol=1e-13)
        # verify the frozen factors themselves by direct multiplication
        np.testing.assert_allclose(E0_UNITARY @ E0_HERMITIAN, ELEMENTS[0], atol=1e-15)
        np.testing.assert_allclose(
            E0_HERMITIAN @ E0_HERMITIAN, dagger(ELEMENTS[0]) @ ELEMENTS[0], atol=1e-15)

    def test_singular_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            polar_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_roundtrip_on_random_invertible(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            e = random_invertible(rng)
            u, p = polar_decompose(e)
            assert is_unitary(u)
            assert is_hermitian(p)
            assert is_psd(p)
            assert np.max(np.abs(u @ p - e)) < 1e-12

    def test_verify_seed_318_matrices(self):
        # the draws of verify's polar-decomposition-roundtrip check at
        # --seed 318 (check index 2); u^dag u - I reached 3.95e-12 when u
        # was computed as e @ inv(p)
        rng = np.random.default_rng(np.random.SeedSequence((318, 2)))
        for _ in range(1000):
            e = random_invertible(rng)
            u, p = polar_decompose(e)
            assert np.max(np.abs(dagger(u) @ u - I2)) <= 1e-12
            assert np.max(np.abs(u @ p - e)) <= 1e-12
            assert np.max(np.abs(p - dagger(p))) <= 1e-12


class TestNearestUnitary:
    def test_first_element(self):
        np.testing.assert_allclose(nearest_unitary(ELEMENTS[0]), E0_UNITARY, atol=1e-13)

    def test_last_element(self):
        np.testing.assert_allclose(nearest_unitary(ELEMENTS[3]), E3_UNITARY, atol=1e-13)

    def test_unitary_is_its_own_approximation(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = haar_random_unitary(rng)
            np.testing.assert_allclose(nearest_unitary(t), t, atol=1e-12)

    def test_minimality_against_random_unitaries(self):
        rng = np.random.default_rng(17)
        for e in ELEMENTS:
            best = hs_distance(nearest_unitary(e), e)
            for t in haar_random_unitary(rng, 200):
                assert best <= hs_distance(t, e) + 1e-12

    def test_leftover_factor_is_psd(self):
        for e in ELEMENTS:
            s = dagger(nearest_unitary(e)) @ e
            assert is_hermitian(s)
            assert is_psd(s)


class TestPredicates:
    def test_is_unitary(self):
        assert is_unitary(I2)
        assert not is_unitary(2 * I2)

    def test_is_hermitian(self):
        assert is_hermitian(np.array([[1.0, 2j], [-2j, 5.0]]))
        assert not is_hermitian(np.array([[1.0, 2j], [2j, 5.0]]))

    def test_is_psd(self):
        assert is_psd(np.diag([1.0, 0.0]))
        assert not is_psd(np.diag([1.0, -1e-6]))
        assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("f", [is_hermitian, is_unitary, is_psd])
    def test_answers_are_python_bools(self, f):
        for a in (I2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1e200, 1.0])):
            assert type(f(a)) is bool

    def test_haar_samples_are_unitary(self):
        rng = np.random.default_rng(23)
        for t in haar_random_unitary(rng, 100):
            assert is_unitary(t)

    def test_haar_size_is_a_count(self):
        rng = np.random.default_rng(23)
        assert haar_random_unitary(rng, 0).shape == (0, 2, 2)
        assert haar_random_unitary(rng, np.int64(3)).shape == (3, 2, 2)
        for size, message in ((True, "an integer"), (2.0, "an integer"), ("2", "an integer"),
                              (-1, "at least 0")):
            with pytest.raises(ValueError, match=f"size must be {message}"):
                haar_random_unitary(rng, size)


class TestRandomInvertible:
    # the streams of verify's polar-decomposition-roundtrip check (index 2)
    # at --seed 0...19 and 318
    @pytest.mark.parametrize("seed", [*range(20), 318])
    def test_stack_draws_what_sequential_calls_draw(self, seed):
        one, many = (np.random.default_rng(np.random.SeedSequence((seed, 2))) for _ in range(2))
        sequential = np.array([random_invertible(one) for _ in range(1000)])
        assert random_invertible(many, 1000).tobytes() == sequential.tobytes()
        assert many.random() == one.random()    # neither drew a candidate past the last

    def test_shapes_and_determinants(self):
        rng = np.random.default_rng(29)
        assert random_invertible(rng).shape == (2, 2)
        assert random_invertible(rng, 0).shape == (0, 2, 2)
        assert np.all(np.abs(det2(random_invertible(rng, np.int64(50)))) >= 0.05)

    def test_size_is_a_count(self):
        rng = np.random.default_rng(29)
        for size, message in ((True, "an integer"), (2.0, "an integer"), ("2", "an integer"),
                              (-1, "at least 0")):
            with pytest.raises(ValueError, match=f"size must be {message}"):
                random_invertible(rng, size)


# the functions that take a (..., 2, 2) stack, each with a map from a
# random complex matrix stack to a valid input
STACKED = {
    "det2": (det2, lambda a: a),
    "sqrtm_psd": (sqrtm_psd, lambda a: a @ dagger(a)),
    "polar_decompose": (polar_decompose, lambda a: a),
    "nearest_unitary": (nearest_unitary, lambda a: a),
}
STACK_SHAPES = [(0,), (5,), (2, 3)]


def as_parts(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(STACKED))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stack_equals_per_matrix_calls_bit_for_bit(name, shape, data):
    f, valid = STACKED[name]
    entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    a = valid(data.draw(hnp.arrays(complex, shape + (2, 2), elements=entries)))
    per_matrix = []
    for m in a.reshape(-1, 2, 2):
        try:
            per_matrix.append(as_parts(f(m)))
        except ValueError as err:    # a singular draw: the stack fails as it does
            with pytest.raises(ValueError, match=re.escape(str(err))):
                f(a)
            return
    for k, part in enumerate(as_parts(f(a))):
        assert part.shape[:len(shape)] == shape
        expected = np.array([parts[k] for parts in per_matrix], dtype=part.dtype)
        assert part.tobytes() == expected.tobytes()


FAULTY = {
    "singular": np.array([[1.0, 1.0], [1.0, 1.0]]),
    "nan": np.diag([np.nan, 1.0]),
    "inf": np.array([[1.0, np.inf], [np.inf, 1.0]]),
    "norm-overflow": np.diag([1e200, 1e200]),
    "not-psd": np.diag([-1.0, 0.0]),
}


@pytest.mark.parametrize("fault", sorted(FAULTY))
@pytest.mark.parametrize("name", sorted(STACKED))
def test_one_faulty_matrix_fails_the_stack_as_it_fails_alone(name, fault):
    f, _ = STACKED[name]
    stack = np.arange(1.0, 7.0)[:, None, None] * I2    # PSD and invertible
    stack[4] = FAULTY[fault]
    try:
        f(FAULTY[fault])
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            f(stack.reshape(2, 3, 2, 2))
    else:
        f(stack.reshape(2, 3, 2, 2))


@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 3), (2, 3), (5, 2, 1), (2, 2, 3)], ids=str)
@pytest.mark.parametrize("name", sorted(STACKED))
def test_wrong_trailing_shape_rejected(name, shape):
    with pytest.raises(ValueError, match=r"must have shape \(\.\.\., 2, 2\)"):
        STACKED[name][0](np.ones(shape))


# Hermitian matrices, whose only fault is a non-finite entry, and a NaN or
# an infinity beside an entry whose square overflows
NONFINITE = [np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]),
             np.array([[1.0, np.inf], [np.inf, 1.0]]), np.array([[np.nan, 1e200], [0, 1]]),
             np.array([[np.inf, 1e200], [1, 1]])]


@pytest.mark.parametrize("f", [sqrtm_psd, polar_decompose, nearest_unitary])
class TestNonfiniteInput:
    # without the check these returned NaN or infinities, with only a RuntimeWarning
    @pytest.mark.parametrize("a", NONFINITE)
    def test_nonfinite_rejected(self, f, a):
        with pytest.raises(ValueError, match="must be finite"):
            f(a)

    def test_norm_overflow_rejected(self, f):
        # every entry is finite, but the squared norm is not
        with pytest.raises(ValueError, match="norm overflows"):
            f(np.diag([1e200, 1e200]))


@pytest.mark.parametrize("a", NONFINITE)
@pytest.mark.parametrize("f", [is_hermitian, is_unitary, is_psd])
def test_predicates_answer_false_for_nonfinite_input(f, a):
    assert f(a) is False


class TestOverflow:
    # finite input whose squares or products overflow
    def test_overflowing_products(self):
        with pytest.raises(ValueError, match="norm overflows"):
            hs_distance(np.diag([1e200, 1]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="determinant"):
            det2(np.diag([1e200, 1e200]))
        assert not is_unitary(np.diag([1e200, 1]))
        assert is_psd(np.diag([1e200, 1]))
        assert not is_psd(np.diag([1e200, -1e200]))
        assert not is_hermitian(np.array([[1e308, 1e308], [-1e308, 1]]))
        assert is_hermitian(np.array([[1e308, 1e308], [1e308, 1]]))
        equator = make_pure(0.5, 0.0)
        with pytest.raises(ValueError, match="fidelity overflows"):
            fidelity(equator, np.full((2, 2), 1.7e308))
        assert fidelity(equator, np.diag([1e200, 1])) == pytest.approx(5e199)

    def test_not_psd_rejected_by_sqrtm(self):
        with pytest.raises(ValueError, match="not PSD"):
            sqrtm_psd(np.diag([-1.0, 0.0]))


# zeros, subnormals, the least normal double, +-1e+-300, magnitudes around
# the 1e150 overflow guard and up to the largest double: each function
# returns a finite value or raises ValueError, and never warns (pytest turns
# a warning into an error)
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e-300,
            -1e-300, 1e-160, 1.0, 1e140, -1e140, 1e153, -1e153, 1e160, -1e160, 1e300, -1e300,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
PSI = make_pure(0.3, 1.0)
ARRAY_FUNCTIONS = {
    "dagger": (4, lambda x: dagger(x.reshape(2, 2))),
    "det2": (4, lambda x: det2(x.reshape(2, 2))),
    "hs_distance": (8, lambda x: hs_distance(x[:4].reshape(2, 2), x[4:].reshape(2, 2))),
    "is_hermitian": (4, lambda x: is_hermitian(x.reshape(2, 2))),
    "is_unitary": (4, lambda x: is_unitary(x.reshape(2, 2))),
    "is_psd": (4, lambda x: is_psd(x.reshape(2, 2))),
    "sqrtm_psd": (4, lambda x: sqrtm_psd(x.reshape(2, 2))),
    "polar_decompose": (4, lambda x: polar_decompose(x.reshape(2, 2))),
    "nearest_unitary": (4, lambda x: nearest_unitary(x.reshape(2, 2))),
    "fidelity": (4, lambda x: fidelity(PSI, x.reshape(2, 2))),
    "apply_channel": (4, lambda x: apply_channel(error_channel(0.2, 0.3), x.reshape(2, 2))),
    "reduce_qubit": (8, lambda x: reduce_qubit(x, 2)),
    "from_vector": (2, lambda x: PureQubit.from_vector(x)),
    "KrausChannel": (4, lambda x: KrausChannel(x.reshape(1, 2, 2))),
    "state_vector": (1, lambda x: state_vector(0.5, x[0].real)),
    # 3-element stacks: one faulty matrix or state fails the whole call
    "det2-stack": (12, lambda x: det2(x.reshape(3, 2, 2))),
    "sqrtm_psd-stack": (12, lambda x: sqrtm_psd(x.reshape(3, 2, 2))),
    "polar_decompose-stack": (12, lambda x: polar_decompose(x.reshape(3, 2, 2))),
    "nearest_unitary-stack": (12, lambda x: nearest_unitary(x.reshape(3, 2, 2))),
    "reduce_qubit-stack": (24, lambda x: reduce_qubit(x.reshape(3, 8), 2)),
}


def assert_finite(out):
    if isinstance(out, PureQubit):
        out = (out.alpha, out.beta, out.phi)
    if isinstance(out, KrausChannel):
        out = (out.elements, out.effects)
    for part in out if isinstance(out, tuple) else (out,):
        assert np.isfinite(np.asarray(part, dtype=complex)).all()


@pytest.mark.parametrize("name", sorted(ARRAY_FUNCTIONS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_finite_extremes_give_finite_output_or_value_error(name, data):
    size, f = ARRAY_FUNCTIONS[name]
    entry = st.builds(complex, st.sampled_from(EXTREMES), st.sampled_from(EXTREMES))
    x = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)), dtype=complex)
    try:
        out = f(x)
    except ValueError:
        return
    assert_finite(out)


# a matrix that is not PSD, with a subnormal trace under a large entry: its
# root overflowed in the division by sqrt(tr), with a RuntimeWarning
SUBNORMAL_TRACE = np.array([[5e-324, 1e153], [0, 0]], dtype=complex)


@pytest.mark.parametrize("name, x", [
    ("sqrtm_psd", SUBNORMAL_TRACE.ravel()),
    ("sqrtm_psd-stack", np.stack([I2, SUBNORMAL_TRACE, 2 * I2]).ravel()),
])
def test_subnormal_trace_under_a_large_entry(name, x):
    with pytest.raises(ValueError, match="^matrix is not PSD: its square root overflows$"):
        ARRAY_FUNCTIONS[name][1](x)


# NaN and infinities beside the extremes, a large entry included: each
# function raises ValueError or returns, and never warns. The output may
# hold a NaN (dagger moves one faithfully), but a predicate answers a
# bool, and False for a non-finite entry.
@pytest.mark.parametrize("name", sorted(ARRAY_FUNCTIONS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_nonfinite_parts_give_value_error_never_a_warning(name, data):
    size, f = ARRAY_FUNCTIONS[name]
    part = st.sampled_from(EXTREMES + [np.nan, np.inf, -np.inf])
    entry = st.builds(complex, part, part)
    x = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)), dtype=complex)
    try:
        out = f(x)
    except ValueError:
        return
    if name.startswith("is_"):
        assert isinstance(out, bool)
        assert out is False or np.isfinite(x).all()
