"""High-precision arbiter for the five plane evaluators, the Monte Carlo
mean and the kernels of verify's polar and clone checks.

Each evaluator's surface has a closed form. mpmath evaluates it at 40
digits at the same float (alpha2, phi) the evaluator receives, on the
101x101 sweep grid plus the two exception points. Two figures are pinned
per evaluator: the cells whose ``%.12g`` (the CLI's format) is not the
correctly rounded truth, and the largest relative error in units of
2^-53. A kernel change may lower a pin and never raise it.

The Monte Carlo mean of a state's runs is exact as a Fraction of its 64
branch counts and overlaps; ``mc_estimates``' mean is pinned against it.
"""

from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from clonerestore import cloning, core, linalg, verify
from clonerestore import (
    alpha2_grid,
    analytic_fidelity,
    baseline_fidelity_plane,
    exact_fidelity_plane,
    mixed_input_fidelity_plane,
    mc_estimates,
    phi_grid,
    reversed_fidelity_plane,
    sample_branches,
    state_vector,
)

RATES = (0.3, 0.6)

EVALUATORS = {
    "exact": lambda a2, phi: exact_fidelity_plane(a2, phi, *RATES),
    "mixed": mixed_input_fidelity_plane,
    "analytic": analytic_fidelity,
    "reversed": reversed_fidelity_plane,
    "baseline": baseline_fidelity_plane,
}

# (wrong cells, largest error in units of 2^-53), each an upper bound
PINS = {
    "exact": (0, 2.7),
    "mixed": (0, 1.9),
    "analytic": (0, 3.3),
    "reversed": (0, 1.5),
    "baseline": (0, 2.3),
}

CLOSED_FORM = {"exact": "protocol", "mixed": "protocol", "analytic": "protocol",
               "reversed": "reversed", "baseline": "baseline"}


def plane_points():
    aa, pp = np.meshgrid(alpha2_grid(101), phi_grid(101), indexing="ij")
    exceptions = np.array([[0.5, np.pi / 2], [0.5, 3 * np.pi / 2]])
    return np.append(aa.ravel(), exceptions[:, 0]), np.append(pp.ravel(), exceptions[:, 1])


@lru_cache(maxsize=1)
def truths():
    """Each closed form at every point as a 40-digit Decimal.

    All three are c0(alpha2) + c1(alpha2) cos^2(phi), so the coefficients
    are computed once per alpha2 and cos^2 once per phi.
    """
    alpha2, phi = plane_points()
    with mpmath.workdps(40):
        cos2 = {p: mpmath.cos(mpmath.mpf(p)) ** 2 for p in set(phi.tolist())}
        coeffs = {}
        for a2 in set(alpha2.tolist()):
            a = mpmath.mpf(a2)
            ab = a * (1 - a)
            coeffs[a2] = {
                "protocol": ((5 - 2 * a + 2 * a * a) / 9, 8 * ab / 9),
                "reversed": (mpmath.mpf(5) / 6 + (2 * a - 1) ** 2 / 30, 8 * ab / 15),
                "baseline": (a * a + (1 - a) ** 2, 0),
            }
        out = {name: [] for name in ("protocol", "reversed", "baseline")}
        for a2, p in zip(alpha2.tolist(), phi.tolist()):
            for name, (c0, c1) in coeffs[a2].items():
                value = c0 + c1 * cos2[p]
                out[name].append(Decimal(mpmath.nstr(value, 40, min_fixed=-1, max_fixed=1)))
    return out


def arbiter_figures(name):
    """(cells not correctly rounded at %.12g, largest relative error / 2^-53)."""
    alpha2, phi = plane_points()
    values = np.asarray(EVALUATORS[name](alpha2, phi)).tolist()
    twelve = Context(prec=12)
    wrong, worst = 0, Decimal(0)
    for value, truth in zip(values, truths()[CLOSED_FORM[name]]):
        wrong += Decimal("%.12g" % value) != twelve.plus(truth)
        worst = max(worst, abs(Decimal(value) - truth) / truth)
    return wrong, float(worst * 2 ** 53)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_no_more_wrong_cells_than_pinned(name):
    wrong, worst = arbiter_figures(name)
    max_wrong, max_worst = PINS[name]
    assert wrong <= max_wrong
    assert worst <= max_worst


# (state, seed) draws of the Monte Carlo arbiter, at 2 to 20,000 trials
MC_DRAWS = 240
# largest error of mc_estimates' mean in units of 2^-53, an upper bound
MC_PIN = 1.0


def mc_mean_errors():
    """Largest |mean - exact| over MC_DRAWS random states, rates and trial
    counts, in units of 2^-53: of ``mc_estimates``' mean, from branch
    counts, and of numpy's mean of the same runs' overlaps. The exact mean
    is the Fraction sum of count times overlap over the trials."""
    rng = np.random.default_rng(2003)
    worst_counts = worst_sample = Fraction(0)
    for seed in range(MC_DRAWS):
        alpha2, phi, p_bit, p_ph = rng.random(4)
        trials = int(rng.integers(2, 20_001))
        v = state_vector(alpha2, 2 * np.pi * phi)[None]
        overlaps, branches = next(sample_branches(v, p_bit, p_ph, trials,
                                                  (np.random.default_rng(seed),)))
        (mean,), _ = mc_estimates(v, p_bit, p_ph, trials, (np.random.default_rng(seed),))
        counts = np.bincount(branches, minlength=64)
        exact = sum(int(c) * Fraction(float(o)) for c, o in zip(counts, overlaps)) / trials
        worst_counts = max(worst_counts, abs(Fraction(float(mean)) - exact))
        sample_mean = float(overlaps.take(branches).mean())
        worst_sample = max(worst_sample, abs(Fraction(sample_mean) - exact))
    return float(worst_counts * 2 ** 53), float(worst_sample * 2 ** 53)


def test_counts_mean_is_no_less_exact_than_the_sample_mean():
    counts, sample = mc_mean_errors()
    assert counts <= min(sample, MC_PIN)


# verify's polar and clone checks: the largest residual of the kernels'
# float output over the draws of ``verify --seed 0...19``, exact in Python
# integers (every double is an integer over a power of 2) with the one
# square root taken in mpmath at 40 digits, in units of 2^-53. Measured
# before the kernels took stacks; a kernel change may lower a pin and
# never raise it.
VERIFY_SEEDS = range(20)
CHECK_PINS = {
    "polar: |u p - e|": 24.0,
    "polar: |u^dag u - I|": 8.0,
    "polar: |p - p^dag|": 0.0,
    "clone: |rho1 - rho2|": 0.0,
    "clone: |F - 5/6|": 6.7,
}


def check_stream(name, seed):
    index = [check[0] for check in verify._CHECKS].index(name)
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def exact_parts(*arrays):
    """The real and imaginary parts of each complex array as object arrays
    of Python integers N, and one shift t with part = N / 2^t for all."""
    ratio = np.frompyfunc(float.as_integer_ratio, 1, 2)
    pairs = [ratio(part.astype(float)) for a in arrays for part in (a.real, a.imag)]
    t = max((int(d).bit_length() - 1 for _, ds in pairs for d in ds.flat), default=0)
    return [n * ((1 << t) // d) for n, d in pairs], t


def largest_modulus(re, im, t):
    """max |re + i im| / 2^t in units of 2^-53, for object integer arrays."""
    r2 = (re * re + im * im).max(initial=0)
    with mpmath.workdps(40):
        return float(mpmath.sqrt(r2) * mpmath.ldexp(1, 53 - t))


@lru_cache(maxsize=1)
def check_residuals():
    worst = dict.fromkeys(CHECK_PINS, 0.0)

    def record(key, value):
        worst[key] = max(worst[key], value)

    for seed in VERIFY_SEEDS:
        e = linalg.random_invertible(check_stream("polar-decomposition-roundtrip", seed), 1000)
        u, p = linalg.polar_decompose(e)
        (ur, ui, pr, pi, er, ei), t = exact_parts(u, p, e)
        record("polar: |u p - e|", largest_modulus(ur @ pr - ui @ pi - (er << t),
                                                  ur @ pi + ui @ pr - (ei << t), 2 * t))
        urt, uit = ur.swapaxes(1, 2), ui.swapaxes(1, 2)
        eye = np.array([[1, 0], [0, 1]], dtype=object) << 2 * t
        record("polar: |u^dag u - I|", largest_modulus(urt @ ur + uit @ ui - eye,
                                                      urt @ ui - uit @ ur, 2 * t))
        record("polar: |p - p^dag|", largest_modulus(pr - pr.swapaxes(1, 2), pi + pi.swapaxes(1, 2), t))

        v = core.state_vector(*verify._random_state_points(
            check_stream("clone-symmetry-and-fidelity", seed), 200))
        cloned = cloning._clone_vectors(v)
        rho1, rho2 = core.reduce_qubit(cloned, 1), core.reduce_qubit(cloned, 2)
        (r1r, r1i, r2r, r2i), t = exact_parts(rho1, rho2)
        record("clone: |rho1 - rho2|", largest_modulus(r1r - r2r, r1i - r2i, t))
        for rho in (rho1, rho2):
            f = core._overlaps(v, rho).tolist()
            record("clone: |F - 5/6|", float(max(abs(Fraction(x) - Fraction(5, 6)) for x in f) * 2 ** 53))
    return worst


@pytest.mark.parametrize("residual", sorted(CHECK_PINS))
def test_check_residuals_within_pins(residual):
    assert check_residuals()[residual] <= CHECK_PINS[residual]
