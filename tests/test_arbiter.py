"""High-precision arbiter for the five plane evaluators and the Monte Carlo mean.

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
