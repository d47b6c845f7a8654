"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from clonerestore import protocol
from clonerestore.cloning import (
    Outcome,
    estimation_elements,
    outcome_probability,
    reversed_fidelity,
    reversed_fidelity_plane,
    uqcm_output,
)
from clonerestore.core import ErrorType, fidelity, make_pure, reduce_qubit
from clonerestore.linalg import dagger, haar_random_unitary, hs_distance, nearest_unitary
from clonerestore.protocol import (
    alpha2_grid,
    analytic_fidelity,
    bloch_form,
    branch_statistics,
    exact_fidelity,
    exact_fidelity_plane,
    mc_estimates,
    mixed_input_fidelity_plane,
    phi_grid,
    sample_branches,
)

KET0 = make_pure(1.0, 0.0)

REVERSAL_ADJOINTS = np.array(
    [[[3, -1], [1, 3]], [[-3, -1], [1, -3]], [[3, 1], [-1, 3]], [[-3, 1], [-1, -3]]],
    dtype=complex,
) / np.sqrt(10)


def report(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} {name}: {status} ({detail})")
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def grid_101():
    aa = alpha2_grid(101)[:, None]
    pp = phi_grid(101)[None, :]
    return aa, pp


@pytest.fixture(scope="module")
def exact_surface_101(grid_101):
    aa, pp = grid_101
    return exact_fidelity_plane(aa, pp)


def test_criterion_01_clone_fidelity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        psi = make_pure(rng.random(), rng.random() * 2 * np.pi)
        cloned = uqcm_output(psi)
        for keep in (1, 2):
            worst = max(worst, abs(fidelity(psi, reduce_qubit(cloned, keep)) - 5 / 6))
    report(1, "clone-fidelity-5/6", worst <= 1e-12, f"max dev {worst:.3e}, tol 1e-12")


def test_criterion_02_reversal_matrices():
    rng = np.random.default_rng(102)
    est = estimation_elements()
    worst_match = 0.0
    worst_min = 0.0
    for i in range(4):
        u = nearest_unitary(est.elements[i])
        a = dagger(u)
        lam = np.trace(dagger(REVERSAL_ADJOINTS[i]) @ a)
        lam /= abs(lam)
        worst_match = max(worst_match, float(np.max(np.abs(a - lam * REVERSAL_ADJOINTS[i]))))
        best = hs_distance(u, est.elements[i])
        for t in haar_random_unitary(rng, 1000):
            worst_min = max(worst_min, best - hs_distance(t, est.elements[i]))
    ok = worst_match <= 1e-12 and worst_min <= 1e-12
    report(2, "reversal-matrices", ok,
           f"match dev {worst_match:.3e}, minimality excess {max(worst_min, 0.0):.3e}, tol 1e-12")


def test_criterion_03_reversal_benefit(grid_101):
    aa, pp = grid_101
    surface = reversed_fidelity_plane(aa, pp)
    floor_violation = max(float(np.max(5 / 6 - surface)), 0.0)
    spot_dev = abs(reversed_fidelity(KET0) - 13 / 15)
    ok = floor_violation <= 1e-12 and spot_dev <= 1e-12
    report(3, "reversal-benefit", ok,
           f"floor violation {floor_violation:.3e}, |F(|0>)-13/15| {spot_dev:.3e}, tol 1e-12")


def test_criterion_04_error_rate_independence():
    rng = np.random.default_rng(104)
    states = [make_pure(a2, ph)
              for a2 in np.linspace(0.0, 1.0, 5)
              for ph in 2 * np.pi * np.arange(5) / 5]
    pairs = [(rng.random(), rng.random()) for _ in range(10)]
    worst = 0.0
    for psi in states:
        ref = exact_fidelity(psi, 0.0, 0.0)
        for p_bit, p_ph in pairs:
            worst = max(worst, abs(exact_fidelity(psi, p_bit, p_ph) - ref))
    report(4, "error-rate-independence", worst < 1e-10, f"max dev {worst:.3e}, tol 1e-10")


def test_criterion_05_analytic_agreement(grid_101, exact_surface_101):
    aa, pp = grid_101
    analytic = analytic_fidelity(aa, pp)
    mixed = mixed_input_fidelity_plane(aa, pp)
    worst = float(max(np.max(np.abs(exact_surface_101 - analytic)),
                      np.max(np.abs(exact_surface_101 - mixed)),
                      np.max(np.abs(mixed - analytic))))
    report(5, "exact-mixed-analytic-agreement", worst <= 1e-10,
           f"max pointwise dev {worst:.3e}, tol 1e-10")


def haar_average(form):
    """Bloch-sphere average of r^T G r: <x^2> = <y^2> = <z^2> = 1/3, odd moments 0."""
    return form[0, 0] + (form[1, 1] + form[2, 2] + form[3, 3]) / 3


def test_criterion_06_published_averages():
    bank = protocol._branch_bank()
    avg_protocol = {haar_average(bloch_form(bank[:, e], 120 ** 2)) for e in ErrorType}
    avg_baseline = haar_average(bloch_form(np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]), 1))
    ok = avg_protocol == {Fraction(16, 27)} and avg_baseline == Fraction(2, 3) \
        and max(avg_protocol) < avg_baseline
    report(6, "published-averages", ok,
           f"protocol {sorted(map(str, avg_protocol))} per channel error vs 16/27, "
           f"baseline {avg_baseline} vs 2/3, exact")


def test_criterion_07_fidelity_floor(grid_101, exact_surface_101):
    aa, pp = grid_101
    floor_violation = max(float(np.max(0.5 - exact_surface_101)), 0.0)
    exception_dev = max(
        abs(exact_fidelity(make_pure(0.5, np.pi / 2)) - 0.5),
        abs(exact_fidelity(make_pure(0.5, 3 * np.pi / 2)) - 0.5))
    # the floor is attained only at the two exception points
    at_floor = np.abs(exact_surface_101 - 0.5) <= 1e-12
    on_exception = np.zeros_like(at_floor)
    for phi in (np.pi / 2, 3 * np.pi / 2):
        on_exception |= (np.abs(aa - 0.5) <= 1e-12) & (np.abs(pp - phi) <= 1e-12)
    strict = not np.any(at_floor & ~on_exception)
    ok = floor_violation <= 1e-12 and exception_dev <= 1e-12 and strict
    report(7, "fidelity-floor", ok,
           f"floor violation {floor_violation:.3e}, exception dev {exception_dev:.3e}, "
           f"strict off-exception: {strict}, tol 1e-12")


def _identity_deviation():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        psi = make_pure(rng.random(), rng.random() * 2 * np.pi)
        stats = [branch_statistics(psi, Outcome.PLUS_0, ErrorType(i), Outcome(i))
                 for i in range(4)]
        p0, s0 = stats[0]
        for p, s in stats[1:]:
            worst = max(worst, abs(p - p0), float(np.max(np.abs(s.vector - s0.vector))))
    return worst


def test_criterion_08_outcome_agreement_identities():
    worst = _identity_deviation()
    p_spot, _ = branch_statistics(KET0, Outcome.PLUS_0, ErrorType.NO_ERROR, Outcome.PLUS_0)
    spot_dev = abs(p_spot - 5 / 12)
    ok = worst <= 1e-12 and spot_dev <= 1e-12
    report(8, "outcome-agreement-identities", ok,
           f"max dev {worst:.3e}, spot |p-5/12| {spot_dev:.3e}, tol 1e-12")


def test_criterion_09_negative_control(swapped_rule):
    swapped_dev = _identity_deviation()
    report(9, "swapped-rule-detected", swapped_dev > 1e-12,
           f"swapped-rule identity dev {swapped_dev:.3e} must exceed 1e-12")


def test_criterion_10_monte_carlo():
    spots = [(1.0, 0.0), (0.5, 0.0), (0.5, np.pi / 2), (0.25, 1.0), (0.75, 4.0)]
    worst_z = 0.0
    worst_time = 0.0
    reproducible = True
    for i, (a2, phi) in enumerate(spots):
        psi = make_pure(a2, phi)
        exact = exact_fidelity(psi, 0.1, 0.3)
        start = time.perf_counter()
        (mean,), (stderr,) = mc_estimates(psi.vector[None], 0.1, 0.3, 100_000,
                                          (np.random.default_rng(i),))
        worst_time = max(worst_time, time.perf_counter() - start)
        (mean_again,), (stderr_again,) = mc_estimates(psi.vector[None], 0.1, 0.3, 100_000,
                                                      (np.random.default_rng(i),))
        reproducible &= (mean_again, stderr_again) == (mean, stderr)
        z = abs(mean - exact) / max(stderr, 1e-15)
        worst_z = max(worst_z, z)
    ok = worst_z <= 4.0 and worst_time < 10.0 and reproducible
    report(10, "monte-carlo", ok,
           f"max |z| {worst_z:.2f} (tol 4), max time/state {worst_time:.2f}s (tol 10s), "
           f"seed-reproducible: {reproducible}")


def test_criterion_11_measurement_statistics():
    n = 100_000
    rng = np.random.default_rng(111)
    _, branches = next(sample_branches(KET0.vector[None], 0.0, 0.0, n, (rng,)))
    # Alice's outcome of branch 16 alice + 4 error + bob
    counts = np.bincount(branches // 16, minlength=4)
    probs = np.array([1 / 3, 1 / 6, 1 / 3, 1 / 6])
    sigma = np.sqrt(probs * (1 - probs) / n)
    max_z = float(np.max(np.abs(counts / n - probs) / sigma))

    worst_marginal = 0.0
    for a2 in alpha2_grid(51):
        for phi in phi_grid(51):
            psi = make_pure(a2, phi)
            p = [outcome_probability(psi, o) for o in Outcome]
            sign_expected = 0.5 * (1 + (4 / 3) * psi.alpha * psi.beta * np.cos(phi))
            bit_expected = (1 + a2) / 3
            worst_marginal = max(worst_marginal,
                                 abs(p[0] + p[1] - sign_expected),
                                 abs(p[0] + p[2] - bit_expected))
    ok = max_z <= 4.0 and worst_marginal <= 1e-12
    report(11, "measurement-statistics", ok,
           f"empirical max |z| {max_z:.2f} (tol 4), marginal dev {worst_marginal:.3e} (tol 1e-12)")
