"""Runtime verification suite behind the ``verify`` CLI command.

Each check re-derives one invariant of the library and reports its worst
measured deviation against a fixed tolerance. Statistical checks report
a z-score against a 4-sigma threshold instead; a user-supplied tolerance
override applies only to the deviation-based checks.
"""

from __future__ import annotations

import math
import time
from contextlib import suppress
from dataclasses import asdict, dataclass

import numpy as np

from . import cloning, core, linalg, protocol

# Reference adjoints of the four reversal unitaries, each fixed only up
# to a global phase per outcome.
_REVERSAL_ADJOINTS = np.array(
    [
        [[3, -1], [1, 3]],
        [[-3, -1], [1, -3]],
        [[3, 1], [-1, 3]],
        [[-3, 1], [-1, -3]],
    ],
    dtype=complex,
) / np.sqrt(10.0)

_SPOT_STATES = ((1.0, 0.0), (0.5, 0.0), (0.5, np.pi / 2), (0.25, 1.0), (0.75, 4.0))

_EXCEPTION_POINTS = ((0.5, np.pi / 2), (0.5, 3 * np.pi / 2))

# Measure-and-prepare baseline: |n><n| is both the measurement outcome and
# the state prepared on it.
_BASIS_PROJECTORS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


@dataclass(frozen=True)
class InvariantResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    statistical: bool = False
    seconds: float = 0.0


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[InvariantResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        width = max(len(r.name) for r in self.results)
        out = []
        for r in self.results:
            unit = "z" if r.statistical else "dev"
            out.append(
                f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
                f"{unit}={r.deviation:.3e}  tol={r.tolerance:.1e}"
            )
        n_pass = sum(r.passed for r in self.results)
        out.append(f"verify: {n_pass}/{len(self.results)} invariants passed")
        return out

    def json_lines(self) -> list[str]:
        """One JSON object per invariant; a deviation that is not finite is null."""
        import json  # only --json needs it; the other commands skip its import

        out = []
        for r in self.results:
            fields = asdict(r)
            if not math.isfinite(r.deviation):
                fields["deviation"] = None
            out.append(json.dumps(fields))
        return out


def _phase_aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max entry deviation between a and b after optimal global phase."""
    lam = np.trace(linalg.dagger(b) @ a)
    if abs(lam) < 1e-9:
        return float(np.max(np.abs(a - b)))
    lam = lam / abs(lam)
    return float(np.max(np.abs(a - lam * b)))


def _random_states(rng: np.random.Generator, n: int) -> list[core.PureQubit]:
    return [core.make_pure(rng.random(), rng.random() * 2 * np.pi) for _ in range(n)]


def _random_plane_points(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.random(n), rng.random(n) * 2 * np.pi


def _route_residual(plane, scalar, alpha2, phi, *rates) -> float:
    """Largest |plane - scalar| at the states (alpha2, phi): a vectorised
    kernel against the scalar reference route of the same quantity."""
    reference = [scalar(core.make_pure(a, p), *rates) for a, p in zip(alpha2, phi)]
    return float(np.max(np.abs(plane(alpha2, phi, *rates) - reference)))


def _haar_average(form: np.ndarray):
    """Average of r^T G r over the Bloch sphere.

    There <x^2> = <y^2> = <z^2> = 1/3 and the linear and cross moments vanish.
    """
    return form[0, 0] + (form[1, 1] + form[2, 2] + form[3, 3]) / 3


def _sphere_extremes(form: np.ndarray):
    """Minimum and maximum of r^T G r on the Bloch sphere, or None.

    None unless G is diagonal with G_22 < G_33 < G_11; then the minimum
    G_00 + G_22 is reached only at y = +-1 and the maximum G_00 + G_11
    only at x = +-1.
    """
    if np.any(form != np.diag(np.diag(form))):
        return None
    if not form[2, 2] < form[3, 3] < form[1, 1]:
        return None
    return form[0, 0] + form[2, 2], form[0, 0] + form[1, 1]


def _exact_deviation(*pairs) -> float:
    """Largest |value - expected| over (exact value, "p/q") pairs, as a float."""
    from fractions import Fraction  # loads decimal; only these checks need it

    return max(float(abs(value - Fraction(expected))) for value, expected in pairs)


def _check_reversal_set(rng):
    est = cloning.estimation_elements()
    return max(
        _phase_aligned_deviation(linalg.dagger(est.reversal_unitaries[i]), _REVERSAL_ADJOINTS[i])
        for i in range(4)
    )


def _check_minimality(rng):
    est = cloning.estimation_elements()
    worst = 0.0
    for i in range(4):
        best = linalg.hs_distance(est.reversal_unitaries[i], est.elements[i])
        trials = linalg.haar_random_unitary(rng, 1000)
        dists = np.sqrt(np.sum(np.abs(trials - est.elements[i]) ** 2, axis=(1, 2)))
        worst = max(worst, best - float(dists.min()))
    return max(worst, 0.0)


def _check_polar_roundtrip(rng):
    worst = 0.0
    for _ in range(1000):
        e = linalg.random_invertible(rng)
        u, p = linalg.polar_decompose(e)
        worst = max(
            worst,
            float(np.max(np.abs(u @ p - e))),
            float(np.max(np.abs(linalg.dagger(u) @ u - np.eye(2)))),
            float(np.max(np.abs(p - linalg.dagger(p)))),
        )
    return worst


def _check_reversal_psd(rng):
    est = cloning.estimation_elements()
    worst = 0.0
    for i in range(4):
        s = linalg.dagger(est.reversal_unitaries[i]) @ est.elements[i]
        worst = max(worst, float(np.max(np.abs(s - linalg.dagger(s)))))
        tr = (s[0, 0] + s[1, 1]).real
        det = max(linalg.det2(s).real, 0.0)
        lam_min = tr / 2 - np.sqrt(max(tr * tr / 4 - det, 0.0))
        worst = max(worst, max(-lam_min, 0.0))
    return worst


def _check_completeness(rng):
    worst = 0.0
    eye = np.eye(2)
    for _ in range(100):
        ch = core.error_channel(rng.random(), rng.random())
        worst = max(worst, float(np.max(np.abs(ch.effects.sum(axis=0) - eye))))
    est = cloning.estimation_elements()
    return max(worst, float(np.max(np.abs(est.effects.sum(axis=0) - eye))))


def _check_channel_density(rng):
    worst = 0.0
    channels = [core.error_channel(rng.random(), rng.random()) for _ in range(5)]
    channels.append(cloning.estimation_elements())
    for ch in channels:
        for _ in range(20):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            out = core.apply_channel(ch, rho)
            worst = max(
                worst,
                abs(np.trace(out) - 1.0),
                float(np.max(np.abs(out - linalg.dagger(out)))),
            )
    return worst


def _check_sampling_frequencies(rng):
    n = 100_000
    ket0 = core.make_pure(1.0, 0.0).vector[None]
    _, (counts,) = protocol.branch_counts(ket0, 0.1, 0.2, n, (rng,))
    table = counts.reshape(4, 4, 4)    # (alice, error, bob)
    counts = np.concatenate([table.sum(axis=(1, 2)), table.sum(axis=(0, 2))])
    probs = np.concatenate([[1 / 3, 1 / 6, 1 / 3, 1 / 6], core.error_probabilities(0.1, 0.2)])
    sigma = np.sqrt(probs * (1 - probs) / n)
    return float(np.max(np.abs(counts / n - probs) / sigma))


def _check_gauge_roundtrip(rng):
    worst = 0.0
    for _ in range(500):
        alpha2 = rng.uniform(0.0, 0.999)
        phi = rng.random() * 2 * np.pi
        back = core.PureQubit.from_vector(core.make_pure(alpha2, phi).vector)
        dphi = abs(back.phi - phi) % (2 * np.pi)
        worst = max(worst, abs(back.alpha2 - alpha2), min(dphi, 2 * np.pi - dphi))
    return worst


def _check_projective_construction(rng):
    est = cloning.estimation_elements()
    return float(np.max(np.abs(cloning.elements_from_cloner() - est.elements)))


def _check_clone_symmetry(rng):
    # the two clones are the signal qubit and qubit 2; qubit 3 is the ancilla
    worst = 0.0
    for psi in _random_states(rng, 200):
        cloned = cloning.uqcm_output(psi)
        rho1 = core.reduce_qubit(cloned, 1)
        rho2 = core.reduce_qubit(cloned, 2)
        worst = max(
            worst,
            float(np.max(np.abs(rho1 - rho2))),
            abs(core.fidelity(psi, rho1) - 5 / 6),
            abs(core.fidelity(psi, rho2) - 5 / 6),
        )
    return worst


def _check_outcome_marginals(rng):
    a2 = protocol.alpha2_grid(51)
    ph = protocol.phi_grid(51)
    aa, pp = np.meshgrid(a2, ph, indexing="ij")
    v = core.state_vector(aa, pp)
    effects = cloning.estimation_elements().effects
    probs = np.einsum("...i,aij,...j->...a", v.conj(), effects, v).real
    alpha = np.sqrt(aa)
    beta = np.sqrt(1.0 - aa)
    sign_marginal = 0.5 * (1.0 + (4.0 / 3.0) * alpha * beta * np.cos(pp))
    bit_marginal = (1.0 + aa) / 3.0
    return float(
        max(
            np.max(np.abs(probs.sum(axis=-1) - 1.0)),
            np.max(np.abs(probs[..., 0] + probs[..., 1] - sign_marginal)),
            np.max(np.abs(probs[..., 0] + probs[..., 2] - bit_marginal)),
        )
    )


def _check_stored_reversals(rng):
    # recompose E_i = U_i sqrt(E_i^dag E_i) through the Cayley-Hamilton root,
    # a route independent of the polar factor the stored U_i came from
    est = cloning.estimation_elements()
    return float(
        max(
            np.max(np.abs(est.reversal_unitaries[i] @ linalg.sqrtm_psd(est.effects[i])
                          - est.elements[i]))
            for i in range(4)
        )
    )


def _check_reversal_floor(rng):
    form = protocol.bloch_form(cloning.estimation_elements().sqrt_effects, 120)
    extremes = _sphere_extremes(form)
    if extremes is None:
        return float("inf")
    residual = _route_residual(cloning.reversed_fidelity_plane, cloning.reversed_fidelity,
                               *_random_plane_points(rng, 20))
    # |0> has r = (1, 0, 0, 1) and the form is diagonal
    return max(_exact_deviation((extremes[0], "5/6"), (form[0, 0] + form[3, 3], "13/15")),
               residual)


def _check_quadrant_preservation(rng):
    worst = 0.0
    for a2 in protocol.alpha2_grid(41):
        if not 0.5 < a2 < 1.0:
            continue
        for phi in protocol.phi_grid(41):
            if np.cos(phi) <= 0.0:
                continue
            out = cloning.post_measurement_state(core.make_pure(a2, phi), cloning.Outcome.PLUS_0)
            worst = max(worst, out.beta - out.alpha, -np.cos(out.phi))
    return max(worst, 0.0)


def _check_error_rate_independence(rng):
    aa, pp = np.meshgrid(protocol.alpha2_grid(5), protocol.phi_grid(5), indexing="ij")
    pairs = [(rng.random(), rng.random()) for _ in range(10)]
    ref = protocol.exact_fidelity_plane(aa, pp)
    worst = 0.0
    for p_bit, p_ph in pairs:
        f = protocol.exact_fidelity_plane(aa, pp, p_bit, p_ph)
        worst = max(worst, float(np.max(np.abs(f - ref))))
    # the 64-branch enumeration is the reference route; at a nonzero rate
    # pair all 64 branches contribute
    for a2, ph, f in zip(aa.ravel(), pp.ravel(), ref.ravel()):
        scalar = protocol.exact_fidelity(core.make_pure(a2, ph), *pairs[0])
        worst = max(worst, abs(scalar - f))
    return worst


def _check_triple_agreement(rng):
    aa = protocol.alpha2_grid(101)[:, None]
    pp = protocol.phi_grid(101)
    exact = protocol.exact_fidelity_plane(aa, pp)
    mixed = protocol.mixed_input_fidelity_plane(aa, pp)
    analytic = protocol.analytic_fidelity(aa, pp)
    return max(float(np.max(np.abs(exact - analytic))), float(np.max(np.abs(exact - mixed))),
               _route_residual(protocol.mixed_input_fidelity_plane, protocol.mixed_input_fidelity,
                               *_random_plane_points(rng, 20)))


def _check_outcome_agreement_identities(rng):
    worst = 0.0
    pairs = [(core.ErrorType(i), cloning.Outcome(i)) for i in range(4)]
    for psi in _random_states(rng, 100):
        stats = [protocol.branch_statistics(psi, cloning.Outcome.PLUS_0, err, bob)
                 for err, bob in pairs]
        p0, s0 = stats[0]
        for p, s in stats[1:]:
            worst = max(worst, abs(p - p0), float(np.max(np.abs(s.vector - s0.vector))))
    p_spot, _ = protocol.branch_statistics(
        core.make_pure(1.0, 0.0), cloning.Outcome.PLUS_0, core.ErrorType.NO_ERROR,
        cloning.Outcome.PLUS_0)
    return max(worst, abs(p_spot - 5 / 12))


def _protocol_forms() -> list[np.ndarray]:
    """The exact form of each channel error's 16 branch operators."""
    bank = protocol._branch_bank()
    return [protocol.bloch_form(bank[:, e], 120 ** 2) for e in core.ErrorType]


def _check_fidelity_floor(rng):
    # the no-error form; plane-averages proves the other three equal to it
    extremes = _sphere_extremes(_protocol_forms()[0])
    if extremes is None:
        return float("inf")
    floor, peak = extremes
    worst = _exact_deviation((floor, "1/2"), (peak, "13/18"))
    for a2, phi in _EXCEPTION_POINTS:
        worst = max(worst, abs(protocol.exact_fidelity(core.make_pure(a2, phi)) - 0.5))
    return worst


def _check_plane_averages(rng):
    forms = _protocol_forms()
    # error-rate independence as an exact identity
    if any(np.any(form != forms[0]) for form in forms):
        return float("inf")
    baseline = protocol.bloch_form(_BASIS_PROJECTORS, 1)
    avg_protocol = _haar_average(forms[0])
    avg_baseline = _haar_average(baseline)
    if avg_protocol >= avg_baseline:
        return float("inf")
    a2, phi = _random_plane_points(rng, 100)
    p_bit, p_ph = rng.random(2)
    # the enumeration costs 0.6 ms a state: a few of them
    residual = max(
        _route_residual(protocol.exact_fidelity_plane, protocol.exact_fidelity,
                        a2[:3], phi[:3], p_bit, p_ph),
        np.max(np.abs(core._form_values(baseline, a2, phi)
                      - protocol.baseline_fidelity_plane(a2, phi))),
    )
    return max(_exact_deviation((avg_protocol, "16/27"), (avg_baseline, "2/3")), float(residual))


def _check_monte_carlo(rng):
    states = [core.make_pure(a2, phi) for a2, phi in _SPOT_STATES]
    means, stderrs = protocol.mc_estimates([psi.vector for psi in states], 0.1, 0.2, 100_000,
                                           (rng,) * len(states))
    return max(abs(protocol.z_score(mean, stderr, protocol.exact_fidelity(psi, 0.1, 0.2)))
               for psi, mean, stderr in zip(states, means, stderrs))


def _check_sweep_columns(rng):
    aa = protocol.alpha2_grid(21)[:, None]
    pp = protocol.phi_grid(21)[None, :]
    exact = protocol.exact_fidelity_plane(aa, pp, 0.25, 0.4)
    mixed = protocol.mixed_input_fidelity_plane(aa, pp)
    return float(np.max(np.abs(exact - mixed)))


_CHECKS = (
    ("reversal-set-matches-nearest-unitary", _check_reversal_set, 1e-12, False),
    ("nearest-unitary-minimality", _check_minimality, 1e-12, False),
    ("polar-decomposition-roundtrip", _check_polar_roundtrip, 1e-12, False),
    ("reversal-composition-psd", _check_reversal_psd, 1e-12, False),
    ("channel-completeness", _check_completeness, 1e-12, False),
    ("channel-preserves-density", _check_channel_density, 1e-12, False),
    ("measurement-sampling-frequencies", _check_sampling_frequencies, 4.0, True),
    ("gauge-roundtrip", _check_gauge_roundtrip, 1e-12, False),
    ("elements-projective-construction", _check_projective_construction, 1e-12, False),
    ("clone-symmetry-and-fidelity", _check_clone_symmetry, 1e-12, False),
    ("outcome-probability-marginals", _check_outcome_marginals, 1e-12, False),
    ("stored-reversals-recompute", _check_stored_reversals, 1e-12, False),
    ("reversal-benefit-floor", _check_reversal_floor, 1e-12, False),
    ("quadrant-preservation", _check_quadrant_preservation, 1e-12, False),
    ("error-rate-independence", _check_error_rate_independence, 1e-10, False),
    ("exact-analytic-mixed-agreement", _check_triple_agreement, 1e-10, False),
    ("outcome-agreement-identities", _check_outcome_agreement_identities, 1e-12, False),
    ("fidelity-floor-and-exceptions", _check_fidelity_floor, 1e-12, False),
    ("plane-averages", _check_plane_averages, 1e-12, False),
    ("monte-carlo-consistency", _check_monte_carlo, 4.0, True),
    ("sweep-exact-mixed-columns", _check_sweep_columns, 1e-10, False),
)


def _result(index: int, tol: float | None, deviation: float, seconds: float) -> InvariantResult:
    """The result of check ``index`` at the deviation it measured."""
    name, _, default_tol, statistical = _CHECKS[index]
    tolerance = default_tol if (statistical or tol is None) else tol
    return InvariantResult(name, deviation, tolerance, deviation <= tolerance, statistical,
                           seconds)


def _run_check(index: int, tol: float | None, seed: int) -> InvariantResult:
    """Run check ``index`` of ``_CHECKS`` on its own stream,
    ``SeedSequence((seed, index))``; ``tol`` and ``seed`` as ``run_checks``
    has checked them. A check that raises ValueError fails with deviation
    inf; any other exception propagates."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    start = time.perf_counter()
    try:
        deviation = float(_CHECKS[index][1](rng))
    except ValueError:
        # e.g. a correction rule off the Pauli lattice has no exact form
        deviation = float("inf")
    return _result(index, tol, deviation, time.perf_counter() - start)


def _load_shared() -> None:
    """Import and build what several checks would each load on first use:
    numpy.random, fractions (which loads decimal), the estimation elements
    and the branch and form banks. Processes forked after this share them."""
    import fractions  # noqa: F401
    import numpy.random  # noqa: F401

    cloning.estimation_elements()
    protocol._branch_bank()
    with suppress(ValueError):    # a correction rule with no exact form
        protocol._form_bank()


def run_checks(tol: float | None = None, seed: int = 0) -> VerifyReport:
    """Run every invariant check and collect the report.

    ``tol``, a finite positive real number recorded as a Python float,
    overrides the tolerance of the deviation-based checks only; statistical
    checks always use their z-score threshold. ``seed`` must be an integer
    >= 0. The CLI's ``--tol`` and ``--seed`` apply the same rules. Each result
    records its check's wall time. A check that raises ValueError fails
    with deviation inf.
    """
    if tol is not None:
        tol = core._check_positive(tol, "tol")
    core._check_count(seed, "seed", 0)
    return VerifyReport(tuple(_run_check(index, tol, seed) for index in range(len(_CHECKS))))
