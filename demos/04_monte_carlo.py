"""Cross-check the exact enumeration with seeded Monte Carlo trajectories.

Each trajectory samples the sender's outcome, one channel error, and the
receiver's outcome, then applies the reversal and correction. The trial
mean of the input-output overlap converges to the exact fidelity; seeded
runs are exactly reproducible.
"""

import numpy as np

from clonerestore import (
    ErrorType,
    Outcome,
    exact_fidelity,
    make_pure,
    mc_estimates,
    sample_branches,
    z_score,
)

psi = make_pure(0.65, 2.1)
p_bit, p_ph = 0.15, 0.3

print("five single trajectories (seed 42):")
rng = np.random.default_rng(42)
overlaps, branches = next(sample_branches(psi.vector[None], p_bit, p_ph, 5, (rng,)))
for branch, alice, error, bob in zip(branches, *np.unravel_index(branches, (4, 4, 4))):
    print(f"  sender {Outcome(alice).label}  error {ErrorType(error).name:<14}  "
          f"receiver {Outcome(bob).label}  overlap {overlaps[branch]:.6f}")

exact = exact_fidelity(psi, p_bit, p_ph)
print(f"\nexact fidelity: {exact:.9f}")
for trials in (1_000, 10_000, 100_000):
    (mean,), (stderr,) = mc_estimates(psi.vector[None], p_bit, p_ph, trials,
                                      (np.random.default_rng(7),))
    z = z_score(mean, stderr, exact)
    print(f"  {trials:>7} trials: mean {mean:.6f}  stderr {stderr:.6f}  z {z:+.2f}")

(mean_again,), (stderr_again,) = mc_estimates(psi.vector[None], p_bit, p_ph, 100_000,
                                              (np.random.default_rng(7),))
print(f"\nsame seed, same estimate: {(mean_again, stderr_again) == (mean, stderr)}")
