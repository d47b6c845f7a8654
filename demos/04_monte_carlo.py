"""Cross-check the exact enumeration with seeded Monte Carlo trajectories.

Each trajectory samples the sender's outcome, one channel error, and the
receiver's outcome, then applies the reversal and correction. The trial
mean of the input-output overlap converges to the exact fidelity; seeded
runs are exactly reproducible.
"""

import numpy as np

from clonerestore import exact_fidelity, make_pure, mc_estimate, run_trajectory

psi = make_pure(0.65, 2.1)
p_bit, p_ph = 0.15, 0.3

print("five single trajectories (seed 42):")
rng = np.random.default_rng(42)
for _ in range(5):
    rec = run_trajectory(psi, p_bit, p_ph, rng)
    print(f"  sender {rec.alice.label}  error {rec.error.name:<14}  "
          f"receiver {rec.bob.label}  overlap {rec.overlap:.6f}")

exact = exact_fidelity(psi, p_bit, p_ph)
print(f"\nexact fidelity: {exact:.9f}")
for trials in (1_000, 10_000, 100_000):
    res = mc_estimate(psi, p_bit, p_ph, trials, np.random.default_rng(7))
    z = res.z(exact)
    print(f"  {trials:>7} trials: mean {res.mean:.6f}  stderr {res.stderr:.6f}  z {z:+.2f}")

again = mc_estimate(psi, p_bit, p_ph, 100_000, np.random.default_rng(7))
print(f"\nsame seed, same estimate: {again == res}")
