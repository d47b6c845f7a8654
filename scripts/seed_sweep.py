"""Run verify's checks at every seed of a range and report what failed.

    PYTHONPATH=src python scripts/seed_sweep.py 0 10000

Runs ``verify.run_checks(seed=s)`` for each s in [first, stop), in one
process. A deterministic check that fails is a defect at any seed: each
failure is printed with its seed, and the script exits 1. The
statistical checks gate 13 z-scores at |z| <= 4, so with no defect a
seed fails one of them with probability about 13 P(|Z| > 4) = 8.2e-4.
Those failures are printed with their seeds, beside the count that rate
predicts, and do not fail the script.
"""

from __future__ import annotations

import math
import sys

from clonerestore import protocol, verify

# 4 outcomes and 4 channel errors in measurement-sampling-frequencies,
# 5 states in monte-carlo-consistency
GATES = 13


def main(first: int, stop: int) -> int:
    failed = {False: 0, True: 0}
    for seed in range(first, stop):
        for r in verify.run_checks(seed=seed).results:
            if not r.passed:
                failed[r.statistical] += 1
                kind, unit = ("statistical", "z") if r.statistical else ("deterministic", "dev")
                print(f"FAIL  seed={seed}  {kind}  {r.name}  {unit}={r.deviation:.3e}  "
                      f"tol={r.tolerance:.1e}", flush=True)
    rate = GATES * math.erfc(protocol.Z_GATE / math.sqrt(2))
    print(f"seeds {first}..{stop - 1}: {failed[False]} deterministic failures; "
          f"{failed[True]} statistical failures, about {(stop - first) * rate:.1f} expected "
          f"at {rate:.1e} per seed")
    return 1 if failed[False] else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:3])))
