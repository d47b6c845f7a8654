"""Set-up probe, run in a fresh interpreter: import plus first evaluator calls.

Times from just before ``import clonerestore`` until the first one-point
call to each public evaluator the workload uses has returned. Those
first calls fill the package's caches (``estimation_elements``, the
branch banks). Prints one JSON object.

    python3 perfbench/probe.py WORKLOAD P_BIT P_PH SEED
"""

import json
import sys
import time

start = time.perf_counter()

import clonerestore  # noqa: E402
import clonerestore.cli  # noqa: E402,F401
import numpy as np  # noqa: E402
from clonerestore import protocol  # noqa: E402
from clonerestore.cloning import reversed_fidelity, reversed_fidelity_plane  # noqa: E402
from clonerestore.core import make_pure  # noqa: E402


def main(workload: str, p_bit: float, p_ph: float, seed: int) -> None:
    psi = make_pure(0.5, 0.0)
    protocol.analytic_fidelity(0.5, 0.0)
    protocol.exact_fidelity_plane(0.5, 0.0, p_bit, p_ph)
    if workload in ("sweep-mc", "verify"):
        protocol.mc_estimate(psi, p_bit, p_ph, 2, np.random.default_rng(seed))
    if workload == "verify":
        protocol.exact_fidelity(psi, p_bit, p_ph)
        protocol.mixed_input_fidelity(psi)
        protocol.mixed_input_fidelity_plane(0.5, 0.0)
        protocol.baseline_fidelity_plane(0.5, 0.0)
        protocol.run_trajectory(psi, p_bit, p_ph, np.random.default_rng(seed))
        reversed_fidelity(psi)
        reversed_fidelity_plane(0.5, 0.0)
    setup_s = time.perf_counter() - start
    print(json.dumps({
        "setup_s": setup_s,
        "clonerestore": clonerestore.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4]))
