"""Benchmark workloads: the CLI command each one runs, and its correctness gate.

The workload seed is a benchmark argument. It draws (p_bit, p_ph)
uniformly from [0, 1)^2 and, where the command takes ``--seed``, is also
passed as ``--seed``; the program sees only the generated flags.

Why these three:

- ``sweep-exact`` is the paper's fidelity surface at scale. Its time goes
  to the CLI's per-row formatting and write and to the vectorised plane
  kernel, whose (N, 4, 4, 4) complex intermediate sets the peak memory.
- ``sweep-mc`` makes 2601 small Monte Carlo estimates, one per grid
  point. It bypasses the CSV and kernel costs of ``sweep-exact``, so an
  optimisation of those should leave it unchanged.
- ``verify`` is the scalar per-call path through every layer: 100k
  ``sample_element`` calls, 152k state canonicalisations and 282 scalar
  64-branch enumerations, plus five 100k-trial Monte Carlo estimates.
"""

from __future__ import annotations

import random

import numpy as np

WORKLOADS = ("sweep-exact", "sweep-mc", "verify")

GRID_EXACT = 501
GRID_MC = 51
MC_TRIALS = 2000

# 16/27 is the paper's plane average; 1e-3 is the tolerance of verify's
# plane-averages invariant.
PLANE_AVERAGE = 16.0 / 27.0
AVERAGE_TOL = 1e-3
# Exact and closed-form columns agree to rounding: the fidelity does not
# depend on the channel error rates.
COLUMN_TOL = 1e-10
# Grid coordinates are printed with 12 significant digits.
GRID_TOL = 1e-10
# One aggregate z over all grid points. A per-point 4-sigma test would
# fail on honest code: with 2601 independent points, single points past
# 4 sigma occur (seed 3 at p = (0.3, 0.6) has one at 4.22).
Z_LIMIT = 4.0
VERIFY_TAIL = "verify: 21/21 invariants passed"

# Span names each workload must call; a zero count is reported.
EXPECTED_CALLS = {
    "sweep-exact": (
        "cli.main", "cli.cmd_sweep", "protocol.exact_fidelity_plane",
        "protocol.analytic_fidelity", "protocol.grid_average", "core.state_vector",
        "cloning.estimation_elements",
    ),
    "sweep-mc": (
        "cli.main", "cli.cmd_sweep", "protocol.exact_fidelity_plane", "protocol.mc_estimate",
        "protocol.analytic_fidelity", "protocol.grid_average", "core.make_pure",
        "core.state_vector", "cloning.estimation_elements",
    ),
    "verify": (
        "cli.main", "cli.cmd_verify", "verify.run_checks", "core.sample_element",
        "core.PureQubit.from_vector", "core.make_pure", "core.state_vector",
        "protocol.exact_fidelity", "protocol.branch_statistics", "protocol.exact_fidelity_plane",
        "protocol.mixed_input_fidelity_plane", "protocol.mc_estimate", "protocol.plane_average",
        "protocol.analytic_fidelity", "protocol.grid_average", "cloning.reverse",
        "cloning.post_measurement_state", "cloning.estimation_elements", "linalg.polar_decompose",
    ),
}


class GateError(Exception):
    """The program's exit code or output is wrong."""


def error_rates(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    return rng.random(), rng.random()


def command(workload: str, seed: int, out: str) -> list[str]:
    """CLI arguments of one invocation; ``out`` is the CSV path of a sweep."""
    p_bit, p_ph = error_rates(seed)
    rates = ["--pbit", repr(p_bit), "--pph", repr(p_ph)]
    if workload == "sweep-exact":
        grid = ["--grid-alpha", str(GRID_EXACT), "--grid-phi", str(GRID_EXACT)]
        return ["sweep", "--mode", "exact", *grid, *rates, "--out", out]
    if workload == "sweep-mc":
        grid = ["--grid-alpha", str(GRID_MC), "--grid-phi", str(GRID_MC)]
        return ["sweep", "--mode", "mc", *grid, "--trials", str(MC_TRIALS),
                "--seed", str(seed), *rates, "--out", out]
    if workload == "verify":
        return ["verify", "--seed", str(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def writes_csv(workload: str) -> bool:
    return workload.startswith("sweep")


def check(workload: str, returncode: int, output: bytes) -> None:
    """Raise GateError unless one invocation succeeded with correct output.

    ``output`` is the CSV for a sweep and standard output for verify.
    """
    if returncode != 0:
        raise GateError(f"exit code {returncode}")
    text = output.decode("ascii", errors="replace")
    if workload == "sweep-exact":
        _check_sweep(text, GRID_EXACT, mc=False)
    elif workload == "sweep-mc":
        _check_sweep(text, GRID_MC, mc=True)
    elif workload == "verify":
        _check_verify(text)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _check_sweep(text: str, n: int, *, mc: bool) -> None:
    header = "alpha2,phi,f_exact,f_analytic" + (",f_mc,mc_stderr" if mc else "")
    ncols = header.count(",") + 1
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise GateError("output is empty or does not end in a newline")
    if lines[0] != header:
        raise GateError(f"header is {lines[0][:80]!r}, expected {header!r}")
    body, tail = lines[1:-2], lines[-2]
    if len(body) != n * n:
        raise GateError(f"{len(body)} rows, expected {n * n}")
    if any(row.count(",") != ncols - 1 for row in body):
        raise GateError(f"a row does not have {ncols} fields")
    if not tail.startswith("# average="):
        raise GateError(f"last line is {tail[:80]!r}, expected '# average=...'")
    try:
        table = np.array(",".join(body).split(","), dtype=float).reshape(n * n, ncols)
        average = float(tail[len("# average="):])
    except ValueError as exc:
        raise GateError(f"unparsable number: {exc}") from None
    if not np.all(np.isfinite(table)):
        raise GateError("non-finite value in the table")

    alpha2 = np.repeat(np.linspace(0.0, 1.0, n), n)
    phi = np.tile(2.0 * np.pi * np.arange(n) / n, n)
    if np.max(np.abs(table[:, 0] - alpha2)) > GRID_TOL or np.max(np.abs(table[:, 1] - phi)) > GRID_TOL:
        raise GateError("alpha2/phi columns do not match the grid")
    dev = float(np.max(np.abs(table[:, 2] - table[:, 3])))
    if dev > COLUMN_TOL:
        raise GateError(f"|f_exact - f_analytic| reaches {dev:.3e} > {COLUMN_TOL:.0e}")
    if abs(average - PLANE_AVERAGE) > AVERAGE_TOL:
        raise GateError(f"average {average!r} is not within {AVERAGE_TOL:.0e} of 16/27")
    if mc:
        stderr = table[:, 5]
        if np.any(stderr <= 0.0):
            raise GateError("a Monte Carlo standard error is not positive")
        z = float(np.sum(table[:, 4] - table[:, 2]) / np.sqrt(np.sum(stderr ** 2)))
        if abs(z) > Z_LIMIT:
            raise GateError(f"aggregate Monte Carlo z = {z:.3f}, |z| > {Z_LIMIT}")


def _check_verify(text: str) -> None:
    lines = text.splitlines()
    if not lines or lines[-1] != VERIFY_TAIL:
        raise GateError(f"last line is {lines[-1] if lines else ''!r}, expected {VERIFY_TAIL!r}")
