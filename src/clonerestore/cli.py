"""Command line front end: parameter sweeps, verification, Monte Carlo.

Exit codes: 0 on success, 1 when a verification or statistical check
fails, 2 on usage errors. All randomness flows from the --seed flag, so
identical invocations produce identical output bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import protocol
from .core import make_pure, state_vector
from .verify import run_checks

_MODES = ("exact", "analytic", "mixed", "mc", "baseline")
# alpha^2 rows evaluated, formatted and written at a time. It bounds the
# per-block format template and its values to a few rows whatever
# --grid-alpha is; the bytes written do not depend on it.
_BLOCK_ROWS = 4


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return value


def _int_at_least(text: str, minimum: int, what: str) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{value} is not {what}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "a positive count")


def _alpha_count(text: str) -> int:
    # the alpha^2 grid includes both endpoints 0 and 1
    return _int_at_least(text, 2, "an alpha^2 grid size of at least 2")


def _trial_count(text: str) -> int:
    # one trial has no standard error, so its z-score is meaningless
    return _int_at_least(text, 2, "a trial count of at least 2")


def _seed(text: str) -> int:
    return _int_at_least(text, 0, "a non-negative seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonerestore",
        description="Simulate state restoration through cloning-based estimation and reversal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid sweep of the fidelity surface, CSV output")
    sweep.add_argument("--grid-alpha", type=_alpha_count, default=201,
                       help="number of alpha^2 points on [0, 1], endpoints included")
    sweep.add_argument("--grid-phi", type=_positive_int, default=201,
                       help="number of phase points on [0, 2pi), endpoint excluded")
    sweep.add_argument("--mode", choices=_MODES, default="exact",
                       help="fidelity evaluator for the f_exact column and the average")
    sweep.add_argument("--pbit", type=_probability, default=0.0, help="bit-flip probability")
    sweep.add_argument("--pph", type=_probability, default=0.0, help="phase-flip probability")
    sweep.add_argument("--trials", type=_trial_count, default=1000,
                       help="Monte Carlo trajectories per grid point (mode=mc)")
    sweep.add_argument("--seed", type=_seed, default=0, help="base seed for mode=mc")
    sweep.add_argument("--out", default="-", help="output path, or - for standard output")

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--tol", type=_positive_float, default=None,
                        help="override tolerance for the deviation-based invariants")
    verify.add_argument("--seed", type=_seed, default=0, help="seed for the randomized invariants")
    verify.add_argument("--json", action="store_true",
                        help="print one JSON object per invariant, with its wall time")

    mc = sub.add_parser("mc", help="Monte Carlo run at one state, checked against the exact value")
    mc.add_argument("--alpha2", type=_probability, default=1.0, help="population of |0>")
    mc.add_argument("--phi", type=_finite_float, default=0.0, help="relative phase in radians")
    mc.add_argument("--pbit", type=_probability, default=0.0, help="bit-flip probability")
    mc.add_argument("--pph", type=_probability, default=0.0, help="phase-flip probability")
    mc.add_argument("--trials", type=_trial_count, default=100_000, help="number of trajectories")
    mc.add_argument("--seed", type=_seed, default=0, help="random seed")
    return parser


def _block_columns(args, first_row: int, aa: np.ndarray, pp: np.ndarray) -> list[np.ndarray]:
    """Value columns after alpha2,phi for a block of rows starting at ``first_row``.

    Each column has shape (rows in the block, n_phi). The first one is
    the mode's evaluator, the column the ``# average=`` line averages
    except in mc mode, where it is the third (``f_mc``).
    """
    if args.mode == "baseline":
        baseline = protocol.baseline_fidelity_plane(aa, pp)
        return [baseline, baseline]
    shape = (aa.shape[0], pp.shape[1])
    analytic = np.broadcast_to(protocol.analytic_fidelity(aa, pp), shape)
    if args.mode == "analytic":
        return [analytic, analytic]
    if args.mode == "mixed":
        return [protocol.mixed_input_fidelity_plane(aa, pp), analytic]
    exact = protocol.exact_fidelity_plane(aa, pp, args.pbit, args.pph)
    if args.mode == "exact":
        return [exact, analytic]
    f_mc = np.empty(shape)
    mc_err = np.empty(shape)
    # one mc_estimates call per alpha^2 row: its branch tables are built
    # together, and the lazy generators keep one point's stream alive at a time
    for di, a2 in enumerate(aa[:, 0]):
        vectors = state_vector(a2, pp[0])
        rngs = (np.random.default_rng(np.random.SeedSequence((args.seed, first_row + di, j)))
                for j in range(shape[1]))
        f_mc[di], mc_err[di] = protocol.mc_estimates(vectors, args.pbit, args.pph,
                                                     args.trials, rngs)
    return [exact, analytic, f_mc, mc_err]


def _write_sweep(args, fh) -> None:
    """Evaluate, format and write the sweep one block of alpha^2 rows at a time."""
    alpha2s = protocol.alpha2_grid(args.grid_alpha)
    phis = protocol.phi_grid(args.grid_phi)
    header = "alpha2,phi,f_exact,f_analytic"
    if args.mode == "mc":
        header += ",f_mc,mc_stderr"
    fh.write(header + "\n")

    # A row's template is alpha2.join(phi_pieces): every line starts with
    # the row's alpha2, then the phi formatted once per run, then one %.12g
    # per value column. "%.12g" % x gives the same bytes as _fmt(x).
    n_values = header.count(",") - 1
    phi_pieces = [""] + [f",{_fmt(phi)}" + ",%.12g" * n_values + "\n" for phi in phis]
    averaged = np.empty((len(alpha2s), len(phis)))
    for lo in range(0, len(alpha2s), _BLOCK_ROWS):
        block = alpha2s[lo:lo + _BLOCK_ROWS]
        cols = _block_columns(args, lo, block[:, None], phis[None, :])
        averaged[lo:lo + len(block)] = cols[2 if args.mode == "mc" else 0]
        template = "".join(_fmt(a2).join(phi_pieces) for a2 in block)
        fh.write(template % tuple(np.stack(cols, axis=-1).ravel().tolist()))
    average = protocol.grid_average(averaged)
    fh.write(f"# average={_fmt(average)}\n")


def cmd_sweep(args) -> int:
    try:
        with (nullcontext(sys.stdout) if args.out == "-"
              else open(args.out, "w", newline="")) as fh:
            _write_sweep(args, fh)
    except OSError as exc:
        print(f"sweep: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    report = run_checks(tol=args.tol, seed=args.seed)
    for line in report.json_lines() if args.json else report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_mc(args) -> int:
    psi = make_pure(args.alpha2, args.phi)
    exact = protocol.exact_fidelity(psi, args.pbit, args.pph)
    rng = np.random.default_rng(args.seed)
    (mean,), (stderr,) = protocol.mc_estimates(psi.vector[None], args.pbit, args.pph,
                                               args.trials, (rng,))
    z = protocol.z_score(mean, stderr, exact)
    print(f"alpha2={_fmt(args.alpha2)}")
    print(f"phi={_fmt(args.phi)}")
    print(f"trials={args.trials}")
    print(f"seed={args.seed}")
    print(f"mean={_fmt(mean)}")
    print(f"stderr={_fmt(stderr)}")
    print(f"exact={_fmt(exact)}")
    print(f"z={_fmt(z)}")
    ok = abs(z) <= 4.0
    print("PASS (|z| <= 4)" if ok else "FAIL (|z| > 4)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_mc(args)


if __name__ == "__main__":
    sys.exit(main())
