"""Command line front end: parameter sweeps, verification, Monte Carlo.

This module holds the argument parser and the three commands. The sweep's
CSV writer is the ``sweep`` module, which ``cmd_sweep`` alone imports, so
``mc`` and ``verify`` never compile it.

Exit codes: 0 on success, 1 when a verification or statistical check
fails, 2 on usage errors, output that cannot be written and counts too
large to allocate. All randomness flows from the --seed flag, so
identical invocations produce identical output bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress

import numpy as np

from . import protocol, verify
from .core import _check_count, _check_finite, _check_positive, _check_probability, make_pure

_MODES = ("exact", "analytic", "mixed", "mc", "baseline")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _checked(convert, check, *args):
    """An argparse type: ``convert`` the text, then apply the library's rule
    ``check(value, *args)``, whose ValueError text becomes the usage error.
    Text that does not convert reads as before: "invalid int value: 'x'"."""
    def parse(text: str):
        value = convert(text)
        try:
            check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonerestore",
        description="Simulate state restoration through cloning-based estimation and reversal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each numeric flag applies the rule of the API argument it feeds
    p_bit = _checked(float, _check_probability, "p_bit")
    p_ph = _checked(float, _check_probability, "p_ph")
    seed = _checked(int, _check_count, "seed", 0)
    # one trial has no standard error, so its z-score is meaningless
    trials = _checked(int, protocol._check_trials, 2)

    sweep = sub.add_parser("sweep", help="grid sweep of the fidelity surface, CSV output")
    sweep.add_argument("--grid-alpha", type=_checked(int, _check_count, "n_alpha", 2),
                       default=201, help="number of alpha^2 points on [0, 1], endpoints included")
    sweep.add_argument("--grid-phi", type=_checked(int, _check_count, "n_phi", 1),
                       default=201, help="number of phase points on [0, 2pi), endpoint excluded")
    sweep.add_argument("--mode", choices=_MODES, default="exact",
                       help="fidelity evaluator for the f_exact column and the average")
    sweep.add_argument("--pbit", type=p_bit, default=0.0, help="bit-flip probability")
    sweep.add_argument("--pph", type=p_ph, default=0.0, help="phase-flip probability")
    sweep.add_argument("--trials", type=trials, default=1000,
                       help="Monte Carlo trajectories per grid point (mode=mc)")
    sweep.add_argument("--seed", type=seed, default=0, help="base seed for mode=mc")
    sweep.add_argument("--out", default="-", help="output path, or - for standard output")

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--tol", type=_checked(float, _check_positive, "tol"), default=None,
                        help="override tolerance for the deviation-based invariants")
    verify.add_argument("--seed", type=seed, default=0, help="seed for the randomized invariants")
    verify.add_argument("--json", action="store_true",
                        help="print one JSON object per invariant, with its wall time")

    mc = sub.add_parser("mc", help="Monte Carlo run at one state, checked against the exact value")
    mc.add_argument("--alpha2", type=_checked(float, _check_probability, "alpha2"),
                    default=1.0, help="population of |0>")
    mc.add_argument("--phi", type=_checked(float, _check_finite, "phi"), default=0.0,
                    help="relative phase in radians")
    mc.add_argument("--pbit", type=p_bit, default=0.0, help="bit-flip probability")
    mc.add_argument("--pph", type=p_ph, default=0.0, help="phase-flip probability")
    mc.add_argument("--trials", type=trials, default=100_000, help="number of trajectories")
    mc.add_argument("--seed", type=seed, default=0, help="random seed")
    return parser


def cmd_sweep(args) -> int:
    from . import sweep    # the writer is compiled by a sweep alone

    if args.out != "-":
        with open(args.out, "wb") as fh:
            sweep._write_sweep(args, fh.write)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()    # text already printed goes first
        sweep._write_sweep(args, sys.stdout.buffer.write)
    else:    # a text stream, such as the io.StringIO of an in-process caller
        sweep._write_sweep(args, lambda data: sys.stdout.write(data.decode("ascii")))
    return 0


def cmd_verify(args) -> int:
    report = verify.command_report(args.tol, args.seed)
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
    ok = abs(z) <= protocol.Z_GATE
    print(f"PASS (|z| <= {protocol.Z_GATE:g})" if ok else f"FAIL (|z| > {protocol.Z_GATE:g})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", "-")
    try:
        code = {"sweep": cmd_sweep, "verify": cmd_verify, "mc": cmd_mc}[args.command](args)
        sys.stdout.flush()
        return code
    except MemoryError as exc:
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"{args.command}: cannot write {out}: {exc}", file=sys.stderr)
        if out == "-":
            # Python's recipe: the flush at exit goes to os.devnull, not the closed pipe
            with suppress(OSError):    # in-process, stdout may have no descriptor
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    return 2


if __name__ == "__main__":
    sys.exit(main())
