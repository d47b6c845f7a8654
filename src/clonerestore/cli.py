"""Command line front end: parameter sweeps, verification, Monte Carlo.

Exit codes: 0 on success, 1 when a verification or statistical check
fails, 2 on usage errors, output that cannot be written and counts too
large to allocate. All randomness flows from the --seed flag, so
identical invocations produce identical output bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import nullcontext, suppress

import numpy as np

from . import protocol
from .core import _check_count, _check_positive, _check_probability, make_pure, state_vector
from .verify import run_checks

_MODES = ("exact", "analytic", "mixed", "mc", "baseline")
# alpha^2 rows evaluated, formatted and written at a time. It bounds the
# block's values, digits and text buffer to a few rows whatever
# --grid-alpha is; the bytes written do not depend on it.
_BLOCK_ROWS = 4
# Width of a formatted cell: the longest format(x, ".12g") text, such as
# "-2.22507385851e-308", has 19 characters.
_CELL_WIDTH = 19
# A value whose x * 1e12 lies within 2**-12 of a half-integer, that is
# at least this far from the nearest integer, is a near-tie, left to
# Python's own formatting (see _format_cells).
_TIE_MARGIN = 0.5 - 2.0 ** -12


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@functools.cache
def _digit_groups() -> np.ndarray:
    """Table of the 10**4 four-digit groups "0000" ... "9999".

    ``text[k]`` is group k as one uint32 of four ASCII digits and
    ``text[10**4 + k]`` the same group with its trailing zeros as spaces
    ("1200" -> "12  ", "0000" -> "    "). Built on first use, in place from
    uint8 digits, so importing costs nothing and the build little memory.
    """
    chars = np.empty((2, 10**4, 4), dtype=np.uint8)
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    grid = chars[0].reshape(10, 10, 10, 10, 4)
    for place in range(4):
        grid[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    chars[1] = chars[0]
    trailing = np.ones(10**4, dtype=bool)
    for place in range(3, -1, -1):
        trailing &= chars[0, :, place] == ord("0")
        chars[1, trailing, place] = ord(" ")
    text = chars.view(np.uint32).ravel()
    text.flags.writeable = False
    return text


def _format_cells(x) -> np.ndarray:
    """Text of format(v, ".12g") for each v of ``x``, as ASCII bytes.

    Returns an (N, _CELL_WIDTH) uint8 array with one cell per row, padded
    on the right with spaces, for the N values of ``x`` in C order.

    A cell 0.1 <= v < 1 is written from m = rint(y), y = v * 1e12, when
    m < 1e12 and |y - m| < _TIE_MARGIN. Since y < 2**40 it is within 2**-14
    of the exact product, and y - m is exact, so m is the correctly
    rounded 12-digit integer, and the text is "0." and the digits of m
    without trailing zeros (float(0.1) > 1/10 keeps the exponent at -1).
    The digits are looked up for three 4-digit groups of m, split by float
    floor division, which is exact below 2**53. Every other cell, near-ties
    included, is Python's own "%.12g".
    """
    x = np.ravel(np.asarray(x, dtype=float))
    # clamped into [0, 1] (nan to 1), so nothing below overflows or warns;
    # the clamped values never pass the test for a fast cell
    clamped = np.fmax(np.fmin(x, 1.0), 0.0)
    y = clamped * 1e12
    m = np.rint(y)
    fast = (clamped >= 0.1) & (m < 1e12) & (np.abs(y - m) < _TIE_MARGIN)

    high = np.floor(m / 1e8)
    middle = np.floor((m - high * 1e8) / 1e4)
    low = m - high * 1e8 - middle * 1e4
    # a group with only zero groups after it is looked up with its
    # trailing zeros blanked; the high group of a fast cell is not zero
    low_zero = low == 0
    groups = np.empty((x.size, 3), dtype=np.intp)
    groups[:, 0] = high + (low_zero & (middle == 0)) * 1e4
    groups[:, 1] = middle + low_zero * 1e4
    groups[:, 2] = low + 1e4
    text = _digit_groups()
    chars = np.full((x.size, _CELL_WIDTH), ord(" "), dtype=np.uint8)
    chars[:, 0] = ord("0")
    chars[:, 1] = ord(".")
    # clipped: a cell that is not fast may have groups out of range
    chars[:, 2:14] = text.take(groups, mode="clip").view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = (f"%-{_CELL_WIDTH}.12g" * slow.size) % tuple(x[slow].tolist())
        chars[slow] = np.frombuffer(cells.encode("ascii"), dtype=np.uint8).reshape(-1, _CELL_WIDTH)
    return chars


def _block_text(alpha_chars, phi_chars, cols: list[np.ndarray]) -> str:
    """CSV lines of one block: one per (alpha2, phi) pair, in row order.

    ``alpha_chars`` and ``phi_chars`` are the ``_format_cells`` of the
    block's alpha2 values and of phi; ``cols`` are its value columns,
    each of shape (alpha2 values, phi values). A field takes a slot as
    wide as its longest cell, then a separator, in one byte table;
    dropping the spaces that pad the shorter cells leaves the text.
    """
    lines = (len(alpha_chars), len(phi_chars))
    chars = _format_cells(np.stack(cols, axis=-1)).reshape(lines + (len(cols), _CELL_WIDTH))
    # a slot is as wide as the byte columns of its field that are not all
    # spaces, since no "%.12g" text has a space; reduced over the block's
    # rows first, numpy ORs a few long runs, not one short run per line
    used = [(alpha_chars != ord(" ")).any(axis=0), (phi_chars != ord(" ")).any(axis=0),
            *(chars != ord(" ")).any(axis=0).any(axis=0)]
    widths = [int(np.count_nonzero(u)) for u in used]
    fields = [alpha_chars[:, None], phi_chars] + [chars[:, :, k] for k in range(len(cols))]
    table = np.empty(lines + (sum(widths) + len(widths),), dtype=np.uint8)
    start = 0
    for field, width in zip(fields, widths):
        table[..., start:start + width] = field[..., :width]
        table[..., start + width] = ord(",")
        start += width + 1
    table[..., -1] = ord("\n")
    return table[table != ord(" ")].tobytes().decode("ascii")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number")
    return value


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
    mc.add_argument("--phi", type=_finite_float, default=0.0, help="relative phase in radians")
    mc.add_argument("--pbit", type=p_bit, default=0.0, help="bit-flip probability")
    mc.add_argument("--pph", type=p_ph, default=0.0, help="phase-flip probability")
    mc.add_argument("--trials", type=trials, default=100_000, help="number of trajectories")
    mc.add_argument("--seed", type=seed, default=0, help="random seed")
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
    analytic = protocol.analytic_fidelity(aa, pp)
    if args.mode == "analytic":
        return [analytic, analytic]
    if args.mode == "mixed":
        return [protocol.mixed_input_fidelity_plane(aa, pp), analytic]
    exact = protocol.exact_fidelity_plane(aa, pp, args.pbit, args.pph)
    if args.mode == "exact":
        return [exact, analytic]
    rngs = (np.random.default_rng(np.random.SeedSequence((args.seed, first_row + di, j)))
            for di in range(aa.shape[0]) for j in range(pp.shape[1]))
    means, stderrs = protocol.mc_estimates(state_vector(aa, pp).reshape(-1, 2),
                                           args.pbit, args.pph, args.trials, rngs)
    return [exact, analytic, means.reshape(exact.shape), stderrs.reshape(exact.shape)]


def _write_sweep(args, fh) -> None:
    """Evaluate, format and write the sweep one block of alpha^2 rows at a time."""
    alpha2s = protocol.alpha2_grid(args.grid_alpha)
    phis = protocol.phi_grid(args.grid_phi)
    header = "alpha2,phi,f_exact,f_analytic"
    if args.mode == "mc":
        header += ",f_mc,mc_stderr"
    fh.write(header + "\n")

    # every field is format(x, ".12g"); alpha2 and phi are formatted once
    alpha_chars = _format_cells(alpha2s)
    phi_chars = _format_cells(phis)
    # the averaged column's row means: grid_average of these (n_alpha, 1)
    # means is, bit for bit, grid_average of the whole column
    row_means = np.empty((len(alpha2s), 1))
    for lo in range(0, len(alpha2s), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        cols = _block_columns(args, lo, alpha2s[rows, None], phis[None, :])
        cols[2 if args.mode == "mc" else 0].mean(axis=1, out=row_means[rows, 0])
        fh.write(_block_text(alpha_chars[rows], phi_chars, cols))
    average = protocol.grid_average(row_means)
    fh.write(f"# average={_fmt(average)}\n")


def cmd_sweep(args) -> int:
    with (nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="ascii", newline="")) as fh:
        _write_sweep(args, fh)
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
