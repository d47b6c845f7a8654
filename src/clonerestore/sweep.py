"""The sweep's CSV writer: the fidelity surface on the alpha^2 x phi grid,
evaluated, formatted and written a block of alpha^2 rows at a time.

Every field is format(x, ".12g"). The text is made as bytes, with numpy
digit tables, in one byte table reused by every block, and the bytes are
written as they are. Only ``clonerestore sweep`` imports this module; an
mc sweep alone imports ``_pool`` for its workers.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext

import numpy as np

from . import core, protocol

# alpha^2 rows evaluated, formatted and written at a time. It bounds the
# block's values and byte table to a few rows whatever --grid-alpha is;
# the bytes written do not depend on it.
_BLOCK_ROWS = 4
# Width of a value slot: the longest format(x, ".12g") text, such as
# "-2.22507385851e-308", has 19 characters.
_CELL_WIDTH = 19
# What a value slot holds before its cell is written: a fast cell (see
# _fill_cells) writes only the 12 bytes after "0.".
_FRAME = np.frombuffer(b"0." + b" " * (_CELL_WIDTH - 2), dtype=np.uint8)
# A value whose x * 1e12 lies within 2**-12 of a half-integer, that is
# at least this far from the nearest integer, is a near-tie, left to
# Python's own formatting (see _fill_cells).
_TIE_MARGIN = 0.5 - 2.0 ** -12
# An mc sweep whose Monte Carlo work, in trials, is below _FORK_TRIALS
# stays in one process: forking and hearing from a worker costs about as
# much. A point's own cost (its generator, its share of the branch tables)
# counts as _POINT_TRIALS trials beside its --trials.
_FORK_TRIALS = 2 ** 18
_POINT_TRIALS = 2 ** 10


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


def _fill_cells(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write format(v, ".12g") of each v of the float array ``x``, padded on
    the right with spaces, into ``cells``, of shape x.shape + (_CELL_WIDTH,),
    whose cells hold _FRAME. Returns the mask of the cells that no longer do.

    A cell 0.1 <= v < 1 is fast: it is written from m = rint(y), y = v * 1e12,
    when m < 1e12 and |y - m| < _TIE_MARGIN. Since y < 2**40 it is within
    2**-14 of the exact product, and y - m is exact, so m is the correctly
    rounded 12-digit integer, and the text is "0." and the digits of m
    without trailing zeros (float(0.1) > 1/10 keeps the exponent at -1).
    The digits are looked up for three 4-digit groups of m, split in
    integers, and stored after the frame's "0."; a group with only zero
    groups after it is looked up with its trailing zeros blanked. Every
    other cell, near-ties included, is Python's own "%.12g", written whole.
    """
    # clamped into [0, 1] (nan to 1), so nothing below overflows or warns;
    # the clamped values never pass the test for a fast cell. In place
    # where it can, so that few of the block's temporaries live at once.
    y = np.fmax(np.fmin(x, 1.0), 0.0)
    fast = y >= 0.1
    y *= 1e12
    m = np.rint(y)
    fast &= m < 1e12
    y -= m
    fast &= np.abs(y, out=y) < _TIE_MARGIN
    del y

    m = m.astype(np.intp)
    groups = np.empty((3,) + x.shape, dtype=np.intp)
    high, middle, low = groups
    np.floor_divide(m, 10**8, out=high)
    m -= high * 10**8    # the low 8 digits
    np.floor_divide(m, 10**4, out=middle)
    np.subtract(m, middle * 10**4, out=low)
    np.add(high, 10**4, out=high, where=m == 0)
    np.add(middle, 10**4, out=middle, where=low == 0)
    low += 10**4
    del m
    # clipped: a cell that is not fast may have a group out of range
    digits = _digit_groups().take(groups, mode="clip")
    cells[..., 2:14].view(np.uint32)[...] = np.moveaxis(digits, 0, -1)

    slow = ~fast
    if slow.any():
        texts = (f"%-{_CELL_WIDTH}.12g" * np.count_nonzero(slow)) % tuple(x[slow].tolist())
        cells[slow] = np.frombuffer(texts.encode("ascii"), dtype=np.uint8).reshape(-1, _CELL_WIDTH)
    return slow


def _format_cells(x) -> np.ndarray:
    """``_fill_cells`` of the N values of ``x`` in C order, as a new
    (N, _CELL_WIDTH) uint8 array with one cell per row."""
    x = np.ravel(np.asarray(x, dtype=float))
    cells = np.empty((x.size, _CELL_WIDTH), dtype=np.uint8)
    cells[:] = _FRAME
    _fill_cells(x, cells)
    return cells


def _trimmed(cells: np.ndarray) -> np.ndarray:
    """``_format_cells`` output cut to its longest cell: the byte columns
    that are not all spaces, since no "%.12g" text has a space."""
    return cells[:, :np.count_nonzero((cells != ord(" ")).any(axis=0))]


def _line_table(rows: int, alpha_width: int, phi_cells: np.ndarray, columns: int) -> np.ndarray:
    """The byte table the sweep's blocks are written into, one per run.

    Its shape is (rows, phi values, line width): one line per (alpha2, phi)
    pair, a slot of alpha_width bytes for alpha2, then ``phi_cells``, then
    ``columns`` value slots of _CELL_WIDTH bytes, each field followed by a
    comma, the last by a newline. The commas, newlines and phi cells are
    written here; every value slot holds _FRAME (see ``_block_text``).
    """
    phi_width = phi_cells.shape[1]
    table = np.empty((rows, len(phi_cells), alpha_width + phi_width + 2
                      + columns * (_CELL_WIDTH + 1)), dtype=np.uint8)
    table[..., alpha_width] = ord(",")
    table[..., alpha_width + 1:alpha_width + 1 + phi_width] = phi_cells
    table[..., alpha_width + 1 + phi_width] = ord(",")
    slots = _value_slots(table, columns)
    slots[..., :_CELL_WIDTH] = _FRAME
    slots[..., _CELL_WIDTH] = ord(",")
    table[..., -1] = ord("\n")
    return table


def _value_slots(lines: np.ndarray, columns: int) -> np.ndarray:
    """The value slots, separators included, of ``_line_table`` lines."""
    slots = lines[..., -columns * (_CELL_WIDTH + 1):]
    return slots.reshape(lines.shape[:-1] + (columns, _CELL_WIDTH + 1))


def _block_text(table: np.ndarray, alpha_cells: np.ndarray, cols: list[np.ndarray]) -> bytes:
    """CSV lines of one block, as ASCII bytes: one per (alpha2, phi) pair,
    in row order.

    ``table`` is the run's ``_line_table``, ``alpha_cells`` the block's
    alpha2 cells cut to the table's alpha2 slot, and ``cols`` its value
    columns, each of shape (alpha2 values, phi values). The alpha2 and
    value cells are written into the table's first rows; dropping the
    spaces that pad the shorter cells leaves the text. The value slots of
    the cells that were not fast hold _FRAME again on return, so the next
    block finds the table as ``_line_table`` left it.
    """
    lines = table[:len(alpha_cells)]
    lines[..., :alpha_cells.shape[1]] = alpha_cells[:, None]
    cells = _value_slots(lines, len(cols))[..., :_CELL_WIDTH]
    slow = _fill_cells(np.stack(cols, axis=-1), cells)
    text = lines.tobytes().translate(None, b" ")
    cells[slow] = _FRAME
    return text


def _column_plan(args, phis: np.ndarray):
    """The sweep's f_exact and f_analytic columns, planned once per run:
    each evaluator's phi terms are computed here.

    Returns ``columns(aa)``, the two columns of the block of alpha2 rows
    ``aa``, shape (rows, 1), each of shape (rows, n_phi). The first is the
    mode's evaluator, the column the ``# average=`` line averages except in
    mc mode, whose mc columns come from ``_mc_pool``.
    """
    if args.mode == "baseline":
        return lambda aa: [protocol.baseline_fidelity_plane(aa, phis)] * 2
    analytic = protocol._analytic_rows(phis)
    if args.mode == "analytic":
        return lambda aa: [analytic(aa)] * 2
    if args.mode == "mixed":
        mixed = core._form_rows(protocol._form_bank()[4], phis)
        return lambda aa: [mixed(aa), analytic(aa)]
    exact = core._form_rows(protocol._exact_form(args.pbit, args.pph), phis)
    return lambda aa: [exact(aa), analytic(aa)]


def _mc_processes(args) -> int:
    """How many processes share an mc sweep's Monte Carlo work: one per CPU
    (``_pool.processes``), but no more than a block has points, and just one
    where the work is below _FORK_TRIALS."""
    from . import _pool

    points = args.grid_alpha * args.grid_phi
    if points * (args.trials + _POINT_TRIALS) < _FORK_TRIALS:
        return 1
    return _pool.processes(min(_BLOCK_ROWS, args.grid_alpha) * args.grid_phi)


@contextmanager
def _mc_pool(args, alpha2s: np.ndarray, phis: np.ndarray):
    """Yield ``mc_estimates(first_row)``: the Monte Carlo means and standard
    errors, in row-major order, of the states of the block of rows from
    ``first_row``, where grid point (i, j) draws from
    ``SeedSequence((seed, i, j))``.

    A block's points, in row-major order, are split into contiguous shares,
    one per process (``_mc_processes``); ``share`` builds the states and
    generators of one share alone. Worker k, forked here, computes share k
    of every block in turn and sends its means and standard errors through
    its own pipe as raw float64 bytes; the caller computes share 0. A
    state's estimate does not depend on the states that share its
    ``protocol.mc_estimates`` call, so the values do not depend on the
    number of processes. The share of a worker that could not start, died
    or sent too few bytes is computed by the caller, and no later share is
    asked of it (see ``_pool.receive``).
    """
    from . import _pool

    processes = _mc_processes(args)
    n_phi = len(phis)
    # numpy.random is imported on first use: once here, not in each worker
    default_rng, seed_sequence = np.random.default_rng, np.random.SeedSequence

    def points(k, first_row):
        # share k of the block from first_row: grid points p = i * n_phi + j
        start, size = first_row * n_phi, min(_BLOCK_ROWS, len(alpha2s) - first_row) * n_phi
        return range(start + k * size // processes, start + (k + 1) * size // processes)

    def share(k, first_row):
        p = points(k, first_row)
        i, j = np.divmod(np.arange(p.start, p.stop), n_phi)
        rngs = (default_rng(seed_sequence((args.seed, *ij))) for ij in zip(i, j))
        vectors = core.state_vector(alpha2s[i], phis[j])
        return protocol.mc_estimates(vectors, args.pbit, args.pph, args.trials, rngs)

    def work(k, fd):
        for first_row in range(0, len(alpha2s), _BLOCK_ROWS):
            _pool.send(fd, np.concatenate(share(k, first_row)))

    def mc_estimates(first_row):
        shares = [share(0, first_row)]
        for k in range(1, processes):
            size = len(points(k, first_row))
            data = _pool.receive(workers, k, 16 * size)
            shares.append(share(k, first_row) if data is None
                          else np.frombuffer(data).reshape(2, size))
        return np.concatenate(shares, axis=1)

    with _pool.workers(processes - 1, work) as workers:
        yield mc_estimates


def _write_sweep(args, write) -> None:
    """Evaluate, format and write the sweep one block of alpha^2 rows at a
    time, each piece of the CSV passed to ``write`` as ASCII bytes.

    What does not depend on the block is done once per run: the
    evaluators' phi terms (``_column_plan``), the alpha2 and phi cells, and
    the byte table (``_line_table``) every block is written into.
    """
    alpha2s = protocol.alpha2_grid(args.grid_alpha)
    phis = protocol.phi_grid(args.grid_phi)
    mc = args.mode == "mc"
    write(b"alpha2,phi,f_exact,f_analytic" + (b",f_mc,mc_stderr" if mc else b"") + b"\n")

    # every field is format(x, ".12g")
    alpha_cells = _trimmed(_format_cells(alpha2s))
    table = _line_table(min(_BLOCK_ROWS, len(alpha2s)), alpha_cells.shape[1],
                        _trimmed(_format_cells(phis)), 4 if mc else 2)
    # the averaged column's row means: grid_average of these (n_alpha, 1)
    # means is, bit for bit, grid_average of the whole column
    row_means = np.empty((len(alpha2s), 1))
    with _mc_pool(args, alpha2s, phis) if mc else nullcontext() as mc_estimates:
        columns = _column_plan(args, phis)
        for lo in range(0, len(alpha2s), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            cols = columns(alpha2s[rows, None])
            if mc:
                cols += [c.reshape(cols[0].shape) for c in mc_estimates(lo)]
            cols[2 if mc else 0].mean(axis=1, out=row_means[rows, 0])
            write(_block_text(table, alpha_cells[rows], cols))
    average = protocol.grid_average(row_means)
    write(b"# average=%.12g\n" % average)
