import errno
import functools
import hashlib
import io
import json
import math
import os
import shlex
import signal
import subprocess
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonerestore import _pool, cli, core, protocol, verify
from clonerestore.cli import main
from clonerestore.core import make_pure
from clonerestore.verify import run_checks

ROOT = Path(__file__).resolve().parents[1]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[-1].startswith("# average=")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    average = float(lines[-1].split("=", 1)[1])
    return header, rows, average


def expected_sweep(mode, n_alpha, n_phi, pbit=0.0, pph=0.0, trials=0, seed=0):
    """The sweep CSV built from the public API: whole-plane evaluators,
    one SeedSequence((seed, i, j)) per point in mc mode, and
    format(x, ".12g") field by field."""
    alpha2s = protocol.alpha2_grid(n_alpha)
    phis = protocol.phi_grid(n_phi)
    aa, pp = alpha2s[:, None], phis[None, :]
    shape = (n_alpha, n_phi)
    analytic = np.broadcast_to(protocol.analytic_fidelity(aa, pp), shape)
    if mode in ("exact", "mc"):
        primary = protocol.exact_fidelity_plane(aa, pp, pbit, pph)
    elif mode == "mixed":
        primary = protocol.mixed_input_fidelity_plane(aa, pp)
    elif mode == "analytic":
        primary = analytic
    else:
        primary = analytic = np.broadcast_to(protocol.baseline_fidelity_plane(aa, pp), shape)
    averaged = np.empty(shape) if mode == "mc" else primary
    lines = ["alpha2,phi,f_exact,f_analytic" + (",f_mc,mc_stderr" if mode == "mc" else "")]
    for i, a2 in enumerate(alpha2s):
        for j, phi in enumerate(phis):
            fields = [a2, phi, primary[i, j], analytic[i, j]]
            if mode == "mc":
                rng = np.random.default_rng(np.random.SeedSequence((seed, i, j)))
                (mean,), (stderr,) = protocol.mc_estimates(make_pure(a2, phi).vector[None],
                                                           pbit, pph, trials, (rng,))
                fields += [mean, stderr]
                averaged[i, j] = mean
            lines.append(",".join(format(float(x), ".12g") for x in fields))
    average = protocol.grid_average(averaged)
    lines.append(f"# average={format(average, '.12g')}")
    return "\n".join(lines) + "\n"


def near_ties(values):
    """How many values the sweep writer leaves to Python's "%.12g" as
    near-ties: in [0.1, 1), with x * 1e12 within 2**-12 of a half-integer."""
    values = np.asarray(values, dtype=float)
    y = values * 1e12
    tie = np.abs(y - np.rint(y)) >= 0.5 - 2.0 ** -12
    return int(np.count_nonzero((values >= 0.1) & (values < 1.0) & tie))


def cell_texts(values):
    """The texts of cli._format_cells, checking that each is padded with spaces
    and has none of its own."""
    chars = cli._format_cells(values)
    assert chars.shape == (len(values), cli._CELL_WIDTH)
    texts = [bytes(row).decode("ascii").rstrip(" ") for row in chars]
    assert not any(" " in text for text in texts)
    return texts


def average_lines(exact, ulps=8):
    """The "# average=" lines of the doubles within ``ulps`` units in the
    last place of ``exact``: grid_average's rounding, not a fixed text,
    since a 12-digit rounding boundary may fall next to the value."""
    x = float(exact)
    return {f"# average={x + k * math.ulp(x):.12g}" for k in range(-ulps, ulps + 1)}


class TestFormatCells:
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_matches_format(self, values):
        # st.floats() draws nan, infinities, subnormals and -0.0
        assert cell_texts(values) == [format(v, ".12g") for v in values]

    # (k + 0.5) / 1e12 and its neighbours: the cells whose 12th digit
    # rounds at a tie or within a few ulps of one
    @given(cells=st.lists(st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-1, 1)),
                          min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_matches_format_near_ties(self, cells):
        values = [float(np.nextafter((k + 0.5) / 1e12, math.copysign(math.inf, step)))
                  if step else (k + 0.5) / 1e12 for k, step in cells]
        assert cell_texts(values) == [format(v, ".12g") for v in values]

    @pytest.mark.parametrize("value", [
        float(np.nextafter(0.1, 0)), float(np.nextafter(0.1, 1)), 0.1,
        0.9999999999995, 1 - 2.0 ** -53, 0.0999999999999996, 1e300,
        1e308, -1e308, math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, 5e-324,
        -2.2250738585072014e-308, 0.5001220703125,
    ])
    def test_edge_values(self, value):
        assert cell_texts([value]) == [format(value, ".12g")]

    def test_digit_tables_are_built_on_first_use(self, run_python):
        script = ("import clonerestore.cli as cli\n"
                  "print(cli._digit_groups.cache_info().currsize)\n")
        proc = run_python("-c", script, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")


_EXACT_11x9 = "2c23ece7f1974d5edbfbc9f20defc89cae4771d6807cd90f6229e88b49217022"


# Whole-output sha256 digests, so a refactor that keeps every number but
# moves a byte shows up here. analytic and mixed agree with exact on this grid.
GOLDEN = [
    (["sweep", "--grid-alpha", "11", "--grid-phi", "9", "--mode", "exact",
      "--pbit", "0.3", "--pph", "0.6", "--out", "-"], _EXACT_11x9),
    (["sweep", "--grid-alpha", "11", "--grid-phi", "9", "--mode", "analytic",
      "--pbit", "0.3", "--pph", "0.6", "--out", "-"], _EXACT_11x9),
    (["sweep", "--grid-alpha", "11", "--grid-phi", "9", "--mode", "mixed",
      "--pbit", "0.3", "--pph", "0.6", "--out", "-"], _EXACT_11x9),
    (["sweep", "--grid-alpha", "11", "--grid-phi", "9", "--mode", "baseline", "--out", "-"],
     "737d1cbbe7103757662e1fee144acf84518e8b8ae425d8341e934a2a572590cf"),
    (["sweep", "--grid-alpha", "5", "--grid-phi", "3", "--mode", "mc", "--trials", "200",
      "--seed", "3", "--pbit", "0.1", "--pph", "0.2", "--out", "-"],
     "95d2fef9cad5a0620c57705babd176e3c4592c8e75a5589cd972c4fcbe830a4f"),
    (["mc", "--alpha2", "0.3", "--phi", "2.0", "--pbit", "0.2", "--pph", "0.1",
      "--trials", "20000", "--seed", "123"],
     "e7017cd3ec5bdedee09b600b9e5ea01e5802cad52d58d737350bdd94929c3adc"),
    # the edges of the Monte Carlo sampler: a partial last block with zero
    # rates and the minimum trial count, certain errors (zero-width steps
    # in the cumulative tables), and the pole under a certain bit flip
    (["sweep", "--grid-alpha", "6", "--grid-phi", "4", "--mode", "mc", "--trials", "2",
      "--seed", "0", "--out", "-"],
     "18870d33adc11a16cfe0fc24b91b7497ea3bbf52f04f5764d90b77668bed0b8f"),
    (["sweep", "--grid-alpha", "3", "--grid-phi", "2", "--mode", "mc", "--trials", "500",
      "--seed", "7", "--pbit", "1", "--pph", "1", "--out", "-"],
     "a8ea6538c665b29267d6b9e74d7d68474c50365e5d3afa4c56a2da7e78b6fb12"),
    (["mc", "--alpha2", "1", "--phi", "0", "--pbit", "1", "--pph", "0", "--trials", "1000",
      "--seed", "5"],
     "0378a54e3bd84d1a56606beed977f83b680cd2bfdb4d053c2f36f350972ecdcf"),
    # a row of 41 points at 1000 trials spans several full sampler blocks
    # and a partial last one
    (["sweep", "--grid-alpha", "3", "--grid-phi", "41", "--mode", "mc", "--trials", "1000",
      "--seed", "11", "--pbit", "0.3", "--pph", "0.6", "--out", "-"],
     "5cc66f9a1c88d3738c3f12c53cae341a260bf9492b6d09ff51e5ce2e512cbf70"),
]
GOLDEN_IDS = ["sweep-exact", "sweep-analytic", "sweep-mixed", "sweep-baseline", "sweep-mc", "mc",
              "sweep-mc-two-trials", "sweep-mc-certain-errors", "mc-pole-bit-flip",
              "sweep-mc-sampler-blocks"]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_bytes(argv, digest):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestSweep:
    # 11, 3 and 101 alpha^2 rows are not multiples of the writer's block
    # size, so the last block is partial.
    @pytest.mark.parametrize("mode, n_alpha, n_phi, extra", [
        ("exact", 11, 9, dict(pbit=0.3, pph=0.6)),
        ("mixed", 11, 9, {}),
        ("analytic", 11, 9, {}),
        ("baseline", 11, 9, {}),
        ("exact", 2, 1, {}),
        ("mc", 11, 9, dict(pbit=0.2, pph=0.7, trials=50, seed=4)),
        ("mc", 3, 2, dict(trials=200, seed=9)),
        ("exact", 101, 103, dict(pbit=0.3, pph=0.6)),
    ])
    def test_writer_contract(self, tmp_path, mode, n_alpha, n_phi, extra):
        if (n_alpha, n_phi) == (101, 103):
            # this grid is here for its near-tie values, which the writer
            # leaves to Python's own "%.12g"
            aa = protocol.alpha2_grid(n_alpha)[:, None]
            pp = protocol.phi_grid(n_phi)[None, :]
            assert near_ties(protocol.exact_fidelity_plane(aa, pp, 0.3, 0.6)) > 0
        argv = ["sweep", "--mode", mode, "--grid-alpha", str(n_alpha),
                "--grid-phi", str(n_phi)]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        code, out, err = run_cli(argv + ["--out", "-"])
        assert (code, err) == (0, "")
        assert out == expected_sweep(mode, n_alpha, n_phi, **extra)
        target = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(argv + ["--out", str(target)])
        assert (code, stdout) == (0, "")
        assert target.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("block_rows", [1, 3, 64])
    @pytest.mark.parametrize("mode, n_alpha, n_phi, extra", [
        ("exact", 11, 9, dict(pbit=0.3, pph=0.6)),
        ("mixed", 11, 9, {}),
        ("analytic", 11, 9, {}),
        ("baseline", 11, 9, {}),
        ("mc", 7, 5, dict(pbit=0.2, pph=0.7, trials=50, seed=4)),
    ])
    def test_bytes_do_not_depend_on_block_size(self, monkeypatch, block_rows, mode, n_alpha,
                                               n_phi, extra):
        # expected_sweep averages the whole grid at once, the writer the
        # row means of its blocks
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        argv = ["sweep", "--mode", mode, "--grid-alpha", str(n_alpha), "--grid-phi", str(n_phi)]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out == expected_sweep(mode, n_alpha, n_phi, **extra)

    def test_sweep_loads_neither_fractions_nor_decimal(self, run_python):
        # the exact forms are compiled in integers; only bloch_form, which
        # the sweep never calls, needs Fraction (and so decimal)
        script = (
            "import contextlib, io, sys\n"
            "from clonerestore.cli import main\n"
            "for mode in ('exact', 'mixed', 'mc'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        main(['sweep', '--mode', mode, '--grid-alpha', '3', '--grid-phi', '2',"
            " '--trials', '2', '--pbit', '0.3'])\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
        proc = run_python("-c", script, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")

    def test_commands_load_no_process_module(self, run_python):
        # the mc sweep and verify fork their workers with os alone: every
        # command's start-up stays free of multiprocessing,
        # concurrent.futures and subprocess
        script = (
            "import contextlib, io, os, sys\n"
            "from clonerestore import _pool, cli\n"
            "_pool.cpus, cli._FORK_TRIALS = (lambda: 2), 0\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "for argv in [['sweep', '--mode', mode, '--grid-alpha', '3', '--grid-phi', '2',"
            " '--trials', '2'] for mode in cli._MODES] + [['mc', '--trials', '100'], ['verify']]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv)\n"
            "print(len(forks), sorted({'multiprocessing', 'concurrent.futures', 'subprocess'}"
            " & set(sys.modules)))\n")
        proc = run_python("-c", script, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "2 []\n")

    def test_only_forking_commands_import_the_pool(self, run_python):
        # the worker module is compiled by an mc sweep and verify alone
        script = (
            "import contextlib, io, sys\n"
            "from clonerestore import cli\n"
            "for argv in [['sweep', '--mode', mode, '--grid-alpha', '3', '--grid-phi', '2']"
            " for mode in ('exact', 'mixed', 'analytic', 'baseline')] + [['mc', '--trials', '100']]"
            " + [sys.argv[1:]]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv)\n"
            "    print('clonerestore._pool' in sys.modules)\n")
        for argv in (["sweep", "--mode", "mc", "--grid-alpha", "2", "--grid-phi", "1",
                      "--trials", "2"], ["verify"]):
            proc = run_python("-c", script, *argv, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.split() == ["False"] * 5 + ["True"]

    def test_analytic_two_by_two(self):
        code, out, _ = run_cli(["sweep", "--grid-alpha", "2", "--grid-phi", "2",
                                "--mode", "analytic", "--out", "-"])
        assert code == 0
        assert "\r" not in out
        header, rows, _ = parse_csv(out)
        assert header == ["alpha2", "phi", "f_exact", "f_analytic"]
        assert len(rows) == 4
        for row in rows:
            assert float(row[0]) in (0.0, 1.0)
            assert row[3] == "0.555555555556"

    def test_exact_and_mixed_columns_agree(self):
        base = ["--grid-alpha", "11", "--grid-phi", "9", "--out", "-"]
        _, out_exact, _ = run_cli(["sweep", "--mode", "exact",
                                   "--pbit", "0.25", "--pph", "0.4"] + base)
        _, out_mixed, _ = run_cli(["sweep", "--mode", "mixed"] + base)
        _, rows_exact, _ = parse_csv(out_exact)
        _, rows_mixed, _ = parse_csv(out_mixed)
        for re_, rm in zip(rows_exact, rows_mixed):
            assert re_[:2] == rm[:2]
            assert abs(float(re_[2]) - float(rm[2])) < 1e-10

    def test_mc_mode_columns_and_determinism(self):
        argv = ["sweep", "--mode", "mc", "--grid-alpha", "3", "--grid-phi", "2",
                "--trials", "500", "--seed", "9", "--out", "-"]
        code, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert code == 0
        assert out1 == out2
        header, rows, _ = parse_csv(out1)
        assert header == ["alpha2", "phi", "f_exact", "f_analytic", "f_mc", "mc_stderr"]
        for row in rows:
            assert abs(float(row[4]) - float(row[2])) <= 6 * max(float(row[5]), 1e-3)

    def test_writes_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(["sweep", "--grid-alpha", "3", "--grid-phi", "2",
                                "--mode", "analytic", "--out", str(target)])
        assert code == 0
        assert out == ""
        text = target.read_text()
        header, rows, _ = parse_csv(text)
        assert len(rows) == 6
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.parametrize("old_size", [100_000, 10])
    def test_out_replaces_existing_file(self, tmp_path, old_size):
        # the file is truncated when it is opened
        argv = ["sweep", "--grid-alpha", "5", "--grid-phi", "3", "--mode", "analytic"]
        _, expected, _ = run_cli(argv + ["--out", "-"])
        target = tmp_path / "sweep.csv"
        target.write_bytes(b"9" * old_size + b"\n# average=0.25\n")
        code, out, err = run_cli(argv + ["--out", str(target)])
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == expected.encode("ascii")

    def test_failed_write_leaves_no_old_tail(self, tmp_path, monkeypatch):
        block_text = cli._block_text
        blocks = []

        def fail_after_one_block(*args):
            blocks.append(None)
            if len(blocks) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return block_text(*args)

        argv = ["sweep", "--grid-alpha", "11", "--grid-phi", "3", "--mode", "analytic"]
        _, expected, _ = run_cli(argv + ["--out", "-"])
        target = tmp_path / "sweep.csv"
        target.write_bytes(expected.encode("ascii") * 2)
        monkeypatch.setattr(cli, "_block_text", fail_after_one_block)
        code, out, err = run_cli(argv + ["--out", str(target)])
        assert (code, out) == (2, "")
        assert "cannot write" in err
        written = target.read_bytes()
        assert b"# average=" not in written
        assert expected.encode("ascii").startswith(written)

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_run_leaves_a_prefix_of_its_own_output(self, tmp_path, run_python):
        # the run is killed after its first block, writing over a longer
        # CSV: no row or "# average=" line of the old file may survive
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--grid-alpha", "21", "--grid-phi", "17",
                              "--out", str(target)])
        assert code == 0
        argv = ["sweep", "--grid-alpha", "11", "--grid-phi", "5", "--mode", "baseline"]
        _, expected, _ = run_cli(argv)
        script = (
            "import os, signal, sys\n"
            "from clonerestore import cli\n"
            "block_text, calls = cli._block_text, []\n"
            "def kill_on_second_block(*args):\n"
            "    calls.append(None)\n"
            "    if len(calls) > 1:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return block_text(*args)\n"
            "cli._block_text = kill_on_second_block\n"
            "cli.main(sys.argv[1:])\n")
        proc = run_python("-c", script, *argv, "--out", str(target), capture_output=True)
        assert proc.returncode == -signal.SIGKILL
        assert expected.encode("ascii").startswith(target.read_bytes())

    def test_out_dev_null(self):
        code, out, err = run_cli(["sweep", "--grid-alpha", "3", "--grid-phi", "2",
                                  "--mode", "analytic", "--out", os.devnull])
        assert (code, out, err) == (0, "", "")

    def test_out_pipe(self):
        # a pipe can be neither cut nor asked for its position
        argv = ["sweep", "--grid-alpha", "3", "--grid-phi", "2", "--mode", "analytic"]
        _, expected, _ = run_cli(argv + ["--out", "-"])
        read_end, write_end = os.pipe()
        try:
            code, out, err = run_cli(argv + ["--out", f"/dev/fd/{write_end}"])
            os.close(write_end)
            written = os.read(read_end, 1 << 16)
        finally:
            os.close(read_end)
        assert (code, out, err) == (0, "", "")
        assert written == expected.encode("ascii")

    def test_unwritable_path(self, monkeypatch):
        # the output is opened before anything is evaluated
        def fail(*args, **kwargs):
            raise AssertionError("the sweep was evaluated before the output was opened")

        monkeypatch.setattr(protocol, "exact_fidelity_plane", fail)
        code, _, err = run_cli(["sweep", "--grid-alpha", "501", "--grid-phi", "501",
                                "--mode", "exact", "--out", "/nonexistent-dir/x.csv"])
        assert code == 2
        assert "cannot write" in err

    def test_exact_rows_track_analytic_column(self):
        code, out, _ = run_cli(["sweep", "--grid-alpha", "11", "--grid-phi", "9",
                                "--mode", "exact", "--pbit", "0.7", "--pph", "0.2",
                                "--out", "-"])
        assert code == 0
        _, rows, _ = parse_csv(out)
        for row in rows:
            assert abs(float(row[2]) - float(row[3])) < 1e-10

    def test_published_average_small_grid(self):
        # coarse grid keeps runtime low; the 201x201 value lives in acceptance
        code, out, _ = run_cli(["sweep", "--grid-alpha", "41", "--grid-phi", "41",
                                "--mode", "exact", "--out", "-"])
        assert code == 0
        assert out.splitlines()[-1] in average_lines(Fraction(16, 27) - Fraction(1, 27 * 40 ** 2))

    def test_baseline_average(self):
        code, out, _ = run_cli(["sweep", "--mode", "baseline", "--grid-alpha", "201",
                                "--grid-phi", "1", "--out", "-"])
        assert code == 0
        assert out.splitlines()[-1] in average_lines(Fraction(2, 3) + Fraction(1, 3 * 200 ** 2))

    @given(mode=st.sampled_from(["exact", "mixed", "analytic", "baseline"]),
           n_alpha=st.integers(2, 80), n_phi=st.integers(1, 80),
           p_bit=st.floats(0.0, 1.0), p_ph=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_published_average_is_exact(self, mode, n_alpha, n_phi, p_bit, p_ph):
        # with h = 1/(n_alpha - 1) the trapezoid rule gives 1/3 + h^2/6 for
        # the integral of alpha^4 over [0, 1], and the uniform phi rule
        # averages cos(phi)^2 to 1/2 on 3 or more points, to 1 on 1 or 2
        h2 = Fraction(1, (n_alpha - 1) ** 2)
        if mode == "baseline":
            expected = Fraction(2, 3) + h2 / 3
        elif n_phi >= 3:
            expected = Fraction(16, 27) - h2 / 27
        else:
            expected = Fraction(2, 3) - h2 / 9
        code, out, err = run_cli(["sweep", "--mode", mode, "--grid-alpha", str(n_alpha),
                                  "--grid-phi", str(n_phi), "--pbit", repr(p_bit),
                                  "--pph", repr(p_ph)])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] in average_lines(expected)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--pbit", "1.5"],
        ["sweep", "--mode", "bogus"],
        ["sweep", "--grid-alpha", "0"],
        ["sweep", "--trials", "-3"],
        ["bogus-command"],
        ["sweep", "--mode", "mc", "--seed", "-1"],
        ["sweep", "--pph", "nan"],
        ["sweep", "--mode", "mc", "--trials", "1"],
    ])
    def test_usage_errors(self, argv):
        code, _, err = run_cli(argv)
        assert code == 2
        assert "usage:" in err

    def test_grid_alpha_one_rejected(self):
        code, _, err = run_cli(["sweep", "--grid-alpha", "1", "--mode", "analytic"])
        assert code == 2
        assert "grid-alpha" in err


MC_GOLDEN = [pytest.param(argv, digest, id=name) for name, (argv, digest) in zip(GOLDEN_IDS, GOLDEN)
             if argv[0] == "sweep" and "mc" in argv]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def processes(monkeypatch):
    """Force the process count of an mc sweep and of verify: ``processes(n)``
    makes the CPU count n and lets any mc sweep fork. Returns the pids of the
    workers forked."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def force(n):
        monkeypatch.setattr(_pool, "cpus", lambda: n)
        monkeypatch.setattr(cli, "_FORK_TRIALS", 0)
        return forks
    return force


class TestMcWorkers:
    """The mc sweep shares each block's states with forked workers; the bytes,
    the exit code and the processes left do not depend on them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("argv, digest", MC_GOLDEN)
    def test_golden_bytes_at_any_process_count(self, processes, argv, digest, n):
        forks = processes(n)
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
        args = cli.build_parser().parse_args(argv)
        assert len(forks) == min(n, min(cli._BLOCK_ROWS, args.grid_alpha) * args.grid_phi) - 1
        assert_no_child_left()

    # one block; fewer states in a block than processes; a partial last
    # block, whose shares are partly empty
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("n_alpha, n_phi, extra", [
        (2, 9, dict(pbit=0.2, pph=0.7, trials=50, seed=4)),
        (2, 1, dict(trials=300, seed=1)),
        (6, 1, dict(pbit=0.5, trials=40, seed=2)),
        (9, 5, dict(pph=0.3, trials=20, seed=8)),
    ], ids=["one-block", "two-states", "partial-block-of-two", "partial-block-of-five"])
    def test_bytes_do_not_depend_on_process_count(self, processes, n, n_alpha, n_phi, extra):
        forks = processes(n)
        argv = ["sweep", "--mode", "mc", "--grid-alpha", str(n_alpha), "--grid-phi", str(n_phi)]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out == expected_sweep("mc", n_alpha, n_phi, **extra)
        assert len(forks) == min(n, min(cli._BLOCK_ROWS, n_alpha) * n_phi) - 1
        assert_no_child_left()

    ARGV = ["sweep", "--mode", "mc", "--grid-alpha", "11", "--grid-phi", "7", "--trials", "300",
            "--seed", "5", "--pbit", "0.3", "--pph", "0.6"]

    def test_failed_worker_leaves_the_bytes(self, processes, monkeypatch):
        # every worker raises: the parent computes their shares itself
        _, expected, _ = run_cli(self.ARGV)
        parent = os.getpid()
        estimates = protocol.mc_estimates

        def fail_in_worker(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return estimates(*args)

        monkeypatch.setattr(protocol, "mc_estimates", fail_in_worker)
        forks = processes(3)
        code, out, err = run_cli(self.ARGV)
        assert (code, out, err) == (0, expected, "")
        assert len(forks) == 2
        assert_no_child_left()

    def test_short_read_leaves_the_bytes(self, processes, monkeypatch):
        # a worker sends part of its second share, then ends
        _, expected, _ = run_cli(self.ARGV)
        parent = os.getpid()
        write, sent = os.write, []

        def cut_write(fd, data):
            if os.getpid() == parent:
                return write(fd, data)
            sent.append(None)
            if len(sent) > 1:
                write(fd, bytes(data)[:len(data) // 2 + 3])
                os._exit(0)
            return write(fd, data)

        monkeypatch.setattr(os, "write", cut_write)
        forks = processes(2)
        code, out, err = run_cli(self.ARGV)
        assert (code, out, err) == (0, expected, "")
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("error, code", [
        (OSError(errno.ENOSPC, "No space left on device"), 2),
        (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), 2),
        (MemoryError(), 2),
        (KeyboardInterrupt(), None),
    ], ids=["no-space", "broken-pipe", "out-of-memory", "interrupt"])
    def test_failed_sweep_reaps_its_workers(self, tmp_path, processes, monkeypatch, error, code):
        # the mc copy of TestSweep.test_failed_write_leaves_no_old_tail
        block_text = cli._block_text
        blocks = []

        def fail_after_one_block(*args):
            blocks.append(None)
            if len(blocks) > 1:
                raise error
            return block_text(*args)

        _, expected, _ = run_cli(self.ARGV)
        target = tmp_path / "sweep.csv"
        target.write_bytes(expected.encode("ascii") * 2)
        monkeypatch.setattr(cli, "_block_text", fail_after_one_block)
        forks = processes(2)
        argv = self.ARGV + ["--out", str(target)]
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                run_cli(argv)
        else:
            assert run_cli(argv)[:2] == (code, "")
        assert len(forks) == 1
        assert_no_child_left()
        written = target.read_bytes()
        assert b"# average=" not in written
        assert expected.encode("ascii").startswith(written)

    @pytest.mark.parametrize("case", ["one-cpu", "thread", "small"])
    def test_forks_nothing(self, monkeypatch, case):
        def no_fork():
            raise AssertionError("the sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(_pool, "cpus", lambda: 1 if case == "one-cpu" else 4)
        if case != "small":
            monkeypatch.setattr(cli, "_FORK_TRIALS", 0)
        argv = ["sweep", "--mode", "mc", "--grid-alpha", "5", "--grid-phi", "3", "--trials", "20"]
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        if case == "thread":
            thread.start()
        try:
            code, out, err = run_cli(argv)
        finally:
            done.set()
        if case == "thread":
            thread.join(10)
            assert not thread.is_alive()
        assert (code, err) == (0, "")
        assert out == expected_sweep("mc", 5, 3, trials=20)

    def test_benchmark_sweep_forks(self, monkeypatch):
        # the 51 x 51 sweep at 2000 trials is far above the crossover
        args = cli.build_parser().parse_args(["sweep", "--mode", "mc", "--grid-alpha", "51",
                                              "--grid-phi", "51", "--trials", "2000"])
        monkeypatch.setattr(_pool, "cpus", lambda: 2)
        assert cli._mc_processes(args) == 2
        monkeypatch.setattr(_pool, "cpus", lambda: 64)
        assert cli._mc_processes(args) == 64
        args.grid_phi, args.trials = 1, 2
        assert cli._mc_processes(args) == 1


def verify_records(lines):
    """verify's JSON lines as records without their seconds."""
    records = [json.loads(line) for line in lines]
    for record in records:
        assert record.pop("seconds") >= 0.0
    return records


def verify_reference(seed=0, tol=None):
    """verify's exit code, text and JSON records without the seconds, from
    run_checks' report, in one process."""
    report = run_checks(tol=tol, seed=seed)
    return (0 if report.passed else 1, "\n".join(report.lines()) + "\n",
            verify_records(report.json_lines()))


@functools.cache
def unpatched_reference(seed):
    return verify_reference(seed)


def verify_outputs(monkeypatch, seed=0, tol=None):
    """(exit code, text, JSON records without the seconds) of one verify
    command; the records are those of the report it printed as text."""
    reports = []
    report = cli._verify_report

    def recorded(args):
        reports.append(report(args))
        return reports[-1]

    monkeypatch.setattr(cli, "_verify_report", recorded)
    argv = ["verify", "--seed", str(seed)] + ([] if tol is None else ["--tol", repr(tol)])
    code, text, err = run_cli(argv)
    monkeypatch.setattr(cli, "_verify_report", report)
    assert err == ""
    return code, text, verify_records(reports[0].json_lines())


def replace_check(monkeypatch, index, fn):
    """Make check ``index`` of verify run ``fn``."""
    checks = list(verify._CHECKS)
    checks[index] = (checks[index][0], fn, *checks[index][2:])
    monkeypatch.setattr(verify, "_CHECKS", tuple(checks))


class TestVerifyWorkers:
    """verify's checks are shared by forked workers through one queue; the
    bytes, the exit code and the processes left do not depend on them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_bytes_do_not_depend_on_process_count(self, processes, monkeypatch, n):
        forks = processes(n)
        for seed in range(20):
            assert verify_outputs(monkeypatch, seed) == unpatched_reference(seed)
        assert len(forks) == 20 * (min(n, len(verify._CHECKS)) - 1)
        # the JSON lines are the report's
        code, out, err = run_cli(["verify", "--json"])
        assert (code, verify_records(out.splitlines()), err) == (0, unpatched_reference(0)[2], "")
        assert len(forks) == 21 * (min(n, len(verify._CHECKS)) - 1)
        assert_no_child_left()

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_tolerance_at_any_process_count(self, processes, monkeypatch, n):
        processes(n)
        assert verify_outputs(monkeypatch, 3, 1e-13) == verify_reference(3, 1e-13)
        assert_no_child_left()

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_negative_control_at_any_process_count(self, processes, monkeypatch, swapped_rule, n):
        processes(n)
        expected = verify_reference()
        assert expected[0] == 1
        assert expected[1].endswith("verify: 17/21 invariants passed\n")
        assert verify_outputs(monkeypatch) == expected
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "exits", "half-record"])
    def test_failed_worker_leaves_the_bytes(self, processes, monkeypatch, failure):
        # each worker fails at its second check, after sending one record
        # (half-record: while sending its second): the parent runs the
        # checks that no record reports
        parent, taken = os.getpid(), []
        run, write = verify._run_check, os.write

        def fail_in_worker(index, tol, seed):
            if os.getpid() != parent:
                taken.append(index)
                if len(taken) > 1 and failure == "raises":
                    raise RuntimeError("worker failure")
                if len(taken) > 1 and failure == "exits":
                    os._exit(0)
            return run(index, tol, seed)

        def cut_write(fd, data):
            if os.getpid() != parent and len(taken) > 1:
                write(fd, bytes(data)[:len(data) // 2])
                os._exit(0)
            return write(fd, data)

        monkeypatch.setattr(verify, "_run_check", fail_in_worker)
        if failure == "half-record":
            monkeypatch.setattr(os, "write", cut_write)
        forks = processes(3)
        assert verify_outputs(monkeypatch, 5) == unpatched_reference(5)
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["everywhere", "parent"])
    @pytest.mark.parametrize("error", [MemoryError("check"), KeyboardInterrupt(),
                                       RuntimeError("check")],
                             ids=["out-of-memory", "interrupt", "error"])
    def test_failed_check_reaps_the_workers(self, processes, monkeypatch, error, where):
        # a check that raises ends the command as it does in one process,
        # after every worker is reaped, killed first where it still runs:
        # check 1 raises in every process, or the parent's first check raises
        parent, calls = os.getpid(), []
        run = verify._run_check

        def fail(rng):
            raise error

        def fail_first_in_parent(index, tol, seed):
            if os.getpid() == parent and not calls:
                calls.append(index)
                raise error
            return run(index, tol, seed)

        def outcome():
            calls.clear()
            try:
                return run_cli(["verify", "--seed", "2"])
            except BaseException as exc:
                return exc

        if where == "everywhere":
            replace_check(monkeypatch, 1, fail)
        else:
            monkeypatch.setattr(verify, "_run_check", fail_first_in_parent)
        processes(1)
        expected = outcome()
        forks = processes(3)
        assert repr(outcome()) == repr(expected)
        assert len(forks) == 2
        assert_no_child_left()
        if isinstance(error, MemoryError):
            assert expected == (2, "", "verify: out of memory: check\n")

    def test_first_failing_check_wins(self, processes, monkeypatch):
        # check 1 raises everywhere and every later check in the parent: one
        # process meets check 1 first, and so must the pool, whichever
        # process took it
        parent = os.getpid()
        run = verify._run_check

        def fail(index, tol, seed):
            if index == 1:
                raise RuntimeError("check 1")
            if index > 1 and os.getpid() == parent:
                raise MemoryError("a later check")
            return run(index, tol, seed)

        monkeypatch.setattr(verify, "_run_check", fail)
        for n in (1, 2, 3, 7):
            processes(n)
            with pytest.raises(RuntimeError, match="check 1"):
                run_cli(["verify"])
            assert_no_child_left()

    def test_closed_stdout_reaps_the_workers(self, processes):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        forks = processes(2)
        err = io.StringIO()
        with redirect_stdout(ClosedPipe()), redirect_stderr(err):
            code = main(["verify"])
        assert (code, err.getvalue()) == (2, f"verify: cannot write -: {BROKEN_PIPE}\n")
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["one-cpu", "thread", "no-pipe"])
    def test_forks_nothing(self, monkeypatch, case):
        def no_fork():
            raise AssertionError("verify forked")

        def no_pipe():
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(_pool, "cpus", lambda: 1 if case == "one-cpu" else 4)
        if case == "no-pipe":
            monkeypatch.setattr(os, "pipe", no_pipe)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        if case == "thread":
            thread.start()
        try:
            outputs = verify_outputs(monkeypatch, 1)
        finally:
            done.set()
        if case == "thread":
            thread.join(10)
            assert not thread.is_alive()
        assert outputs == unpatched_reference(1)


def readme_commands():
    """The arguments of every ``clonerestore ...`` line in README's fenced blocks."""
    commands, fenced = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("clonerestore "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"sweep", "verify", "mc"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: clonerestore {shlex.join(argv)}")


# Each numeric flag: a command that takes it, the conversion of its text
# and the API call whose argument it feeds (or that argument's rule, where
# a valid value would start a run); --trials keeps the CLI's minimum of 2.
NUMERIC_FLAGS = {
    "--grid-alpha": ("sweep", int, lambda n: core._check_count(n, "n_alpha", 2)),
    "--grid-phi": ("sweep", int, lambda n: core._check_count(n, "n_phi", 1)),
    "--trials": ("mc", int, lambda n: protocol._check_trials(n, 2)),
    "--seed": ("verify", int, lambda n: core._check_count(n, "seed", 0)),
    "--pbit": ("sweep", float, lambda p: core.error_probabilities(p, 0.0)),
    "--pph": ("mc", float, lambda p: core.error_probabilities(0.0, p)),
    "--alpha2": ("mc", float, lambda a: make_pure(a, 0.0)),
    "--tol": ("verify", float, lambda t: core._check_positive(t, "tol")),
    "--phi": ("mc", float, lambda p: core._check_finite(p, "phi")),
}
flag_texts = st.one_of(
    st.integers().map(str),
    st.integers(min_value=-10**400, max_value=10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "-1e400", "-0.0", "0", "1", "2", "0.5", "True",
                     "", " 3 ", "1_000", "0x10"]),
    st.text(max_size=8),
)


@pytest.mark.parametrize("flag", list(NUMERIC_FLAGS))
@given(text=flag_texts)
@settings(max_examples=60, deadline=None)
def test_flags_apply_the_library_rules(flag, text):
    """A flag rejects exactly the text that does not convert or whose value
    the library rejects, with exit 2 and, last on stderr, the library's own
    ValueError text behind argparse's ``argument --flag:`` prefix."""
    command, convert, api = NUMERIC_FLAGS[flag]
    expected = None
    try:
        value = convert(text)
    except ValueError:
        expected = f"invalid {convert.__name__} value: {text!r}"
    else:
        try:
            api(value)
        except ValueError as exc:
            expected = str(exc)
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args([command, f"{flag}={text}"])
            code = 0
        except SystemExit as exc:
            code = exc.code
    if expected is None:
        assert (code, err.getvalue()) == (0, "")
        assert repr(getattr(args, flag[2:].replace("-", "_"))) == repr(value)
    else:
        assert code == 2
        assert err.getvalue().splitlines()[-1] == (
            f"clonerestore {command}: error: argument {flag}: {expected}")


class TestVerify:
    def test_swapped_rule_detected(self, swapped_rule):
        code, out, _ = run_cli(["verify"])
        assert code == 1
        failed = [line.split()[1:3] for line in out.split("\n") if line.startswith("FAIL")]
        assert failed == [
            ["exact-analytic-mixed-agreement", "dev=2.222e-01"],
            ["outcome-agreement-identities", "dev=1.413e+00"],
            ["fidelity-floor-and-exceptions", "dev=inf"],
            ["plane-averages", "dev=9.259e-02"],
        ]
        assert out.endswith("verify: 17/21 invariants passed\n")

    def test_non_pauli_rule_fails_without_traceback(self, monkeypatch):
        # a correction outside the Pauli group takes the branch operators off
        # the Gaussian-integer lattice, so no exact form can be built: the
        # exact checks and every check of a form kernel report inf
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        monkeypatch.setattr(protocol, "correction_unitary",
                            lambda alice, bob: np.eye(2) if alice == bob else hadamard)
        protocol._branch_bank.cache_clear()
        protocol._form_bank.cache_clear()
        try:
            report = run_checks()
        finally:
            monkeypatch.undo()
            protocol._branch_bank.cache_clear()
            protocol._form_bank.cache_clear()
        failed = {r.name: r.deviation for r in report.results if not r.passed}
        for name in ("error-rate-independence", "exact-analytic-mixed-agreement",
                     "fidelity-floor-and-exceptions", "plane-averages",
                     "sweep-exact-mixed-columns"):
            assert failed[name] == float("inf")

    def test_sampler_without_channel_errors_detected(self, monkeypatch):
        # the mean fidelity does not depend on the error rates, so only the
        # drawn error frequencies can show a sampler that never draws one
        monkeypatch.setattr(protocol, "error_probabilities",
                            lambda p_bit, p_ph: core.error_probabilities(0.0, 0.0))
        report = run_checks()
        failed = {r.name: r.deviation for r in report.results if not r.passed}
        assert list(failed) == ["measurement-sampling-frequencies"]
        assert failed["measurement-sampling-frequencies"] > 100

    # runs after test_swapped_rule_detected, so it also checks that the
    # fixture's teardown restores the rule and rebuilds the branch banks
    def test_default_run_passes(self):
        code, out, _ = run_cli(["verify"])
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "verify: 21/21 invariants passed"

    def test_swap_flag_removed(self):
        code, out, err = run_cli(["verify", "--swap-pauli-rule"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --swap-pauli-rule" in err

    def test_impossible_tolerance_fails(self):
        code, out, _ = run_cli(["verify", "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in out

    def test_negative_tolerance_rejected(self):
        for tol in ("-1", "0", "nan", "inf"):
            code, _, err = run_cli(["verify", "--tol", tol])
            assert code == 2, tol
            assert "--tol" in err
            with pytest.raises(ValueError, match="tol"):
                run_checks(tol=float(tol))
        # only a real number, not a bool, a string, a list or an array
        for tol in (True, "1e-3", [1e-3], np.array([1e-3, 1.0])):
            with pytest.raises(ValueError, match="tol"):
                run_checks(tol=tol)
        # the seed is checked beside tol, before numpy's SeedSequence sees it
        for seed in (-1, 1.5, True, "0"):
            with pytest.raises(ValueError, match="seed"):
                run_checks(seed=seed)

    def test_tolerance_is_one_float(self):
        # an int beyond the double range is out of range: it used to pass
        # and make the report's tol= format raise OverflowError
        for tol in (10**400, -10**400):
            with pytest.raises(ValueError, match="tol must be a finite positive real number"):
                run_checks(tol=tol)
        # a numpy scalar is recorded as a Python float: no overflow-in-cast
        # warning (an error under pytest's filter) and strict JSON
        report = run_checks(tol=np.float32(1e-3), seed=1)
        assert {type(r.tolerance) for r in report.results} == {float}
        assert report.lines()[-1] == "verify: 21/21 invariants passed"
        records = [json.loads(line) for line in report.json_lines()]
        assert {r["tolerance"] for r in records if not r["statistical"]} == {float(np.float32(1e-3))}

    def test_json_matches_text(self):
        code, text, _ = run_cli(["verify", "--seed", "4"])
        json_code, out, err = run_cli(["verify", "--seed", "4", "--json"])
        assert (json_code, err) == (code, "") == (0, "")
        records = [json.loads(line) for line in out.strip().split("\n")]
        rows = [line.split() for line in text.strip().split("\n")[:-1]]
        assert len(records) == len(rows) == 21
        for rec, (status, name, dev, tol) in zip(records, rows):
            assert set(rec) == {"name", "deviation", "tolerance", "passed", "statistical",
                                "seconds"}
            assert rec["name"] == name
            unit = "z" if rec["statistical"] else "dev"
            assert f"{unit}={rec['deviation']:.3e}" == dev
            assert f"tol={rec['tolerance']:.1e}" == tol
            assert rec["passed"] is (status == "PASS")
            assert rec["seconds"] >= 0.0

    def test_json_failed_run_is_strict_json(self, swapped_rule):
        code, out, _ = run_cli(["verify", "--json"])
        assert code == 1

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        records = [json.loads(line, parse_constant=reject) for line in out.strip().split("\n")]
        failed = {rec["name"]: rec["deviation"] for rec in records if not rec["passed"]}
        assert sorted(failed) == ["exact-analytic-mixed-agreement", "fidelity-floor-and-exceptions",
                                  "outcome-agreement-identities", "plane-averages"]
        # its deviation is inf, which JSON cannot write
        assert failed["fidelity-floor-and-exceptions"] is None

    def test_negative_seed_rejected(self):
        code, _, err = run_cli(["verify", "--seed", "-1"])
        assert code == 2
        assert "--seed" in err


class TestMc:
    def test_pole_state_matches_exact(self):
        code, out, _ = run_cli(["mc", "--alpha2", "1", "--phi", "0", "--pbit", "0",
                                "--pph", "0", "--trials", "100000", "--seed", "1"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n")[:-1])
        assert float(fields["exact"]) == pytest.approx(5 / 9, abs=1e-12)
        assert abs(float(fields["mean"]) - 5 / 9) <= 4 * float(fields["stderr"])
        assert out.strip().endswith("PASS (|z| <= 4)")

    def test_exception_point(self):
        code, out, _ = run_cli(["mc", "--alpha2", "0.5", "--phi", "1.5707963",
                                "--trials", "100000", "--seed", "7"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n")[:-1])
        assert float(fields["exact"]) == pytest.approx(0.5, abs=1e-6)
        assert abs(float(fields["mean"]) - 0.5) <= 4 * float(fields["stderr"])

    def test_byte_identical_repeats(self):
        argv = ["mc", "--alpha2", "0.3", "--phi", "2.0", "--pbit", "0.2",
                "--pph", "0.1", "--trials", "20000", "--seed", "123"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_usage_error(self):
        for argv in (["--alpha2", "2.0"], ["--phi", "nan"], ["--phi", "inf"],
                     ["--seed", "-1"], ["--trials", "1"]):
            code, out, err = run_cli(["mc"] + argv)
            assert code == 2, argv
            assert out == "" and f"argument {argv[0]}" in err


BROKEN_PIPE = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
COMMANDS = [["verify"], ["mc", "--trials", "1000"], ["sweep", "--grid-alpha", "3", "--grid-phi", "2"]]


class TestExitTwo:
    """Output that cannot be written, counts too large to allocate and trial
    counts too large to count exactly: one error line on stderr naming the
    command, and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid-alpha", str(10**17)],
        ["sweep", "--grid-phi", str(10**17)],
    ])
    def test_count_too_large_to_allocate(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert err.startswith(f"{argv[0]}: out of memory: ") and err.count("\n") == 1
        # a sweep has written a prefix of its output: the header at most
        assert out in ("", "alpha2,phi,f_exact,f_analytic,f_mc,mc_stderr\n")

    # the sampler's memory does not grow with --trials, so no trial count
    # runs out of it; beyond 2**53 a branch count is not exact as a double
    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "mc", "--grid-alpha", "2", "--grid-phi", "1"],
        ["mc"],
    ])
    def test_trials_beyond_exact_counts(self, argv):
        code, out, err = run_cli(argv + ["--trials", str(2**53 + 1)])
        assert (code, out) == (2, "")
        assert err.count("error:") == 1 and err.endswith(
            f"error: argument --trials: trials must be at most 2**53, got {2**53 + 1}\n")

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_closed_stdout_in_process(self, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        err = io.StringIO()
        with redirect_stdout(ClosedPipe()), redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (2, f"{argv[0]}: cannot write -: {BROKEN_PIPE}\n")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_closed_stdout(self, run_python, argv, unbuffered):
        # stdout is a pipe whose read end is closed before the child starts;
        # without PYTHONUNBUFFERED the error comes only when stdout is flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python("-m", "clonerestore", *argv, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, f"{argv[0]}: cannot write -: {BROKEN_PIPE}\n")
