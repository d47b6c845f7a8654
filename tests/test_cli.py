import errno
import hashlib
import io
import json
import math
import os
import shlex
import signal
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonerestore import cli, core, protocol
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
@pytest.mark.parametrize("argv, digest", [
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
], ids=["sweep-exact", "sweep-analytic", "sweep-mixed", "sweep-baseline", "sweep-mc", "mc",
        "sweep-mc-two-trials", "sweep-mc-certain-errors", "mc-pole-bit-flip",
        "sweep-mc-sampler-blocks"])
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
        _, _, average = parse_csv(out)
        assert average == pytest.approx(16 / 27, abs=2e-3)

    def test_baseline_average(self):
        code, out, _ = run_cli(["sweep", "--mode", "baseline", "--grid-alpha", "201",
                                "--grid-phi", "1", "--out", "-"])
        assert code == 0
        _, _, average = parse_csv(out)
        assert average == pytest.approx(2 / 3, abs=1e-3)

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
