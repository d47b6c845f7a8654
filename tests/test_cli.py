import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from clonerestore import protocol
from clonerestore.cli import main
from clonerestore.core import make_pure
from clonerestore.verify import run_checks

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
], ids=["sweep-exact", "sweep-analytic", "sweep-mixed", "sweep-baseline", "sweep-mc", "mc",
        "sweep-mc-two-trials", "sweep-mc-certain-errors", "mc-pole-bit-flip"])
def test_golden_bytes(argv, digest):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestSweep:
    # 11 and 3 alpha^2 rows are not multiples of the writer's block size,
    # so the last block is partial.
    @pytest.mark.parametrize("mode, n_alpha, n_phi, extra", [
        ("exact", 11, 9, dict(pbit=0.3, pph=0.6)),
        ("mixed", 11, 9, {}),
        ("analytic", 11, 9, {}),
        ("baseline", 11, 9, {}),
        ("exact", 2, 1, {}),
        ("mc", 11, 9, dict(pbit=0.2, pph=0.7, trials=50, seed=4)),
        ("mc", 3, 2, dict(trials=200, seed=9)),
    ])
    def test_writer_contract(self, tmp_path, mode, n_alpha, n_phi, extra):
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

    def test_sweep_loads_neither_fractions_nor_decimal(self):
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
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
        # the seed is checked beside tol, before numpy's SeedSequence sees it
        for seed in (-1, 1.5, True, "0"):
            with pytest.raises(ValueError, match="seed"):
                run_checks(seed=seed)

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
