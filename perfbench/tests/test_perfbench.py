"""Tests of the benchmark itself: span arithmetic, tracer, correctness gate.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _cli(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "clonerestore", *argv], env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def _run(workload, seed, tmp_path):
    out = tmp_path / f"{workload}-{seed}.csv"
    code, stdout = _cli(workloads.command(workload, seed, str(out)))
    return code, (out.read_bytes() if workloads.writes_csv(workload) else stdout)


# --- self time ---------------------------------------------------------------

def test_self_times_on_nested_tree():
    tree = [
        ("cli.main", -1, 0.0, 10.0),
        ("protocol.a", 0, 1.0, 4.0),
        ("core.b", 1, 2.0, 3.0),
        ("protocol.c", 0, 5.0, 9.0),
        ("core.b", 3, 6.0, 7.0),
        ("core.b", 3, 7.5, 8.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    agg = spans.aggregate(tree, ["cli.main", "protocol.a", "protocol.c", "core.b"])
    assert agg["core.b.calls"] == 3
    assert agg["core.b.self_s"] == pytest.approx(2.5)
    assert agg["core.b.cold_s"] == pytest.approx(1.0)
    assert agg["protocol.c.total_s"] == pytest.approx(4.0)
    assert agg["protocol.self_s"] == pytest.approx(4.5)
    assert agg["core.self_s"] == pytest.approx(2.5)
    # layer self times add up to the root's duration
    assert sum(agg[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)


def test_self_times_merge_overlapping_and_clip_overhanging_children():
    tree = [("p", -1, 0.0, 10.0), ("a", 0, 2.0, 5.0), ("b", 0, 4.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_tracer_records_parents_with_injected_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer("t", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("core.inner", lambda x: x + 1)
    outer = tracer.wrap("protocol.outer", lambda x: inner(x) * 2, counter=("items", lambda x: x))
    assert outer(3) == 8
    assert tracer.records() == [("protocol.outer", -1, 0.0, 3.0), ("core.inner", 0, 1.0, 2.0)]
    assert tracer.counters == {"protocol.outer.items": 3}


# --- tracer on the package -------------------------------------------------------

def test_install_wraps_every_binding_and_is_transparent():
    import clonerestore.cli as cli
    from clonerestore import core, protocol

    argv = ["sweep", "--mode", "mc", "--grid-alpha", "4", "--grid-phi", "3",
            "--trials", "50", "--seed", "5", "--pbit", "0.2", "--pph", "0.7"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    plain = run()
    originals = (cli.make_pure, protocol.sample_element, core.PureQubit.__dict__["from_vector"])
    tracer = spans.Tracer("t")
    names = tracer.install()
    try:
        assert cli.make_pure is not originals[0]
        assert protocol.sample_element is core.sample_element is not originals[1]
        core.PureQubit.from_vector([1.0, 1.0j])
        traced = run()
    finally:
        tracer.uninstall()
    assert (cli.make_pure, protocol.sample_element, core.PureQubit.__dict__["from_vector"]) == originals
    assert traced == plain
    assert {"cli.main", "core.PureQubit.from_vector", "cloning.estimation_elements",
            "linalg.polar_decompose", "verify.run_checks"} <= set(names)
    agg = spans.aggregate(tracer.records(), tracer.names)
    assert agg["core.make_pure.calls"] >= 12
    assert agg["protocol.mc_estimate.calls"] == 12
    assert agg["core.PureQubit.from_vector.calls"] == 1


# --- correctness gate --------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_csv(tmp_path_factory):
    code, output = _run("sweep-exact", 1, tmp_path_factory.mktemp("exact"))
    assert code == 0
    return output


def test_gate_accepts_the_real_exact_sweep(exact_csv):
    workloads.check("sweep-exact", 0, exact_csv)


def test_gate_rejects_one_perturbed_f_exact(exact_csv):
    lines = exact_csv.split(b"\n")
    fields = lines[1000].split(b",")
    fields[2] = format(float(fields[2]) + 1e-6, ".12g").encode()
    lines[1000] = b",".join(fields)
    with pytest.raises(workloads.GateError, match="f_analytic"):
        workloads.check("sweep-exact", 0, b"\n".join(lines))


def test_gate_rejects_a_truncated_csv(exact_csv):
    with pytest.raises(workloads.GateError):
        workloads.check("sweep-exact", 0, exact_csv[: len(exact_csv) // 2])
    cut = exact_csv.split(b"\n")
    with pytest.raises(workloads.GateError, match="rows"):
        workloads.check("sweep-exact", 0, b"\n".join(cut[:-3] + cut[-2:]))


def test_gate_rejects_a_failed_verify_and_a_bad_exit_code():
    good = b"PASS  x  dev=0.000e+00  tol=1.0e-12\nverify: 21/21 invariants passed\n"
    workloads.check("verify", 0, good)
    with pytest.raises(workloads.GateError, match="21/21"):
        workloads.check("verify", 0, good.replace(b"21/21", b"20/21"))
    with pytest.raises(workloads.GateError, match="exit code"):
        workloads.check("verify", 1, good)


def test_gate_rejects_a_biased_monte_carlo_column(tmp_path):
    code, output = _run("sweep-mc", 3, tmp_path)
    workloads.check("sweep-mc", code, output)
    lines = output.split(b"\n")
    for i in range(1, len(lines) - 2):
        fields = lines[i].split(b",")
        fields[4] = format(float(fields[4]) + 0.002, ".12g").encode()
        lines[i] = b",".join(fields)
    with pytest.raises(workloads.GateError, match="aggregate"):
        workloads.check("sweep-mc", 0, b"\n".join(lines))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_pass_the_gate(workload, tmp_path):
    digests = set()
    for seed in (11, 12):
        code, output = _run(workload, seed, tmp_path)
        workloads.check(workload, code, output)
        digests.add(output)
    assert len(digests) == 2
