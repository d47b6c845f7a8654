"""``scripts/seed_sweep.py``, loaded by path and run in this process on
one seed: its summary line, and its exit code when a deterministic or a
statistical check of verify fails."""

import importlib.util
from pathlib import Path

import pytest

from clonerestore import verify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"


@pytest.fixture(scope="module")
def seed_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fail_check(monkeypatch, name, deviation):
    """Patch verify's check ``name`` to measure ``deviation`` at every seed."""
    checks = tuple((n, (lambda rng: deviation) if n == name else check, tol, statistical)
                   for n, check, tol, statistical in verify._CHECKS)
    assert [c[0] for c in checks].count(name) == 1
    monkeypatch.setattr(verify, "_CHECKS", checks)


def summary(deterministic, statistical):
    return (f"seeds 0..0: {deterministic} deterministic failures; {statistical} statistical "
            "failures, about 0.0 expected at 8.2e-04 per seed\n")


def test_passing_seed(seed_sweep, capsys):
    assert seed_sweep.main(0, 1) == 0
    assert capsys.readouterr() == (summary(0, 0), "")


def test_deterministic_failure_fails_the_sweep(seed_sweep, capsys, monkeypatch):
    fail_check(monkeypatch, "channel-completeness", 1.0)
    assert seed_sweep.main(0, 1) == 1
    assert capsys.readouterr() == (
        "FAIL  seed=0  deterministic  channel-completeness  dev=1.000e+00  tol=1.0e-12\n"
        + summary(1, 0), "")


def test_statistical_failure_is_reported_only(seed_sweep, capsys, monkeypatch):
    fail_check(monkeypatch, "monte-carlo-consistency", 5.0)
    assert seed_sweep.main(0, 1) == 0
    assert capsys.readouterr() == (
        "FAIL  seed=0  statistical  monte-carlo-consistency  z=5.000e+00  tol=4.0e+00\n"
        + summary(0, 1), "")
