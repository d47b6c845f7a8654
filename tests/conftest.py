"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from clonerestore import cloning, protocol
from clonerestore.core import ErrorType

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _exchanged_rule(alice, bob):
    """The comparison rule with its two assignments exchanged: a sign
    disagreement gives sigma_x and a bit disagreement sigma_z."""
    sign_differs = alice.sign != bob.sign
    bit_differs = alice.bit != bob.bit
    return ErrorType(int(sign_differs) + 2 * int(bit_differs)).operator


@pytest.fixture
def run_python():
    """Run a child Python, ``subprocess.run`` with a 120 s timeout, on the
    package's source: ``src`` goes first on the PYTHONPATH of ``env``,
    by default this process's environment."""
    def run(*args, env=os.environ, **kwargs):
        path = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], env=dict(env, PYTHONPATH=path),
                              timeout=120, **kwargs)
    return run


def _clear_bank_caches():
    protocol._branch_bank.cache_clear()
    protocol._form_bank.cache_clear()


@pytest.fixture
def swapped_rule(monkeypatch):
    """Negative control: run every protocol route with the exchanged rule.

    Each route looks ``correction_unitary`` up as a ``protocol`` module
    global, so patching it there reaches all of them; the cached branch
    banks are rebuilt under the patched rule and again after teardown.
    """
    monkeypatch.setattr(protocol, "correction_unitary", _exchanged_rule)
    _clear_bank_caches()
    yield _exchanged_rule
    monkeypatch.undo()
    _clear_bank_caches()


@pytest.fixture
def broken_cloner(monkeypatch):
    """Fault: the cloner's cross-term weight off by one part in 10**6, so
    its construction no longer matches the closed-form elements. The cached
    channel and branch banks are rebuilt under the fault and after it."""
    monkeypatch.setattr(cloning, "_C_MINOR", cloning._C_MINOR * (1 + 1e-6))
    cloning.estimation_elements.cache_clear()
    _clear_bank_caches()
    yield
    monkeypatch.undo()
    cloning.estimation_elements.cache_clear()
    _clear_bank_caches()
