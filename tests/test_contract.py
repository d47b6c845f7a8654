"""The public API's input contract, table-driven over ``clonerestore.__all__``:
for junk in any one argument, each call returns a value or raises
ValueError, never another exception and never a warning (pytest turns a
warning into an error)."""

import inspect
import math
import re

import numpy as np
import pytest

import clonerestore as cr
from clonerestore import linalg

PSI = cr.make_pure(0.3, 1.0)
VECTORS = cr.state_vector([0.3, 0.7], [1.0, 2.0])
MATRIX = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
PLANE = dict(alpha2=[0.2, 0.5], phi=[1.0, 2.0])


def rngs():
    return (np.random.default_rng(k) for k in range(len(VECTORS)))


def sampler():
    return dict(vectors=VECTORS, p_bit=0.1, p_ph=0.2, trials=5, rngs=rngs())


# name -> valid arguments, in order, made anew for each call
CALLS = {
    "EstimationChannel": lambda: dict(elements=cr.estimation_elements().elements,
                                      reversal_unitaries=cr.estimation_elements()
                                      .reversal_unitaries),
    "ErrorType": lambda: dict(value=1),
    "KrausChannel": lambda: dict(elements=cr.estimation_elements().elements),
    "Outcome": lambda: dict(value=1),
    "PureQubit": lambda: dict(alpha=0.6, beta=0.8, phi=1.0),
    "PureQubit.from_vector": lambda: dict(v=[0.6, 0.8j]),
    "alpha2_grid": lambda: dict(n_alpha=3),
    "analytic_fidelity": lambda: dict(PLANE),
    "apply_channel": lambda: dict(ch=cr.error_channel(0.1, 0.2), rho=MATRIX),
    "baseline_fidelity_plane": lambda: dict(PLANE),
    "bloch_form": lambda: dict(ops=cr.estimation_elements().sqrt_effects, scale2=120),
    "branch_counts": sampler,
    "branch_statistics": lambda: dict(psi=PSI, alice=1, error=2, bob=3),
    "correction_unitary": lambda: dict(alice=1, bob=2),
    "dagger": lambda: dict(a=MATRIX),
    "elements_from_cloner": dict,
    "error_channel": lambda: dict(p_bit=0.1, p_ph=0.2),
    "error_probabilities": lambda: dict(p_bit=0.1, p_ph=0.2),
    "estimation_elements": dict,
    "exact_fidelity": lambda: dict(psi=PSI, p_bit=0.1, p_ph=0.2),
    "exact_fidelity_plane": lambda: dict(PLANE, p_bit=0.1, p_ph=0.2),
    "fidelity": lambda: dict(psi=PSI, rho=MATRIX),
    "grid_average": lambda: dict(values=[[1.0, 2.0], [3.0, 4.0]]),
    "haar_random_unitary": lambda: dict(rng=np.random.default_rng(1), size=3),
    "hs_distance": lambda: dict(a=MATRIX, b=np.eye(2)),
    "is_hermitian": lambda: dict(a=MATRIX),
    "is_psd": lambda: dict(a=MATRIX),
    "is_unitary": lambda: dict(a=MATRIX),
    "make_pure": lambda: dict(alpha2=0.3, phi=1.0),
    "mc_estimates": sampler,
    "mixed_input_fidelity": lambda: dict(psi=PSI),
    "mixed_input_fidelity_plane": lambda: dict(PLANE),
    "nearest_unitary": lambda: dict(e=MATRIX),
    "outcome_probability": lambda: dict(psi=PSI, outcome=2),
    "phi_grid": lambda: dict(n_phi=3),
    "polar_decompose": lambda: dict(e=MATRIX),
    "post_measurement_state": lambda: dict(psi=PSI, outcome=2),
    "reduce_qubit": lambda: dict(state=cr.uqcm_output(PSI), keep=2),
    "reverse": lambda: dict(state=PSI, outcome=2),
    "reversed_fidelity": lambda: dict(psi=PSI),
    "reversed_fidelity_plane": lambda: dict(PLANE),
    "sample_branches": sampler,
    "sqrtm_psd": lambda: dict(a=MATRIX),
    "state_vector": lambda: dict(PLANE),
    "uqcm_output": lambda: dict(psi=PSI),
    "z_score": lambda: dict(mean=0.5, stderr=0.1, exact=0.4),
    # not exported, but public in its module
    "linalg.det2": lambda: dict(a=MATRIX),
    "linalg.random_invertible": lambda: dict(rng=np.random.default_rng(1), size=3),
}

# what replaces a whole argument; "stack" is three of its valid value
JUNK = {"None": None, "str": "x", "bool": True, "nan": math.nan, "inf": math.inf,
        "-inf": -math.inf, "-1": -1, "10**400": 10**400, "complex": 1j,
        "wrong-shape": np.zeros((3, 5)), "stack": "stack"}
# what replaces the first entry of an array argument
ENTRY_JUNK = {"None": None, "str": "x", "bool": True, "nan": math.nan, "inf": math.inf,
              "-inf": -math.inf, "10**400": 10**400, "-10**400": -10**400, "1e300": 1e300,
              "1e300j": 1e300j, "largest": 1.7976931348623157e308}


def function(name):
    module, _, attribute = name.rpartition(".")
    owner = {"linalg": linalg, "PureQubit": cr.PureQubit, "": cr}[module]
    return getattr(owner, attribute)


def call(name, args):
    """``name`` called on ``args``; a returned generator is drawn from."""
    out = function(name)(*args.values())
    if inspect.isgenerator(out):
        list(out)


def outcome(name, args):
    """'value' or 'ValueError' for ``name`` called on ``args``, else the
    exception's type and text."""
    try:
        call(name, args)
    except ValueError:
        return "ValueError"
    except Exception as exc:  # a warning too: pytest makes it an error
        return f"{type(exc).__name__}: {str(exc)[:80]}"
    return "value"


def stack(value):
    if isinstance(value, (list, np.ndarray)) or np.isscalar(value):
        return np.stack([np.asarray(value)] * 3)
    return [value] * 3


def test_table_covers_every_public_callable():
    public = {name for name in cr.__all__ if callable(getattr(cr, name))}
    assert public <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_junk_argument_gives_value_or_value_error(name):
    assert outcome(name, CALLS[name]()) == "value"
    failures = []
    for arg, value in CALLS[name]().items():
        for label, junk in JUNK.items():
            args = CALLS[name]()
            args[arg] = stack(value) if label == "stack" else junk
            result = outcome(name, args)
            if result not in ("value", "ValueError"):
                failures.append(f"{arg}={label}: {result}")
    assert failures == []


@pytest.mark.parametrize("name", sorted(name for name in CALLS
                                        if any(isinstance(v, (list, np.ndarray))
                                               for v in CALLS[name]().values())))
def test_junk_entry_gives_value_or_value_error(name):
    failures = []
    for arg, value in CALLS[name]().items():
        if not isinstance(value, (list, np.ndarray)):
            continue
        for label, junk in ENTRY_JUNK.items():
            args = CALLS[name]()
            entries = np.asarray(value).astype(object)
            entries.flat[0] = junk
            args[arg] = entries.tolist()
            result = outcome(name, args)
            if result not in ("value", "ValueError"):
                failures.append(f"{arg}[0]={label}: {result}")
    assert failures == []


# the array arguments ``linalg._complex_array`` converts, by the shape it
# checks: "fixed" refuses a stack of three, "stacked" takes one, and None
# checks no shape
ARRAYS = [("EstimationChannel", "elements", "fixed"),
          ("EstimationChannel", "reversal_unitaries", "fixed"),
          ("KrausChannel", "elements", "fixed"), ("PureQubit.from_vector", "v", "fixed"),
          ("apply_channel", "rho", "fixed"), ("bloch_form", "ops", "stacked"),
          ("branch_counts", "vectors", "fixed"), ("fidelity", "rho", "fixed"),
          ("hs_distance", "a", "fixed"), ("hs_distance", "b", "fixed"),
          ("is_hermitian", "a", None), ("is_psd", "a", None), ("is_unitary", "a", None),
          ("linalg.det2", "a", "stacked"), ("mc_estimates", "vectors", "fixed"),
          ("nearest_unitary", "e", "stacked"), ("polar_decompose", "e", "stacked"),
          ("reduce_qubit", "state", "stacked"), ("sample_branches", "vectors", "fixed"),
          ("sqrtm_psd", "a", "stacked")]


@pytest.mark.parametrize("name, arg, shape", ARRAYS)
def test_array_argument_is_named(name, arg, shape):
    valid = CALLS[name]()[arg]
    entries = np.asarray(valid).astype(object)
    entries.flat[0] = "x"
    junk = {"str": "x", "str-entry": entries.tolist(), "dict": {}}
    if shape is not None:
        junk["wrong-shape"] = np.zeros((3, 5))
    if shape == "fixed":
        junk["stack"] = stack(valid)
    for label, value in junk.items():
        args = CALLS[name]()
        args[arg] = value
        with pytest.raises(ValueError, match=f"^{re.escape(arg)} must ") as info:
            call(name, args)
        assert label != "wrong-shape" or str(info.value).endswith(", got (3, 5)")


# a str is an iterable: as rngs, its items fail as generators when drawn
@pytest.mark.parametrize("call, name, junk", [
    (call, name, junk)
    for call, name in [(lambda x: cr.apply_channel(x, cr.MAXIMALLY_MIXED), "ch"),
                       (cr.haar_random_unitary, "rng"),
                       (linalg.random_invertible, "rng"),
                       (cr.dagger, "a"),
                       (lambda x: cr.mc_estimates(VECTORS, 0.1, 0.2, 5, x), "rngs")]
    for junk in [None, "x", 10**400] if not (name == "rngs" and junk == "x")])
def test_argument_checked_at_the_call_is_named(call, name, junk):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(junk)


@pytest.mark.parametrize("sign", [1, -1])
def test_int_beyond_the_double_range_reads_as_inf(sign):
    big = sign * 10**400
    matrix = [[big, 0], [0, 1]]
    for f in (cr.sqrtm_psd, cr.polar_decompose, linalg.det2):
        with pytest.raises(ValueError, match="finite"):
            f(matrix)
    for predicate in (cr.is_hermitian, cr.is_unitary, cr.is_psd):
        assert predicate(matrix) is False
    with pytest.raises(ValueError, match="^v must be finite$"):
        cr.PureQubit.from_vector([big, 1])
    with pytest.raises(ValueError, match="^rho must be a finite 2x2 array$"):
        cr.fidelity(PSI, matrix)
    with pytest.raises(ValueError, match="not Gaussian integers$"):
        cr.bloch_form([matrix], 1)
    assert np.array_equal(linalg._complex_array([big, 2**1023, 1j], "a"),
                          [sign * math.inf, 2.0**1023, 1j])
