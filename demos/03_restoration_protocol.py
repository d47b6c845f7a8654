"""Run the full restoration protocol and see its defining surprise.

Sender and receiver both clone, measure, and reverse; the receiver
corrects with the Pauli suggested by comparing the outcome records.
The resulting fidelity is completely independent of the channel error
rates, equals what a maximally mixed input would achieve, and averages
16/27, below the 2/3 of simply measuring and re-preparing.
"""

import numpy as np

from clonerestore import (
    ErrorType,
    Outcome,
    analytic_fidelity,
    bloch_form,
    correction_unitary,
    dagger,
    estimation_elements,
    exact_fidelity,
    make_pure,
    mixed_input_fidelity,
)

psi = make_pure(0.8, 0.5)
print("fidelity for one state under very different channels:")
for p_bit, p_ph in [(0.0, 0.0), (0.1, 0.05), (0.5, 0.5), (1.0, 1.0)]:
    print(f"  p_bit={p_bit:.2f} p_ph={p_ph:.2f}: {exact_fidelity(psi, p_bit, p_ph):.12f}")

print(f"\nreceiver fed I/2 instead of the channel output: {mixed_input_fidelity(psi):.12f}")
print(f"closed-form surface value:                       {analytic_fidelity(psi.alpha2, psi.phi):.12f}")

print("\nfidelity floor: 1/2, attained only at (alpha^2, phi) = (1/2, pi/2), (1/2, 3pi/2)")
for phi in (np.pi / 2, 3 * np.pi / 2):
    print(f"  F(0.5, {phi:.4f}) = {exact_fidelity(make_pure(0.5, phi)):.12f}")

# Every branch operator times 120 has Gaussian-integer entries, so the
# fidelity is an exact rational quadratic form r^T G r in the Bloch vector
# r = (1, x, y, z), and its sphere average is G00 + (G11 + G22 + G33) / 3.
est = estimation_elements()


def protocol_form(error):
    ops = [correction_unitary(a, b) @ dagger(est.reversal_unitaries[b]) @ est.elements[b]
           @ error.operator @ est.sqrt_effects[a] for a in Outcome for b in Outcome]
    return bloch_form(np.array(ops), 120 ** 2)


def sphere_average(form):
    return form[0, 0] + (form[1, 1] + form[2, 2] + form[3, 3]) / 3


forms = [protocol_form(error) for error in ErrorType]
diagonal = ", ".join(str(g) for g in np.diag(forms[0]))
print("\nexact Bloch form G = diag(" + diagonal + ")")
print(f"  the same for every channel error: {all(np.array_equal(g, forms[0]) for g in forms)}")
baseline = bloch_form(np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]), 1)
print("\nexact sphere averages:")
print(f"  restoration protocol: {sphere_average(forms[0])}")
print(f"  measure-and-prepare:  {sphere_average(baseline)}")
print("\nusing both the quantum and the classical channel loses to the classical-only scheme.")
