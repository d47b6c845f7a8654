"""The paper's correction rule is the unique optimum among all 4^16 tables.

A correction table picks one Pauli (I, X, Z, XZ) for each of the 16
(alice, bob) outcome pairs. For a cell (a, b), correction C and channel
error P_e, the branch operator C U_b^dag E_b P_e S_a times 120 has
Gaussian-integer Pauli coefficients, so its contribution to the fidelity
is an exact form r^T G r in the Bloch vector r = (1, x, y, z)
(``bloch_form``). A table's fidelity is the p_e-weighted sum of its four
per-error forms; since the four p_e are linearly independent functions
of (p_bit, p_ph), it does not depend on the rates exactly when the four
sums are equal as functions on the sphere.

Two forms are the same function on the sphere when they differ by a
multiple of diag(-1, 1, 1, 1), since x^2 + y^2 + z^2 = 1 there. Adding
G00 times that matrix zeroes G00, so the function is fixed by the 9
integers Q + G00 I (upper triangle, Q the lower-right 3x3 block) and
G01, G02, G03, all in units of 1 / (4 * 120^2). The Haar average is
G00 + tr(Q)/3.

The search splits the cells 8 + 8. Each half enumerates its 4^8 tables
with their summed error-difference vectors (per-error coordinates minus
the no-error ones), and a table is rate-independent when its two halves'
vectors cancel.
"""

from fractions import Fraction

import numpy as np
import pytest

from clonerestore import protocol
from clonerestore.cloning import Outcome, estimation_elements
from clonerestore.core import _ERROR_OPERATORS, ErrorType
from clonerestore.linalg import dagger

SCALE2 = 120 ** 2
DENOMINATOR = 4 * SCALE2   # of every bloch_form entry at this scale
CELLS = [(alice, bob) for alice in Outcome for bob in Outcome]


def sphere_coordinates(form):
    """The 9 integer coordinates of a form on the sphere, and 3 times its
    Haar average, both in units of 1 / DENOMINATOR."""
    g = np.array([[int(x * DENOMINATOR) for x in row] for row in form], dtype=np.int64)
    q = g[1:, 1:] + g[0, 0] * np.eye(3, dtype=np.int64)
    return np.concatenate([q[np.triu_indices(3)], g[0, 1:]]), int(np.trace(q))


@pytest.fixture(scope="module")
def cell_forms():
    """coords[cell, c, e] (9 integers) and 3 x Haar average avg3[cell, c]
    of the no-error form, for every cell, correction c and error e."""
    est = estimation_elements()
    coords = np.empty((16, 4, 4, 9), dtype=np.int64)
    avg3 = np.empty((16, 4), dtype=np.int64)
    for cell, (alice, bob) in enumerate(CELLS):
        receiver = dagger(est.reversal_unitaries[bob]) @ est.elements[bob]
        for c, correction in enumerate(_ERROR_OPERATORS):
            for error in ErrorType:
                m = correction @ receiver @ error.operator @ est.sqrt_effects[alice]
                coords[cell, c, error], a3 = sphere_coordinates(protocol.bloch_form(m[None], SCALE2))
                if error == ErrorType.NO_ERROR:
                    avg3[cell, c] = a3
    return coords, avg3


def half_tables(diff, avg3, cells):
    """Every table of the given cells, the first cell's correction the most
    significant base-4 digit of the row: summed difference vectors and
    summed 3 x Haar averages."""
    d = np.zeros((1, diff.shape[-1]), dtype=np.int64)
    s = np.zeros(1, dtype=np.int64)
    for cell in cells:
        d = (d[:, None, :] + diff[cell][None, :, :]).reshape(-1, diff.shape[-1])
        s = (s[:, None] + avg3[cell][None, :]).reshape(-1)
    return d, s


def table_index(table):
    """Row of a table's corrections in ``half_tables``' order."""
    index = 0
    for c in table:
        index = 4 * index + c
    return index


def test_paper_rule_is_the_unique_rate_independent_optimum(cell_forms):
    coords, avg3 = cell_forms
    # per-error coordinates minus the no-error ones: (16 cells, 4 corrections, 27)
    diff = (coords[:, :, 1:] - coords[:, :, :1]).reshape(16, 4, 27)
    d1, s1 = half_tables(diff, avg3, range(8))
    d2, s2 = half_tables(diff, avg3, range(8, 16))

    # rows are equal as bytes exactly when they are equal as integers
    keys = np.ascontiguousarray(np.concatenate([d1, -d2]))
    _, group = np.unique(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel(),
                         return_inverse=True)
    group = group.ravel()
    g1, g2 = group[:len(d1)], group[len(d1):]
    n_groups = int(group.max()) + 1
    count1 = np.bincount(g1, minlength=n_groups)
    count2 = np.bincount(g2, minlength=n_groups)
    # a table is rate-independent when its two halves fall in one group
    assert int(count1 @ count2) == 73_044

    unset = np.iinfo(np.int64).min // 2
    best1 = np.full(n_groups, unset)
    best2 = np.full(n_groups, unset)
    np.maximum.at(best1, g1, s1)
    np.maximum.at(best2, g2, s2)
    best = np.where((count1 > 0) & (count2 > 0), best1 + best2, unset)
    top = best.max()
    # the best rate-independent Haar average is 16/27: 3 * 16/27 * DENOMINATOR
    assert top * 27 == 3 * 16 * DENOMINATOR

    # only one table reaches it
    reach1 = np.bincount(g1, weights=(s1 == best1[g1]), minlength=n_groups)
    reach2 = np.bincount(g2, weights=(s2 == best2[g2]), minlength=n_groups)
    assert int(np.sum(reach1 * reach2 * (best == top))) == 1

    # and it is correction_unitary's
    paper = [next(c for c, p in enumerate(_ERROR_OPERATORS)
                  if np.array_equal(p, protocol.correction_unitary(alice, bob)))
             for alice, bob in CELLS]
    i1, i2 = table_index(paper[:8]), table_index(paper[8:])
    assert g1[i1] == g2[i2]
    assert s1[i1] + s2[i2] == top


def test_independence_costs_average_fidelity(cell_forms):
    # without the constraint, the best table at zero error rates is the
    # all-identity one, and its Haar average 182/225 = 0.8089 beats 16/27
    _, avg3 = cell_forms
    assert np.all(avg3.argmax(axis=1) == 0)
    assert Fraction(int(avg3[:, 0].sum()), 3 * DENOMINATOR) == Fraction(182, 225)
