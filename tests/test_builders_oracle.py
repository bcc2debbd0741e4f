"""Differential test: the row-recurrence table builders against the
whole-table coordinate formulas they replaced, kept here only as oracles.

Hypothesis draws groups Z_{n1} x ... x Z_{nk} of order at most 64, with
factors of 1 among them, and for `_bilinear_table` a left and a right group
and arbitrary structure constants, also ones that `_validate_constants`
would reject: the recurrence must give the same integers for all of them,
byte for byte in the type `index_dtype` names for the left group's order.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from pirick.caps import caps_from_env
from pirick.families import zmod
from pirick.groups import FinAbGroup, index_dtype
from pirick.modules import free_module
from pirick.rings import _bilinear_table, matrix_ring

CAPS = caps_from_env()


def oracle_add_table(group: FinAbGroup) -> np.ndarray:
    """T[i, j] = index of i + j, from the coordinate sum of every pair."""
    coords = group.coords_matrix()
    facs = np.array(group.factors, dtype=np.int64)
    strides = np.array(group.strides, dtype=np.int64)
    sums = (coords[:, None, :] + coords[None, :, :]) % facs
    return (sums * strides).sum(axis=2).astype(index_dtype(group.order))


def oracle_bilinear_table(left: FinAbGroup, right: FinAbGroup,
                          constants: dict) -> np.ndarray:
    """The bilinear extension of the constants, one einsum over every
    (left, right) pair of coordinate vectors."""
    facs = np.array(left.factors, dtype=np.int64)
    strides = np.array(left.strides, dtype=np.int64)
    cmat = np.zeros((len(left.factors), len(right.factors),
                     len(left.factors)), dtype=np.int64)
    for (i, j), c in constants.items():
        cmat[i, j, :] = left.tuple_of(c)
    prod = np.einsum("pi,qj,ijl->pql", left.coords_matrix(),
                     right.coords_matrix(), cmat)
    return ((prod % facs) * strides).sum(axis=2) \
        .astype(index_dtype(left.order))


@st.composite
def groups(draw, max_order=64):
    factors = [draw(st.integers(1, 8))]
    while len(factors) < 5 and draw(st.booleans()):
        n = draw(st.integers(1, 8))
        if math.prod(factors) * n > max_order:
            break
        factors.append(n)
    return FinAbGroup(factors)


@st.composite
def bilinear_inputs(draw):
    left, right = draw(groups()), draw(groups())
    keys = st.tuples(st.integers(0, len(left.factors) - 1),
                     st.integers(0, len(right.factors) - 1))
    constants = draw(st.dictionaries(keys, st.integers(0, left.order - 1)))
    return left, right, constants


@settings(max_examples=200, deadline=None, derandomize=True)
@given(groups())
def test_add_table_matches_coordinate_sums(group):
    table, oracle = group.add_table(), oracle_add_table(group)
    assert table.dtype == oracle.dtype and not table.flags.writeable
    assert table.tobytes() == oracle.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bilinear_inputs())
def test_bilinear_table_matches_einsum(inputs):
    left, right, constants = inputs
    table = _bilinear_table(left, right, constants)
    oracle = oracle_bilinear_table(left, right, constants)
    assert table.dtype == oracle.dtype
    assert table.shape == (left.order, right.order)
    assert table.tobytes() == oracle.tobytes()


def test_stored_ring_and_module_tables_match_the_oracle():
    """The tables that ring_make and module_make keep, on a matrix ring
    and a free module, are the oracle's and read-only."""
    ring = matrix_ring(zmod(2, CAPS), 2, CAPS)
    module = free_module(zmod(4, CAPS), 2, CAPS)
    mul_oracle = oracle_bilinear_table(ring.add_group, ring.add_group,
                                       ring.constants)
    act_oracle = oracle_bilinear_table(
        module.add_group, module.ring.add_group,
        {(j, i): c for (i, j), c in module.constants.items()})
    for table, oracle in ((ring.mul_np, mul_oracle),
                          (module.act_np, act_oracle)):
        assert table.dtype == oracle.dtype and not table.flags.writeable
        assert table.tobytes() == oracle.tobytes()
