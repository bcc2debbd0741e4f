"""Differential test: the exact law check, `rings._failed_law`, against the
check of every triple that it replaced, kept here only as an oracle.

The oracle evaluates both sides of each right-module law on every triple
of elements.  Hypothesis draws action tables of small groups by small
rings, and multiplication tables of small rings: valid tables, valid
tables with one entry changed, and bilinear extensions of arbitrary
constants, also ones that `_validate_constants` would reject.  The two
checks must agree on whether a table is valid, and the law and triple the
exact check reports must be broken in the oracle's own terms.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pirick.caps import caps_from_env
from pirick.families import zmod
from pirick.groups import FinAbGroup
from pirick.modules import free_module, ring_as_module
from pirick.rings import (FiniteRing, _bilinear_table, _failed_law,
                          product_ring, ring_make, triangular_ring)

CAPS = caps_from_env()
RINGS = (zmod(1, CAPS), zmod(2, CAPS), zmod(3, CAPS), zmod(4, CAPS),
         zmod(6, CAPS),
         product_ring(zmod(2, CAPS), zmod(2, CAPS), name="z2xz2"),
         triangular_ring(zmod(2, CAPS), 2, name="t2z2"),
         ring_make(FinAbGroup((2, 2)), {(0, 0): 2, (0, 1): 1, (1, 0): 1}, 2,
                   CAPS, "z2x"))
GROUPS = ((1,), (2,), (3,), (4,), (2, 2), (2, 4), (4, 2), (2, 1, 2), (1, 3))


def oracle_sides(act, mul, add_m, add_r) -> dict:
    """Both sides of each law that holds on triples, on every triple."""
    return {
        "associativity": (act[act, :], act[:, mul]),
        "distributivity_module": (act[add_m, :],
                                  add_m[act[:, None, :], act[None, :, :]]),
        "distributivity_ring": (act[:, add_r],
                                add_m[act[:, :, None], act[:, None, :]]),
    }


def oracle_broken(act, ring, group) -> set:
    """The laws that `act` breaks on some element or triple."""
    broken = {law for law, (lhs, rhs) in oracle_sides(
        act, ring.mul_np, group.add_table(),
        ring.add_group.add_table()).items() if (lhs != rhs).any()}
    if (act[:, ring.one] != np.arange(group.order)).any():
        broken.add("identity")
    return broken


def breaks(act, ring, group, law, witness) -> bool:
    if law == "identity":
        m, one = witness
        return one == ring.one and act[m, one] != m
    lhs, rhs = oracle_sides(act, ring.mul_np, group.add_table(),
                            ring.add_group.add_table())[law]
    return lhs[witness] != rhs[witness]


def _agree(act, ring, group) -> None:
    failed = _failed_law(act, ring, group)
    broken = oracle_broken(act, ring, group)
    assert (failed is None) == (not broken)
    if failed is not None:
        law, witness = failed
        assert law in broken and breaks(act, ring, group, law, witness)


@st.composite
def changed(draw, table, order):
    """table, or a copy with one entry set to another value below order."""
    if draw(st.booleans()):
        return table
    table = table.copy()
    i = draw(st.integers(0, table.shape[0] - 1))
    j = draw(st.integers(0, table.shape[1] - 1))
    table[i, j] = (table[i, j] + draw(st.integers(1, max(order - 1, 1)))) \
        % order
    return table


@st.composite
def action_tables(draw):
    ring = draw(st.sampled_from(RINGS))
    kind = draw(st.sampled_from(["regular", "free", "x", "constants"]))
    if kind == "regular":
        module = ring_as_module(ring, CAPS)
        group, act = module.add_group, module.act_np
    elif kind == "free":
        module = free_module(ring, 2, CAPS)
        group, act = module.add_group, module.act_np
    elif kind == "x":
        # over Z_2[x]/(x^2), with 1 acting as the identity and x as any
        # additive map: a module exactly when x acts with square zero
        ring = RINGS[-1]
        group = FinAbGroup(draw(st.sampled_from(((2,), (2, 2), (2, 1, 2)))))
        constants = {}
        for j in range(len(group.factors)):
            constants[j, 0] = group.basis_index(j)
            constants[j, 1] = draw(st.integers(0, group.order - 1))
        act = _bilinear_table(group, ring.add_group, constants)
    else:
        group = FinAbGroup(draw(st.sampled_from(GROUPS)))
        keys = st.tuples(st.integers(0, len(group.factors) - 1),
                         st.integers(0, len(ring.add_group.factors) - 1))
        constants = draw(st.dictionaries(
            keys, st.integers(0, group.order - 1)))
        act = _bilinear_table(group, ring.add_group, constants)
        if draw(st.booleans()):             # so that the identity holds
            act[:, ring.one] = np.arange(group.order)
    return ring, group, draw(changed(act, group.order))


@st.composite
def ring_tables(draw):
    """A ring on an unchecked table: a valid ring's, maybe changed, or the
    bilinear extension of arbitrary constants with an arbitrary one."""
    if draw(st.booleans()):
        valid = draw(st.sampled_from(RINGS))
        group, one = valid.add_group, valid.one
        mul = draw(changed(valid.mul_np, group.order))
    else:
        group = FinAbGroup(draw(st.sampled_from(GROUPS)))
        keys = st.tuples(*[st.integers(0, len(group.factors) - 1)] * 2)
        constants = draw(st.dictionaries(
            keys, st.integers(0, group.order - 1)))
        mul = _bilinear_table(group, group, constants)
        one = draw(st.integers(0, group.order - 1))
    return FiniteRing(group, one, {}, mul, "R")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(action_tables())
def test_action_tables_agree_with_every_triple(case):
    _agree(case[2], case[0], case[1])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ring_tables())
def test_ring_tables_agree_with_every_triple(ring):
    _agree(ring.mul_np, ring, ring.add_group)


def test_every_kind_of_table_is_drawn():
    """The draws reach valid tables and each law's failure, so agreement
    is not only agreement on tables that fail at once."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(action_tables(), ring_tables())
    def collect(case, bare):
        for act, ring, group in ((case[2], case[0], case[1]),
                                 (bare.mul_np, bare, bare.add_group)):
            failed = _failed_law(act, ring, group)
            seen.add(failed[0] if failed else "valid")

    collect()
    assert seen == {"valid", "identity", "associativity",
                    "distributivity_module", "distributivity_ring"}
