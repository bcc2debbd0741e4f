"""Differential test: the submodule lattice by cyclic extension, and the
radical, socle, small and essential submodules read off J(R), against the
lattice routines they replaced, kept here only as oracles.

The oracle lattice is the closure of the cyclic submodules under pairwise
sum; the oracle radical is the intersection of the maximal submodules, the
oracle socle the sum of the minimal nonzero ones, and N is small (essential)
when no proper K has N + K = M (no nonzero K has N meet K = 0).  Hypothesis
draws modules from the pools of `test_iso_oracle.py` and from one more pool
over A = F2[x, y]/(x, y)^2, whose radical J = {0, x, y, x + y} is not a
principal left ideal, so that M*J is not always the set of products m*j.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import modules
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.groups import FinAbGroup
from pirick.modules import (FiniteModule, Submodule, all_submodules,
                            elems_mask, free_module, is_essential, is_small,
                            mask_bits, radical, ring_as_module, socle)
from pirick.rings import jacobson_radical, ring_make

from test_iso_oracle import _derived, _pools

CAPS = caps_from_env()


def oracle_lattice_masks(module: FiniteModule) -> tuple:
    """Every submodule mask, ascending: the cyclic submodules closed under
    pairwise sum."""
    n = module.order
    add = module.add_group.add_table()
    bits = {}                                   # mask -> boolean elements
    for m in range(n):
        mask = elems_mask(module.act_np[m, :], n)
        bits.setdefault(mask, mask_bits(mask, n))
    frontier = list(bits)
    while frontier:
        new = []
        for a in frontier:
            for b in list(bits):
                if (a | b) in (a, b):           # one contains the other
                    continue
                mask = elems_mask(add[np.ix_(bits[a], bits[b])], n)
                if mask not in bits:
                    bits[mask] = mask_bits(mask, n)
                    new.append(mask)
        frontier = new
    return tuple(sorted(bits))


def oracle_radical(module: FiniteModule, lattice: tuple) -> int:
    """The intersection of the maximal submodules (M when there are none)."""
    full = (1 << module.order) - 1
    proper = [a for a in lattice if a != full]
    maximal = [a for a in proper
               if not any(b != a and a & b == a for b in proper)]
    return functools.reduce(int.__and__, maximal, full)


def oracle_socle(module: FiniteModule, lattice: tuple) -> int:
    """The sum of the minimal nonzero submodules (0 when there are none)."""
    add = module.add_group.add_table()
    out = 1
    for a in lattice:
        if a != 1 and not any(b not in (1, a) and b & a == b
                              for b in lattice):
            sums = add[np.ix_(mask_bits(out, module.order),
                              mask_bits(a, module.order))]
            out = elems_mask(sums, module.order)
    return out


def oracle_is_small(module: FiniteModule, lattice: tuple, mask: int) -> bool:
    """No proper K has N + K = M, read off |N| * |K| = |M| * |N meet K|."""
    total = module.order
    return not any(k.bit_count() != total and mask.bit_count()
                   * k.bit_count() == total * (mask & k).bit_count()
                   for k in lattice)


def oracle_is_essential(lattice: tuple, mask: int) -> bool:
    """No nonzero K has N meet K = 0."""
    return not any(k != 1 and mask & k == 1 for k in lattice)


@functools.lru_cache(maxsize=None)
def _local_ring():
    """A = F2[x, y]/(x, y)^2, on the basis 1, x, y."""
    group = FinAbGroup((2, 2, 2))
    one, x, y = (group.index_of(t) for t in ((1, 0, 0), (0, 1, 0),
                                               (0, 0, 1)))
    return ring_make(group, {(0, 0): one, (0, 1): x, (1, 0): x, (0, 2): y,
                             (2, 0): y}, one, CAPS, "a")


@functools.lru_cache(maxsize=None)
def _lattice_pools() -> tuple:
    ring = _local_ring()
    return _pools() + (_derived(ring_as_module(ring, CAPS))
                       + _derived(free_module(ring, 2, CAPS)),)


@st.composite
def pool_modules(draw):
    """A base ring's pool, then one of its modules."""
    return draw(st.sampled_from(draw(st.sampled_from(_lattice_pools()))))


def _assert_matches_oracle(module: FiniteModule):
    lattice = oracle_lattice_masks(module)
    assert tuple(sub.mask for sub in all_submodules(module, CAPS)) == lattice
    assert radical(module, CAPS).mask == oracle_radical(module, lattice)
    assert socle(module, CAPS).mask == oracle_socle(module, lattice)
    for mask in lattice:
        sub = Submodule(module, mask)
        assert is_small(sub, CAPS) == oracle_is_small(module, lattice, mask)
        assert is_essential(sub, CAPS) == oracle_is_essential(lattice, mask)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pool_modules())
def test_lattice_and_predicates_match_the_lattice_oracle(module):
    _assert_matches_oracle(module)


@pytest.mark.parametrize("n, rank", [(4, 3), (3, 4)])
def test_lattice_of_free_modules_matches_the_oracle(n, rank):
    caps = dataclasses.replace(CAPS, lattice=n ** rank)
    module = free_module(zmod(n, caps), rank, caps)
    assert tuple(sub.mask for sub in all_submodules(module, caps)) == \
        oracle_lattice_masks(module)


def test_the_radical_is_closed_under_addition():
    """In A^2, (x, 0) and (0, y) are products m*j, and their sum is not."""
    module = free_module(_local_ring(), 2, CAPS)
    products = elems_mask(module.act_np[:, jacobson_radical(module.ring)],
                          module.order)
    rad = radical(module, CAPS).mask
    assert products | rad == rad and products != rad
    _assert_matches_oracle(module)


def test_the_four_predicates_never_enumerate_the_lattice(monkeypatch,
                                                         fresh_intern):
    def unreachable(*args, **kwargs):
        raise AssertionError("the submodule lattice was enumerated")

    monkeypatch.setattr(modules, "all_submodules", unreachable)
    monkeypatch.setattr(modules, "_lattice_masks", unreachable)
    module = ring_as_module(zmod(12, CAPS), CAPS)
    two = Submodule(module, elems_mask(np.arange(0, 12, 2), 12))
    assert radical(module, CAPS).size == 2 and socle(module, CAPS).size == 6
    assert not is_small(two, CAPS) and is_essential(two, CAPS)
    tight = dataclasses.replace(CAPS, lattice=11)
    for call in (lambda: radical(module, tight),
                 lambda: socle(module, tight),
                 lambda: is_small(two, tight),
                 lambda: is_essential(two, tight)):
        with pytest.raises(SizeCapExceeded) as err:
            call()
        assert (err.value.what, err.value.size, err.value.cap) == \
            ("submodule lattice", 12, 11)
