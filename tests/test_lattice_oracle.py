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

The left singular ideal, read off a ring's own table, is checked the same
way against the route it replaced: the socle of the regular module of the
opposite ring.  Its rings are the pools' base rings and the End rings of
their modules; a socle read from the wrong side must fail.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import modules, rings
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import ex23_ring, zmod
from pirick.groups import FinAbGroup
from pirick.homs import end_ring, end_table
from pirick.modules import (FiniteModule, all_submodules, elems_mask,
                            free_module, mask_bits, masks, radical,
                            ring_as_module, socle)
from pirick.properties import left_singular_ideal
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
    assert all_submodules(module, CAPS) == lattice
    rad, soc = radical(module, CAPS), socle(module, CAPS)
    assert rad == oracle_radical(module, lattice)
    assert soc == oracle_socle(module, lattice)
    # N is small iff N <= Rad M, and essential iff Soc M <= N
    for mask in lattice:
        assert (mask | rad == rad) == oracle_is_small(module, lattice, mask)
        assert (mask & soc == soc) == oracle_is_essential(lattice, mask)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pool_modules())
def test_lattice_and_predicates_match_the_lattice_oracle(module):
    _assert_matches_oracle(module)


@pytest.mark.parametrize("n, rank", [(4, 3), (3, 4)])
def test_lattice_of_free_modules_matches_the_oracle(n, rank):
    caps = dataclasses.replace(CAPS, lattice=n ** rank)
    module = free_module(zmod(n, caps), rank, caps)
    assert all_submodules(module, caps) == oracle_lattice_masks(module)


def test_the_radical_is_closed_under_addition():
    """In A^2, (x, 0) and (0, y) are products m*j, and their sum is not."""
    module = free_module(_local_ring(), 2, CAPS)
    products = elems_mask(module.act_np[:, jacobson_radical(module.ring)],
                          module.order)
    rad = radical(module, CAPS)
    assert products | rad == rad and products != rad
    _assert_matches_oracle(module)


def test_the_four_predicates_never_enumerate_the_lattice(monkeypatch,
                                                         fresh_intern):
    def unreachable(*args, **kwargs):
        raise AssertionError("the submodule lattice was enumerated")

    monkeypatch.setattr(modules, "all_submodules", unreachable)
    monkeypatch.setattr(modules, "_lattice_masks", unreachable)
    module = ring_as_module(zmod(12, CAPS), CAPS)
    two = elems_mask(np.arange(0, 12, 2), 12)
    rad, soc = radical(module, CAPS), socle(module, CAPS)
    assert rad.bit_count() == 2
    assert soc.bit_count() == 6
    assert two | rad != rad                     # not small
    assert two & soc == soc                     # essential
    tight = dataclasses.replace(CAPS, lattice=11)
    for call in (lambda: radical(module, tight),
                 lambda: socle(module, tight),
                 lambda: two | radical(module, tight),
                 lambda: two & socle(module, tight)):
        with pytest.raises(SizeCapExceeded) as err:
            call()
        assert (err.value.what, err.value.size, err.value.cap) == \
            ("submodule lattice", 12, 11)


# ---------------------------------------------------------------------------
# the left singular ideal, against the opposite-ring socle route
# ---------------------------------------------------------------------------

SINGULAR_CAPS = dataclasses.replace(CAPS, construct=256, lattice=256)


def oracle_left_singular_ideal(ring, caps) -> list:
    """The f whose left annihilator {g : g*f = 0} is essential as a
    submodule of the right regular module of R^op (a left ideal of R), by
    that module's socle.  R^op is ring_make with swapped constants."""
    opposite = ring_make(ring.add_group,
                         {(j, i): c for (i, j), c in ring.constants.items()},
                         ring.one, caps, f"{ring.name}_op")
    reg = ring_as_module(opposite, caps)
    soc = socle(reg, caps)
    # row f of the transposed table holds g * f for every g; l(f) is
    # essential iff it contains the socle
    return [f for f, ann in enumerate(masks(ring.mul_np.T == 0))
            if ann & soc == soc]


def right_socle_mutant(ring, caps):
    """left_singular_ideal with the socle read from the right, x*J = 0."""
    caps.gate("lattice", "submodule lattice", ring.order)
    mul = ring.mul_np
    soc = (mul[:, jacobson_radical(ring)] == 0).all(axis=1)
    return np.flatnonzero((mul[soc] == 0).all(axis=0))


@functools.lru_cache(maxsize=None)
def _singular_rings() -> tuple:
    """The base rings of the lattice pools (Z/n, t2z2 and A), and the End
    rings of order <= 256 of their modules: one ring per structure."""
    rings = {}
    for module in (m for pool in _lattice_pools() for m in pool):
        rings.setdefault(module.ring.key, module.ring)
        try:
            end = end_table(end_ring(module, SINGULAR_CAPS))
        except SizeCapExceeded:
            continue
        rings.setdefault(end.key, end)
    return tuple(rings.values())


def _outcome(fn, ring, caps):
    """fn(ring, caps) as a list, or the (what, size, cap) of its cap error."""
    try:
        return [int(f) for f in fn(ring, caps)]
    except SizeCapExceeded as err:
        return err.what, err.size, err.cap


def _assert_singular_matches_oracle(ring, fn=left_singular_ideal):
    for caps in (CAPS, SINGULAR_CAPS):
        assert _outcome(fn, ring, caps) == \
            _outcome(oracle_left_singular_ideal, ring, caps)


@st.composite
def singular_rings(draw):
    return draw(st.sampled_from(_singular_rings()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(singular_rings())
def test_left_singular_ideal_matches_the_opposite_ring_oracle(ring):
    _assert_singular_matches_oracle(ring)


def test_left_singular_ideal_of_a_is_its_radical():
    """J(A)^2 = 0, so the left socle of A is J(A) and so is Z_l(A)."""
    ring = _local_ring()
    sing = left_singular_ideal(ring, CAPS).tolist()
    assert sing == jacobson_radical(ring).tolist() and len(sing) == 4
    _assert_singular_matches_oracle(ring)


def test_a_socle_read_from_the_right_fails_the_oracle():
    ring = ex23_ring(CAPS)                                  # t2z2
    assert left_singular_ideal(ring, CAPS).tolist() == [0]
    assert right_socle_mutant(ring, CAPS).tolist() == [0, 2, 4, 6]
    with pytest.raises(AssertionError):
        _assert_singular_matches_oracle(ring, right_socle_mutant)


def test_left_singular_ideal_builds_no_ring_and_no_module(monkeypatch,
                                                          fresh_intern):
    ring = ex23_ring(CAPS)

    def unreachable(*args, **kwargs):
        raise AssertionError("a ring or module table was built")

    for mod in (rings, modules):
        monkeypatch.setattr(mod, "_failed_law", unreachable)
        monkeypatch.setattr(mod, "_bilinear_table", unreachable)
    assert left_singular_ideal(ring, CAPS).tolist() == [0]
