"""Modules: lattice, summands, radical/socle, quotients, isomorphism."""

import dataclasses

import numpy as np
import pytest

from pirick import modules, rings
from pirick.caps import caps_from_env
from pirick.errors import AxiomViolation, SizeCapExceeded
from pirick.families import ex23_module, zmod
from pirick.groups import FinAbGroup
from pirick.homs import are_isomorphic, find_isomorphism
from pirick.modules import (all_submodules, cyclic_submodule,
                            first_moving_map, free_module,
                            is_direct_summand, is_essential, is_small,
                            mask_bits, module_generators, module_make,
                            quotient_module, radical, ring_as_module, socle,
                            submodule_module)

CAPS = caps_from_env()


def _elems(module, mask: int) -> tuple:
    """The elements of the submodule with this mask, ascending."""
    return tuple(np.flatnonzero(mask_bits(mask, module.order)).tolist())


@pytest.fixture(scope="module")
def z4_reg():
    return ring_as_module(zmod(4), CAPS, name="z4_reg")


@pytest.fixture(scope="module")
def z6_reg():
    return ring_as_module(zmod(6), CAPS, name="z6_reg")


@pytest.fixture(scope="module")
def ex23():
    return ex23_module(CAPS)


def test_module_make_validates_action():
    ring = zmod(2)
    group = FinAbGroup((2,))
    # action sending m*1 to 0 violates unitality
    with pytest.raises(AxiomViolation):
        module_make(ring, group, {(0, 0): 0}, CAPS, "broken")


def test_regular_module_action(z4_reg):
    # module elements are ring elements; action is ring multiplication
    assert z4_reg.act_np[3, 3] == 1
    assert z4_reg.act_np[2, 2] == 0
    assert z4_reg.order == 4


def test_regular_module_action_is_the_ring_multiplication(ring_instances):
    # one builder serves both: R_R's action table is R's multiplication
    for inst in ring_instances:
        assert np.array_equal(ring_as_module(inst.ring, CAPS).act_np,
                              inst.ring.mul_np), inst.name


def test_submodule_lattice_of_z4(z4_reg):
    lattice = all_submodules(z4_reg, CAPS)
    masks = sorted(_elems(z4_reg, sub) for sub in lattice)
    assert masks == [(0,), (0, 1, 2, 3), (0, 2)]


def test_submodule_lattice_of_z6(z6_reg):
    lattice = all_submodules(z6_reg, CAPS)
    sizes = sorted(sub.bit_count() for sub in lattice)
    assert sizes == [1, 2, 3, 6]


def test_lattice_of_ex23(ex23):
    lattice = all_submodules(ex23, CAPS)
    assert len(lattice) == 7
    elems = sorted(_elems(ex23, sub) for sub in lattice)
    assert elems == [(0,), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 7),
                     (0, 1, 4, 5), (0, 4), (0, 5)]


def test_cyclic_and_generated(z4_reg):
    assert _elems(z4_reg, cyclic_submodule(z4_reg, 2)) == (0, 2)
    assert cyclic_submodule(z4_reg, 1).bit_count() == 4


def test_direct_summand_complement_route(z4_reg, z6_reg):
    sub = cyclic_submodule(z4_reg, 2)
    ok, _ = is_direct_summand(z4_reg, sub, CAPS)
    assert not ok                         # {0,2} has no complement in Z_4
    three = cyclic_submodule(z6_reg, 3)   # {0,3}, complement {0,2,4}
    ok, comp = is_direct_summand(z6_reg, three, CAPS)
    assert ok and _elems(z6_reg, comp) == (0, 2, 4)


def test_small_and_essential(z4_reg, z6_reg):
    two = cyclic_submodule(z4_reg, 2)
    assert is_small(z4_reg, two, CAPS)          # {0,2} superfluous in Z_4
    assert is_essential(z4_reg, two, CAPS)      # meets every nonzero one
    three = cyclic_submodule(z6_reg, 3)
    assert not is_small(z6_reg, three, CAPS)    # {0,3} + {0,2,4} = Z_6
    assert not is_essential(z6_reg, three, CAPS)
    assert not is_small(z4_reg, 0b1111, CAPS)
    assert is_small(z4_reg, 0b1, CAPS)


def test_fully_invariant(ex23):
    from pirick.homs import end_ring
    end = end_ring(ex23, CAPS)
    lattice = all_submodules(ex23, CAPS)
    invariant = sorted(_elems(ex23, sub) for sub in lattice
                       if first_moving_map(sub, end.tables) is None)
    # the non-invariant ones witness that the module is not duo
    assert (0,) in invariant and tuple(range(8)) in invariant
    assert len(invariant) < len(lattice)


def test_radical_and_socle(z4_reg, z6_reg):
    assert _elems(z4_reg, radical(z4_reg, CAPS)) == (0, 2)
    assert _elems(z4_reg, socle(z4_reg, CAPS)) == (0, 2)
    assert _elems(z6_reg, radical(z6_reg, CAPS)) == (0,)
    assert socle(z6_reg, CAPS).bit_count() == 6
    z12_reg = ring_as_module(zmod(12), CAPS)
    assert _elems(z12_reg, radical(z12_reg, CAPS)) == (0, 6)
    assert _elems(z12_reg, socle(z12_reg, CAPS)) == (0, 2, 4, 6, 8, 10)


def test_quotient_module(z4_reg):
    sub = cyclic_submodule(z4_reg, 2)
    quotient, projection = quotient_module(z4_reg, sub, CAPS)
    assert quotient.order == 2
    assert projection.shape == (4,)
    # projection is onto and kills exactly the submodule
    assert set(projection.tolist()) == {0, 1}
    assert [i for i in range(4) if projection[i] == 0] == [0, 2]


def test_submodule_as_module(z6_reg):
    three = cyclic_submodule(z6_reg, 3)
    inner, inclusion = submodule_module(z6_reg, three, CAPS)
    assert inner.order == 2
    assert inclusion.tolist() == [0, 3]


def test_free_module_structure():
    z2 = zmod(2)
    f2 = free_module(z2, 2, CAPS)
    assert f2.order == 4
    assert len(module_generators(f2)) == 2
    f1 = free_module(z2, 1, CAPS)
    assert are_isomorphic(f1, ring_as_module(z2, CAPS))


def test_module_isomorphism(z6_reg):
    # Z_6 as a module over itself is isomorphic to itself, and the iso
    # respects the action
    iso = find_isomorphism(z6_reg, z6_reg)
    assert iso is not None
    other = ring_as_module(zmod(4), CAPS)
    assert not are_isomorphic(z6_reg, other)


def test_quotient_of_ex23_sizes(ex23):
    lattice = all_submodules(ex23, CAPS)
    for sub in lattice:
        quotient, _ = quotient_module(ex23, sub, CAPS)
        assert quotient.order * sub.bit_count() == ex23.order


def test_lattice_cap(z4_reg):
    import dataclasses
    small = dataclasses.replace(CAPS, lattice=2)
    with pytest.raises(SizeCapExceeded):
        all_submodules(z4_reg, small)


def test_lattice_is_the_interned_tuple(ex23):
    """Every call returns the one interned tuple of masks, not a new
    wrapping of it."""
    lattice = all_submodules(ex23, CAPS)
    assert all_submodules(ex23, CAPS) is lattice
    assert isinstance(lattice, tuple)
    assert all(isinstance(mask, int) for mask in lattice)


# Action tables of R^2 corrupted after construction.  Under scan=2 the module
# laws exceed the scan**3 budget and are checked on random triples; the
# recorded triples pin each law's seed and draw order (|M| != |R| here).
_BUILD = rings._bilinear_table
TIGHT = dataclasses.replace(CAPS, scan=2)


def _zero_row_2(group, ring_group, constants):
    table = _BUILD(group, ring_group, constants)
    table[2, :] = 0
    table[2, 1] = 2                      # keeps the identity law of Z_n
    return table


def _swap_2_3(group, ring_group, constants):
    """m*r moved through the non-additive bijection 2 <-> 3 of M."""
    s = np.array([0, 1, 3, 2] + list(range(4, group.order)))
    return s[_BUILD(group, ring_group, constants)[s, :]].astype(np.int32)


def _fifth_power(group, ring_group, constants):
    """m*r^5: multiplicative in r, not additive."""
    r = np.arange(ring_group.order)
    return _BUILD(group, ring_group, constants)[:, r ** 5 % ring_group.order]


@pytest.mark.parametrize("n, caps, table, law, triple", [
    (4, TIGHT, _zero_row_2, "associativity", (1, 2, 3)),
    (3, TIGHT, _swap_2_3, "distributivity_module", (7, 1, 2)),
    (3, CAPS, _swap_2_3, "distributivity_module", (1, 3, 2)),
    (7, TIGHT, _fifth_power, "distributivity_ring", (6, 3, 2)),
    (7, CAPS, _fifth_power, "distributivity_ring", (1, 1, 1)),
])
def test_validation_names_the_first_bad_triple(monkeypatch, fresh_intern, n,
                                               caps, table, law, triple):
    ring = zmod(n, caps)
    monkeypatch.setattr(modules, "_bilinear_table", table)
    with pytest.raises(AxiomViolation) as err:
        free_module(ring, 2, caps)
    assert (err.value.axiom, err.value.witness) == (law, triple)
