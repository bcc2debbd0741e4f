"""Hom-sets, endomorphism rings, chains, annihilators."""

import dataclasses

import numpy as np
import pytest

from pirick import homs
from pirick.caps import caps_from_env
from pirick.errors import NotAHomomorphism, PirickError, SizeCapExceeded
from pirick.families import ex23_module, zmod
from pirick.homs import (ModuleMap, compose, end_ring, hom_set, identity_map,
                         idempotent_image_masks, image, image_chain,
                         is_indecomposable, is_nilpotent_map, kernel,
                         kernel_chain, left_annihilator, map_power,
                         principal_left_ideal, right_annihilator,
                         summand_by_idempotent)
from pirick.modules import all_submodules, free_module, ring_as_module
from pirick.properties import PROPERTY_ORDER, analyze
from pirick.rings import ring_idempotents

CAPS = caps_from_env()


@pytest.fixture(scope="module")
def z4_reg():
    return ring_as_module(zmod(4), CAPS, name="z4_reg")


@pytest.fixture(scope="module")
def ex23():
    return ex23_module(CAPS)


def test_module_map_validation(z4_reg):
    with pytest.raises(NotAHomomorphism):
        ModuleMap(z4_reg, z4_reg, (0, 1, 3, 2))  # not additive
    doubling = ModuleMap(z4_reg, z4_reg, (0, 2, 0, 2))
    assert doubling.table == (0, 2, 0, 2)


def test_hom_set_of_regular_module_matches_ring(z4_reg):
    homs = hom_set(z4_reg, z4_reg, CAPS)
    # End(R as module over itself) has exactly |R| maps: left multiplications
    assert len(homs) == 4
    tables = sorted(map(tuple, homs.tolist()))
    assert tables == [(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1)]


def test_end_ring_structure(z4_reg):
    end = end_ring(z4_reg, CAPS)
    assert end.ring.order == 4
    # ring multiplication agrees with composition of the stored maps
    for i in range(4):
        for j in range(4):
            composed = compose(end.maps[i], end.maps[j])
            assert end.maps[int(end.ring.mul_np[i, j])].table == composed.table
    assert end.ring.one == end.map_index(identity_map(z4_reg))


def test_end_ring_of_free_module():
    f2 = free_module(zmod(2), 2, CAPS)
    end = end_ring(f2, CAPS)
    assert end.ring.order == 16           # 2x2 matrices over Z_2
    assert ring_idempotents(end.ring).size == 8


def test_map_power_and_identity(z4_reg):
    end = end_ring(z4_reg, CAPS)
    doubling = [f for f in end.maps if f.table == (0, 2, 0, 2)][0]
    assert map_power(doubling, 2).table == (0, 0, 0, 0)
    assert map_power(doubling, 0).table == (0, 1, 2, 3)
    with pytest.raises(PirickError):
        map_power(doubling, -1)


def test_image_and_kernel(z4_reg):
    end = end_ring(z4_reg, CAPS)
    doubling = [f for f in end.maps if f.table == (0, 2, 0, 2)][0]
    assert image(doubling).elems == (0, 2)
    assert kernel(doubling).elems == (0, 2)


def test_chains_stabilize(z4_reg):
    end = end_ring(z4_reg, CAPS)
    doubling = [f for f in end.maps if f.table == (0, 2, 0, 2)][0]
    imgs, s = image_chain(doubling)
    assert [i.elems for i in imgs] == [(0, 2), (0,)]
    assert s == 2
    kers, t = kernel_chain(doubling)
    assert [k.elems for k in kers] == [(0, 2), (0, 1, 2, 3)]
    assert t == 2
    nil, idx = is_nilpotent_map(doubling)
    assert nil and idx == 2


def test_annihilators(ex23):
    end = end_ring(ex23, CAPS)
    # l_S(0 element set) is everything; r_M(whole ring) is 0
    assert left_annihilator(end, [0]).size == end.ring.order
    assert right_annihilator(end, range(end.ring.order)).elems == (0,)
    # l_S and r_M are antitone
    small = left_annihilator(end, [0, 1])
    large = left_annihilator(end, [0, 1, 4])
    assert set(large.tolist()) <= set(small.tolist())


def test_idempotent_images_are_summands(ex23):
    end = end_ring(ex23, CAPS)
    masks = idempotent_image_masks(end)
    lattice = {sub.mask: sub for sub in all_submodules(ex23, CAPS)}
    for mask in masks:
        assert mask in lattice
        ok, e = summand_by_idempotent(lattice[mask], end)
        assert ok and e in ring_idempotents(end.ring).tolist()


def test_summand_routes_agree_on_ex23(ex23):
    from pirick.modules import is_direct_summand
    end = end_ring(ex23, CAPS)
    for sub in all_submodules(ex23, CAPS):
        by_complement, _ = is_direct_summand(sub, CAPS)
        by_idempotent, _ = summand_by_idempotent(sub, end)
        assert by_complement == by_idempotent


def test_principal_left_ideal(z4_reg):
    end = end_ring(z4_reg, CAPS)
    # S*1 is everything, S*0 is zero
    assert principal_left_ideal(end, end.ring.one).size == 4
    assert principal_left_ideal(end, 0).tolist() == [0]


def test_indecomposability(z4_reg):
    assert is_indecomposable(end_ring(z4_reg, CAPS))
    z6_reg = ring_as_module(zmod(6), CAPS)
    assert not is_indecomposable(end_ring(z6_reg, CAPS))


def test_hom_between_different_modules():
    z4_reg = ring_as_module(zmod(4), CAPS)
    z2_like = [f for f in all_submodules(z4_reg, CAPS) if f.size == 2][0]
    from pirick.modules import submodule_module
    inner, _ = submodule_module(z2_like, CAPS)
    homs = hom_set(inner, z4_reg, CAPS)
    # maps {0,2} -> Z_4 over Z_4: generator must land on an element killed by 2
    assert len(homs) == 2
    images = sorted(map(tuple, homs.tolist()))
    assert images == [(0, 0), (0, 2)]


def test_hom_cap():
    tight = dataclasses.replace(CAPS, hom=2)
    f2 = free_module(zmod(2), 2, CAPS)
    with pytest.raises(SizeCapExceeded):
        hom_set(f2, f2, tight)


def _record_end_homs(monkeypatch) -> list:
    """Give end_ring an empty cache; record each hom_set call it makes."""
    monkeypatch.setattr(homs, "_END_CACHE", {})
    calls = []
    real = homs.hom_set

    def counted(domain, codomain, caps=CAPS):
        calls.append((domain, codomain, caps))
        return real(domain, codomain, caps)

    monkeypatch.setattr(homs, "hom_set", counted)
    return calls


def test_self_check_catches_a_corrupted_table(monkeypatch):
    module = ring_as_module(zmod(4), CAPS, name="z4_corrupt")
    monkeypatch.setattr(homs, "_END_CACHE", {})
    real = homs.ring_make

    def corrupted(*args, **kwargs):
        ring = real(*args, **kwargs)
        ring.mul_np[2, 3] = (ring.mul_np[2, 3] + 1) % ring.order
        return ring

    monkeypatch.setattr(homs, "ring_make", corrupted)
    with pytest.raises(PirickError, match=r"composition at \(2, 3\)"):
        end_ring(module, CAPS)


def test_cap_failure_is_built_once_per_structure_and_caps(monkeypatch):
    module = free_module(zmod(2), 3, CAPS, name="z2_free3")
    calls = _record_end_homs(monkeypatch)
    tight = dataclasses.replace(CAPS, construct=256)
    report = analyze(module, tight)
    assert len(calls) == 1
    skipped = {p for p, s in report.statuses.items() if s == "skipped"}
    assert skipped == set(PROPERTY_ORDER) - {"self_cogenerator"}
    assert {report.witnesses[p] for p in skipped} == {"cap:ring construction"}
    with pytest.raises(SizeCapExceeded,
                       match="ring construction: size 512 exceeds cap 256"):
        end_ring(module, tight)
    assert len(calls) == 1
    assert end_ring(module, CAPS).ring.order == 512
    assert calls == [(module, module, tight), (module, module, CAPS)]


def test_end_ring_is_shared_by_modules_of_one_structure(monkeypatch):
    first = ring_as_module(zmod(6), CAPS, name="first")
    second = ring_as_module(zmod(6), CAPS, name="second")
    calls = _record_end_homs(monkeypatch)
    end1 = end_ring(first, CAPS)
    end2 = end_ring(second, CAPS)
    assert calls == [(first, first, CAPS)]
    assert all(f.domain is second and f.codomain is second
               for f in end2.maps)
    assert np.array_equal(end1.ring.mul_np, end2.ring.mul_np)
    assert (end1.ring.name, end2.ring.name) == ("end_first", "end_second")
    assert end_ring(second, CAPS) is end2


def test_construct_cap_is_raised_before_coordinates(monkeypatch):
    module = free_module(zmod(2), 3, CAPS, name="z2_free3")
    monkeypatch.setattr(homs, "_END_CACHE", {})

    def unreachable(*args, **kwargs):
        raise AssertionError("End(M) was given coordinates over the cap")

    monkeypatch.setattr(homs, "group_embedding", unreachable)
    tight = dataclasses.replace(CAPS, construct=256)
    with pytest.raises(SizeCapExceeded,
                       match="ring construction: size 512 exceeds cap 256"):
        end_ring(module, tight)
