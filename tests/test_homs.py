"""Hom-sets, endomorphism rings, chains, annihilators."""

import dataclasses

import numpy as np
import pytest

from pirick import homs
from pirick.caps import caps_from_env
from pirick.errors import NotAHomomorphism, PirickError, SizeCapExceeded
from pirick.families import ex23_module, zmod
from pirick.homs import (check_map, end_ring, end_table, hom_set,
                         idempotent_image_masks, idempotent_maps,
                         left_annihilator, nontrivial_idempotent_maps,
                         power_rows, right_annihilator)
from pirick.modules import (all_submodules, free_module, mask_bits,
                            ring_as_module)
from pirick.properties import PROPERTY_ORDER, analyze

CAPS = caps_from_env()


def _elems(module, mask: int) -> tuple:
    """The elements of the submodule with this mask, ascending."""
    return tuple(np.flatnonzero(mask_bits(mask, module.order)).tolist())


@pytest.fixture(scope="module")
def z4_reg():
    return ring_as_module(zmod(4), CAPS, name="z4_reg")


@pytest.fixture(scope="module")
def ex23():
    return ex23_module(CAPS)


def test_module_map_validation(z4_reg):
    with pytest.raises(NotAHomomorphism) as err:
        check_map(z4_reg, z4_reg, (0, 1, 3, 2))  # not additive
    # first failing (x, generator, basis element): t(1 + 1*1) != t(1) + t(1)
    assert (err.value.law, err.value.witness) == ("relation", (1, 1, 1))
    doubling = check_map(z4_reg, z4_reg, (0, 2, 0, 2))
    assert tuple(doubling.tolist()) == (0, 2, 0, 2)
    assert doubling.dtype == np.uint8 and not doubling.flags.writeable


def test_hom_set_of_regular_module_matches_ring(z4_reg):
    homs = hom_set(z4_reg, z4_reg, CAPS)
    # End(R as module over itself) has exactly |R| maps: left multiplications
    assert len(homs) == 4
    tables = sorted(map(tuple, homs.tolist()))
    assert tables == [(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1)]


def _row(end, table) -> int:
    """The ring index of the endomorphism with this table."""
    return int(np.flatnonzero((end.tables == table).all(axis=1))[0])


def test_end_ring_structure(z4_reg):
    end = end_ring(z4_reg, CAPS)
    ring = end_table(end)
    assert end.order == ring.order == 4
    # ring multiplication agrees with composition of the stored tables
    for i in range(4):
        for j in range(4):
            composed = end.tables[i][end.tables[j]]
            assert (end.tables[int(ring.mul_np[i, j])] == composed).all()
    assert end.one == ring.one == _row(end, np.arange(4))


def test_end_ring_of_free_module():
    f2 = free_module(zmod(2), 2, CAPS)
    end = end_ring(f2, CAPS)
    assert end.order == 16                # 2x2 matrices over Z_2
    assert idempotent_maps(end).size == 8


def test_map_power_and_identity(z4_reg):
    end = end_ring(z4_reg, CAPS)
    doubling = end.tables[_row(end, [0, 2, 0, 2])]
    assert doubling[doubling].tolist() == [0, 0, 0, 0]
    assert end.tables[end.one].tolist() == [0, 1, 2, 3]


def test_image_and_kernel(z4_reg):
    end = end_ring(z4_reg, CAPS)
    doubling = _row(end, [0, 2, 0, 2])
    assert _elems(z4_reg, end.images[doubling]) == (0, 2)
    assert _elems(z4_reg, end.kernels[doubling]) == (0, 2)


def test_chains_stabilize(z4_reg):
    end = end_ring(z4_reg, CAPS)
    doubling = _row(end, [0, 2, 0, 2])
    # doubling, then 0, and the row ends: nilpotent of index 2
    assert end.powers[doubling].tolist() == [doubling, 0]
    assert dict(power_rows(end))[doubling] == [doubling, 0]
    imgs = [end.images[x] for x in end.powers[doubling]]
    assert [_elems(z4_reg, i) for i in imgs] == [(0, 2), (0,)]
    kers = [end.kernels[x] for x in end.powers[doubling]]
    assert [_elems(z4_reg, k) for k in kers] == \
        [(0, 2), (0, 1, 2, 3)]
    # the identity's row is itself alone, as is the unit 3 = -1's: its
    # index is 1, though its period is 2
    assert end.powers[end.one].tolist() == [end.one, -1]
    assert end.powers[_row(end, [0, 3, 2, 1])].tolist()[1] == -1


def test_power_chains_match_powers_taken_one_at_a_time(ex23):
    end = end_ring(ex23, CAPS)
    rows = dict(power_rows(end))
    for i, f in enumerate(end.tables):
        power, tables, imgs, kers = f, [], [], []
        for _ in range(ex23.order + 1):
            tables.append(power.tolist())
            imgs.append(sum(1 << x for x in set(power.tolist())))
            kers.append(sum(1 << x for x in np.flatnonzero(power == 0)))
            power = f[power]
        s = next(n for n in range(1, len(imgs)) if imgs[n] == imgs[n - 1])
        t = next(n for n in range(1, len(kers)) if kers[n] == kers[n - 1])
        assert s == t == len(rows[i])
        assert [end.tables[x].tolist() for x in rows[i]] == tables[:s]
        assert [end.images[x] for x in rows[i]] == imgs[:s]
        assert [end.kernels[x] for x in rows[i]] == kers[:t]


def test_annihilators(ex23):
    end = end_ring(ex23, CAPS)
    # l_S({0}) is everything; r_M(whole ring) is 0
    assert left_annihilator(end, 0b1).size == end.order
    assert right_annihilator(end, range(end.order)) == 1         # {0}
    # l_S and r_M are antitone
    small = left_annihilator(end, 0b11)                          # {0, 1}
    large = left_annihilator(end, 0b10011)                       # {0, 1, 4}
    assert set(large.tolist()) <= set(small.tolist())


def test_idempotent_images_are_summands(ex23):
    end = end_ring(ex23, CAPS)
    masks = idempotent_image_masks(end)
    lattice = set(all_submodules(ex23, CAPS))
    for mask, e in masks.items():
        assert mask in lattice
        assert e in idempotent_maps(end).tolist()
        assert end.images[e] == mask


def test_summand_routes_agree_on_ex23(ex23):
    from pirick.modules import is_direct_summand
    masks = idempotent_image_masks(end_ring(ex23, CAPS))
    for sub in all_submodules(ex23, CAPS):
        by_complement, _ = is_direct_summand(ex23, sub, CAPS)
        assert by_complement == (sub in masks)


def test_principal_left_ideal(z4_reg):
    ring = end_table(end_ring(z4_reg, CAPS))
    # S*1 is everything, S*0 is zero
    assert np.unique(ring.mul_np[:, ring.one]).size == 4
    assert np.unique(ring.mul_np[:, 0]).tolist() == [0]


def test_indecomposability(z4_reg):
    assert not nontrivial_idempotent_maps(end_ring(z4_reg, CAPS))
    z6_reg = ring_as_module(zmod(6), CAPS)
    assert nontrivial_idempotent_maps(end_ring(z6_reg, CAPS))


def test_hom_between_different_modules():
    z4_reg = ring_as_module(zmod(4), CAPS)
    z2_like = [f for f in all_submodules(z4_reg, CAPS)
               if f.bit_count() == 2][0]
    from pirick.modules import submodule_module
    inner, _ = submodule_module(z4_reg, z2_like, CAPS)
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


def _record_end_homs(monkeypatch, name: str = "hom_set") -> list:
    """Record each call of `name`, hom_set or hom_count, that end_ring
    makes."""
    calls = []
    real = getattr(homs, name)

    def counted(domain, codomain, caps=CAPS):
        calls.append((domain, codomain, caps))
        return real(domain, codomain, caps)

    monkeypatch.setattr(homs, name, counted)
    return calls


def test_self_check_catches_a_corrupted_table(monkeypatch, fresh_intern):
    module = ring_as_module(zmod(4), CAPS, name="z4_corrupt")
    real = homs.ring_make

    def corrupted(*args, **kwargs):
        ring = real(*args, **kwargs)
        with pytest.raises(ValueError, match="read-only"):
            ring.mul_np[2, 3] = 0                # the shared table
        ring.mul_np = ring.mul_np.copy()         # a private copy
        ring.mul_np[2, 3] = (ring.mul_np[2, 3] + 1) % ring.order
        return ring

    monkeypatch.setattr(homs, "ring_make", corrupted)
    end = end_ring(module, CAPS)         # the maps alone build no table
    with pytest.raises(PirickError, match=r"composition at \(2, 3\)"):
        end_table(end)


def test_self_check_compares_every_generator_column(monkeypatch,
                                                   fresh_intern):
    """End(Z_2^2) = M_2(Z_2) needs two generators.  A product of two
    nonzero maps is corrupted into a map that agrees with the composition on
    the first generator and differs on the second; the generator-column
    self-check names its pair."""
    module = free_module(zmod(2), 2, CAPS, name="z2_free2")
    gens = list(homs.module_generators(module))
    end = end_ring(module, CAPS)
    tables, mul = end.tables, end_table(end).mul_np
    assert len(gens) == 2
    i, j, wrong = next(
        (i, j, v) for i in range(1, len(tables))
        for j in range(1, len(tables)) for v in range(len(tables))
        if tables[v, gens[0]] == tables[i][tables[j, gens[0]]]
        and tables[v, gens[1]] != tables[i][tables[j, gens[1]]])
    assert wrong != mul[i, j]
    fresh_intern.clear()
    real = homs.ring_make

    def corrupted(*args, **kwargs):
        ring = real(*args, **kwargs)
        ring.mul_np = ring.mul_np.copy()
        ring.mul_np[i, j] = wrong
        return ring

    monkeypatch.setattr(homs, "ring_make", corrupted)
    with pytest.raises(PirickError, match=rf"composition at \({i}, {j}\)"):
        end_table(end_ring(free_module(zmod(2), 2, CAPS, name="z2_free2"),
                           CAPS))


def test_cap_failure_is_built_once_per_structure_and_caps(monkeypatch,
                                                          fresh_intern):
    module = free_module(zmod(2), 3, CAPS, name="z2_free3")
    built = _record_end_homs(monkeypatch)
    counted = _record_end_homs(monkeypatch, "hom_count")
    tight = dataclasses.replace(CAPS, construct=256)
    report = analyze(module, tight)
    # the construct gate reads |Hom(M, M)| off hom_count: no map is built
    assert counted == [(module, module, tight)] and built == []
    skipped = {p for p, s in report.statuses.items() if s == "skipped"}
    assert skipped == set(PROPERTY_ORDER) - {"self_cogenerator"}
    assert {report.witnesses[p] for p in skipped} == {"cap:ring construction"}
    with pytest.raises(SizeCapExceeded,
                       match="ring construction: size 512 exceeds cap 256"):
        end_ring(module, tight)
    assert len(counted) == 1 and built == []
    assert end_ring(module, CAPS).order == 512
    assert counted == [(module, module, tight), (module, module, CAPS)]
    assert built == [(module, module, CAPS)]


def test_end_ring_is_shared_by_modules_of_one_structure(monkeypatch,
                                                        fresh_intern):
    first = ring_as_module(zmod(6), CAPS, name="first")
    second = ring_as_module(zmod(6), CAPS, name="second")
    calls = _record_end_homs(monkeypatch)
    end1 = end_ring(first, CAPS)
    end2 = end_ring(second, CAPS)
    assert calls == [(first, first, CAPS)]
    # one End(M), named after neither module
    assert end2 is end1
    assert end_table(end1).name == "End(M)"


def test_construct_cap_is_raised_before_coordinates(monkeypatch,
                                                    fresh_intern):
    module = free_module(zmod(2), 3, CAPS, name="z2_free3")

    def unreachable(*args, **kwargs):
        raise AssertionError("End(M) was given coordinates over the cap")

    monkeypatch.setattr(homs, "group_embedding", unreachable)
    tight = dataclasses.replace(CAPS, construct=256)
    with pytest.raises(SizeCapExceeded,
                       match="ring construction: size 512 exceeds cap 256"):
        end_ring(module, tight)
