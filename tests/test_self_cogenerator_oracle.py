"""Differential test: the self-cogenerator decider against two oracles,
kept here unchanged from the bodies it replaced.

M/N is cogenerated by M iff the kernels of the maps M/N -> M meet in 0.
The first oracle builds every quotient M/N and its hom set into M.  The
second reads the kernels of Hom(M, M) once, since the maps M/N -> M are
the g with N <= Ker g, and asks whether N is the meet of those kernels.
The decider builds no map: it compares c(N) = |Hom(M/N, M)| with
c(N + mR), one m per distinct cyclic submodule.  Verdicts and
counterexamples must agree, or all stop at the same cap with the same
size, on the 21 corpus modules, every module of the `test_iso_oracle.py`
pools and the free modules z2^3, z5^2, z8^2, z6^2, z9^2 and t2z2^2, at
the default caps and under small lattice, hom and construct caps.  A
mutant that meets every kernel and one that tries only the first join of
each N must disagree.
"""

import dataclasses

import numpy as np
import pytest

from pirick import homs, properties
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import ex23_ring, zmod
from pirick.homs import hom_count, hom_set
from pirick.io import parse_module
from pirick.modules import cyclic_joins, free_module
from pirick.properties import Facts, decide_self_cogenerator
from pirick.rings import Verdict

from test_iso_oracle import _pools

CAPS = caps_from_env()
FREE = (("z2", 3), ("z5", 2), ("z8", 2), ("z6", 2), ("z9", 2), ("t2z2", 2))
SMALL = (CAPS, dataclasses.replace(CAPS, lattice=8),
         dataclasses.replace(CAPS, hom=200),
         dataclasses.replace(CAPS, construct=128))


def oracle_self_cogenerator(facts) -> Verdict:
    """Every factor module M/N is cogenerated by M: the kernels of all
    homomorphisms M/N -> M intersect to zero."""
    for mask in facts.lattice():
        quot, _ = facts.quotient(mask)
        homs = hom_set(quot, facts.module, facts.caps)
        in_all_kernels = (homs == 0).all(axis=0)
        if int(in_all_kernels.sum()) != 1:
            return Verdict(False, mask)
    return Verdict(True)


def oracle_kernel_meets(facts) -> Verdict:
    """Every factor module M/N is cogenerated by M: the kernels of all
    homomorphisms M/N -> M intersect to zero.  Those maps are the g in
    Hom(M, M) with N <= Ker g, read through the projection, so N must be
    the meet of the kernels of Hom(M, M) that contain it."""
    lattice = facts.lattice()
    kernels = _distinct_kernels(hom_set(facts.module, facts.module,
                                        facts.caps))
    for mask in lattice:
        meet = -1
        for kernel in kernels:
            if mask & kernel == mask:
                meet &= kernel
        if meet != mask:
            return Verdict(False, mask)
    return Verdict(True)


def _distinct_kernels(maps: np.ndarray) -> list:
    """The bitmasks of the distinct kernels of the rows of maps, found by
    one sort of the packed rows, padded with zero bytes to whole 64-bit
    words and read as such."""
    packed = np.packbits(maps == 0, axis=1, bitorder="little")
    words = np.zeros((len(maps), -(-packed.shape[1] // 8) * 8), np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(np.uint64)
    words = words[np.lexsort(words.T)]
    new = np.ones(len(words), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    return [int.from_bytes(row.tobytes(), "little") for row in words[new]]


def _meet_of_every_kernel(facts) -> Verdict:
    """A mutant: N against the meet of all kernels, not those over N."""
    lattice = facts.lattice()
    kernels = _distinct_kernels(hom_set(facts.module, facts.module,
                                        facts.caps))
    meet = -1
    for kernel in kernels:
        meet &= kernel
    for mask in lattice:
        if meet != mask:
            return Verdict(False, mask)
    return Verdict(True)


def _first_join_only(facts) -> Verdict:
    """A mutant: c(N) against c(N + mR) for the first m outside N only."""
    def count(mask):
        return hom_count(facts.quotient(mask)[0], facts.module, facts.caps)

    for mask in facts.lattice():
        joins = [join for join in cyclic_joins(facts.module, mask)
                 if join != mask]
        if joins and count(mask) == count(joins[0]):
            return Verdict(False, mask)
    return Verdict(True)


def _inputs(module_instances) -> list:
    free = [free_module(ex23_ring(CAPS) if ring == "t2z2"
                        else zmod(int(ring[1:]), CAPS), rank, CAPS)
            for ring, rank in FREE]
    return [m for pool in _pools() for m in pool] + free \
        + [i.module for i in module_instances]


def _outcome(fn, facts):
    """fn(facts), or the (what, size, cap) of its cap error."""
    try:
        return fn(facts)
    except SizeCapExceeded as err:
        return err.what, err.size, err.cap


@pytest.mark.parametrize("limits", SMALL, ids=("default", "lattice8",
                                               "hom200", "construct128"))
def test_the_decider_matches_the_oracle(limits, module_instances):
    assert len(module_instances) == 21
    inputs = _inputs(module_instances)
    outcomes = [(m.name, _outcome(decide_self_cogenerator, Facts(m, limits)))
                for m in inputs]
    for oracle in (oracle_self_cogenerator, oracle_kernel_meets):
        assert outcomes == [(m.name, _outcome(oracle, Facts(m, limits)))
                            for m in inputs], oracle.__name__
    if limits is CAPS:
        assert {o.holds for _, o in outcomes if isinstance(o, Verdict)} \
            == {True, False}


def _caught(mutant, module_instances) -> bool:
    return any(_outcome(mutant, Facts(m, CAPS))
               != _outcome(oracle_self_cogenerator, Facts(m, CAPS))
               for m in _inputs(module_instances))


def test_the_mutant_is_caught(module_instances):
    assert _caught(_meet_of_every_kernel, module_instances)


def test_a_decider_that_tries_only_the_first_join_is_caught(
        module_instances):
    assert _caught(_first_join_only, module_instances)


def test_distinct_kernels_spans_words():
    """A module of order above 64 packs its kernels in two words."""
    module = free_module(zmod(3, CAPS), 4, CAPS)
    maps = hom_set(module, free_module(zmod(3, CAPS), 1, CAPS), CAPS)
    kernels = _distinct_kernels(maps)
    assert module.order == 81 and len(kernels) == len(set(kernels))
    assert sorted(kernels) == sorted({sum(1 << e for e in range(81)
                                          if row[e] == 0)
                                      for row in maps.tolist()})


def z4_squared_plus_z2_squared(tmp_path):
    """Z4^2 + Z2^2 over Z/4, written to and parsed from a module file."""
    path = tmp_path / "z4z4z2z2.mod"
    path.write_text("module z4z4z2z2 over z4\nadd 4 4 2 2\n"
                    "act 1 1 1 0 0 0\nact 1 2 0 1 0 0\n"
                    "act 1 3 0 0 1 0\nact 1 4 0 0 0 1\nend\n")
    return parse_module(path, {"z4": zmod(4, CAPS)}, CAPS)


def test_z4_squared_plus_z2_squared_builds_no_map(tmp_path, monkeypatch,
                                                  misses, fresh_intern):
    """Z4^2 + Z2^2 over Z/4 has 64 elements and 4 generators, so Hom(M, M)
    has 64^4 = 2^24 candidates, exactly the default hom cap, and End(M)
    is over the construct cap.  The decider counts: it asks for neither
    Hom(M, M) nor End(M), and builds no hom set at all."""
    module = z4_squared_plus_z2_squared(tmp_path)

    def refused(*args):
        raise AssertionError("a hom set or End(M) was asked for")

    monkeypatch.setattr(homs, "hom_set", refused)
    monkeypatch.setattr(properties, "end_ring", refused)
    assert (module.order, len(module.add_group.factors)) == (64, 4)
    assert decide_self_cogenerator(Facts(module, CAPS)).holds
    assert misses.of(homs.end_ring) == []
