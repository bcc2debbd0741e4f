"""Differential test: the self-cogenerator decider against the body it
replaced, kept here unchanged as an oracle.

M/N is cogenerated by M iff the kernels of the maps M/N -> M meet in 0.
The oracle builds every quotient M/N and its hom set into M; the decider
reads the kernels of Hom(M, M) once, since the maps M/N -> M are the g
with N <= Ker g, and asks whether N is the meet of those kernels.
Verdicts and counterexamples must agree, or both stop at the same cap
with the same size, on the 21 corpus modules, every module of the
`test_iso_oracle.py` pools and the free modules z2^3, z5^2, z8^2, z6^2,
z9^2 and t2z2^2, at the default caps and under small lattice, hom and
construct caps.  A mutant that meets every kernel must disagree.
"""

import dataclasses

import pytest

from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import ex23_ring, zmod
from pirick.homs import hom_set
from pirick.modules import free_module
from pirick.properties import Facts, _distinct_kernels, \
    decide_self_cogenerator
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
    assert outcomes == [
        (m.name, _outcome(oracle_self_cogenerator, Facts(m, limits)))
        for m in inputs]
    if limits is CAPS:
        assert {o.holds for _, o in outcomes if isinstance(o, Verdict)} \
            == {True, False}


def test_the_mutant_is_caught(module_instances):
    assert any(_outcome(_meet_of_every_kernel, Facts(m, CAPS))
               != _outcome(oracle_self_cogenerator, Facts(m, CAPS))
               for m in _inputs(module_instances))


def test_distinct_kernels_spans_words():
    """A module of order above 64 packs its kernels in two words."""
    module = free_module(zmod(3, CAPS), 4, CAPS)
    maps = hom_set(module, free_module(zmod(3, CAPS), 1, CAPS), CAPS)
    kernels = _distinct_kernels(maps)
    assert module.order == 81 and len(kernels) == len(set(kernels))
    assert sorted(kernels) == sorted({sum(1 << e for e in range(81)
                                          if row[e] == 0)
                                      for row in maps.tolist()})
