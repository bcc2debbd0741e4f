"""Differential test: the morphic, C2 and D2 deciders against the searches
they replaced, kept here unchanged as oracles.

The deciders read End(M)'s distinct (Im g, Ker g) pairs:
- f is morphic iff (Ker f, Im f) is some g's pair;
- N is isomorphic to the summand D = eM iff (N, Ker e) is some g's pair;
- M/N is isomorphic to D iff (D, N) is some g's pair.

The oracles build M/Im f, Ker f, N, M/N and D as modules and search for an
isomorphism with `test_iso_oracle.find_isomorphism`, the first bijective
row of `hom_set`.  Verdicts and counterexamples must agree, or both stop at
the same cap, on the 21 corpus modules, every module of the
`test_iso_oracle.py` pools, the free modules z2^3, z5^2, z8^2, z6^2, z9^2
and t2z2^2, and z2_free4, (Z/2)^4 over Z/2 with 65,536 maps, under
construct and hom caps of 2^20.  Three mutants must disagree with the
oracles on these inputs: D2 looking up (N, D), C2 looking up Im e in place
of Ker e, and morphic looking up (Im f, Ker f) itself.
"""

import dataclasses
import functools

import pytest

from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import ex23_ring, zmod
from pirick.homs import _distinct_pairs, end_ring, first_offender
from pirick.modules import free_module
from pirick.properties import Facts, decide_c2, decide_d2, decide_morphic
from pirick.rings import Verdict

from test_iso_oracle import _pools, are_isomorphic

CAPS = caps_from_env()
BIG = dataclasses.replace(CAPS, construct=1 << 20, hom=1 << 20)
FREE = (("z2", 3), ("z5", 2), ("z8", 2), ("z6", 2), ("z9", 2), ("t2z2", 2))


# ---------------------------------------------------------------------------
# the oracles: the deciders as they were
# ---------------------------------------------------------------------------


def oracle_morphic(facts) -> Verdict:
    """M/Im f and Ker f are isomorphic, for every f, by search."""
    pairs, pair_of = _distinct_pairs(facts.end())
    for p, (im, ker) in enumerate(pairs):
        if not are_isomorphic(facts.quotient(im)[0], facts.inner(ker)[0],
                              facts.caps):
            return Verdict(False, int((pair_of == p).argmax()))
    return Verdict(True)


def _oracle_summand_when_isomorphic(facts, quotients: bool) -> Verdict:
    idem = facts.idem_masks()
    summands = sorted(idem)
    for mask in facts.lattice():
        if mask in idem:
            continue
        shape = (facts.quotient if quotients else facts.inner)(mask)[0]
        for dmask in summands:
            if dmask.bit_count() != shape.order:
                continue
            dinner, _ = facts.inner(dmask)
            if are_isomorphic(shape, dinner, facts.caps):
                return Verdict(False, (mask, dmask))
    return Verdict(True)


ORACLES = {
    "morphic": (decide_morphic, oracle_morphic),
    "c2": (decide_c2, functools.partial(_oracle_summand_when_isomorphic,
                                        quotients=False)),
    "d2": (decide_d2, functools.partial(_oracle_summand_when_isomorphic,
                                        quotients=True)),
}


# ---------------------------------------------------------------------------
# the inputs and the comparison
# ---------------------------------------------------------------------------


def _free_modules() -> list:
    return [free_module(ex23_ring(CAPS) if ring == "t2z2"
                        else zmod(int(ring[1:]), CAPS), rank, CAPS)
            for ring, rank in FREE]


def _inputs(module_instances) -> list:
    """Every input module but z2_free4."""
    return [m for pool in _pools() for m in pool] + _free_modules() \
        + [i.module for i in module_instances]


def _outcome(fn, facts):
    """fn(facts), or the (what, size, cap) of its cap error."""
    try:
        return fn(facts)
    except SizeCapExceeded as err:
        return err.what, err.size, err.cap


def _disagreements(deciders: dict, module, caps) -> list:
    """The properties whose decider differs from its oracle."""
    facts = Facts(module, caps)
    return [prop for prop, (decide, oracle) in deciders.items()
            if _outcome(decide, facts) != _outcome(oracle, facts)]


def test_the_deciders_match_the_oracles(module_instances):
    assert len(module_instances) == 21
    inputs = _inputs(module_instances)
    assert [(m.name, _disagreements(ORACLES, m, CAPS)) for m in inputs
            if _disagreements(ORACLES, m, CAPS)] == []
    # every property holds on some input and fails on another
    for prop, (decide, _oracle) in ORACLES.items():
        outcomes = [_outcome(decide, Facts(m, CAPS)) for m in inputs]
        assert {v.holds for v in outcomes if isinstance(v, Verdict)} == \
            {True, False}, prop


def test_the_deciders_match_the_oracles_on_z2_free4(fresh_intern):
    module = free_module(zmod(2, BIG), 4, BIG)
    assert end_ring(module, BIG).order == 65536
    assert _disagreements(ORACLES, module, BIG) == []


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------


def _morphic_on_its_own_pair(facts) -> Verdict:
    end = facts.end()
    present = set(_distinct_pairs(end)[0])
    return first_offender(end, lambda im, ker: (im, ker) not in present)


def _summand_lookup(pair):
    """The C2/D2 walk, looking up pair(end, idem, N, D)."""
    def decide(facts) -> Verdict:
        end = facts.end()
        idem = facts.idem_masks()
        present = set(_distinct_pairs(end)[0])
        for mask in facts.lattice():
            if mask in idem:
                continue
            for dmask in sorted(idem):
                if pair(end, idem, mask, dmask) in present:
                    return Verdict(False, (mask, dmask))
        return Verdict(True)
    return decide


MUTANTS = {
    "morphic": _morphic_on_its_own_pair,
    "c2": _summand_lookup(
        lambda end, idem, mask, dmask: (mask, end.images[idem[dmask]])),
    "d2": _summand_lookup(lambda end, idem, mask, dmask: (mask, dmask)),
}


@pytest.mark.parametrize("prop", sorted(MUTANTS))
def test_a_mutant_lookup_is_caught(prop, module_instances):
    mutant = {prop: (MUTANTS[prop], ORACLES[prop][1])}
    assert any(_disagreements(mutant, m, CAPS)
               for m in _inputs(module_instances))
