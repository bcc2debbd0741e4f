"""Differential test: End(M)'s central idempotents and the quasi-projective
decider against the loops they replaced, kept here unchanged as oracles.

- `homs.central_idempotent_maps` tests each idempotent e against the basis
  maps of End(M)'s additive group only (composition is additive, so e
  commutes with every map iff it commutes with those), and scans every g
  for the first noncentral e alone.  The oracle compares each idempotent
  with every map.
- `properties.decide_quasi_projective` keys each lifted map proj * f, and
  each map of Hom(M, M/N), by its generator images.  The oracle compares
  whole lifted tables, hashed as bytes.

Both run on every module of the `test_iso_oracle.py` pools, on the 21
corpus modules and on z2_free4, (Z/2)^4 over Z/2 with 65,536 maps, under
construct and hom caps of 2^20.  A basis scan that drops any one basis
map, and a key that reads only the first generator, must be caught.
"""

import dataclasses

import numpy as np

from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.homs import (central_idempotent_maps, end_ring, hom_set,
                         idempotent_maps)
from pirick.modules import free_module
from pirick.properties import Facts, decide_quasi_projective
from pirick.rings import Verdict

from test_iso_oracle import _pools

CAPS = caps_from_env()
BIG = dataclasses.replace(CAPS, construct=1 << 20, hom=1 << 20)


# ---------------------------------------------------------------------------
# the oracles: the loops as they were
# ---------------------------------------------------------------------------


def oracle_central_idempotent_maps(end) -> tuple:
    """(central, noncentral), each idempotent compared with every map."""
    tables = end.tables
    on_gens = tables[:, end.gens]
    central, noncentral = [], None
    for e in idempotent_maps(end).tolist():
        bad = (tables[e][on_gens] != tables[:, tables[e, end.gens]]) \
            .any(axis=1)
        if not bad.any():
            central.append(e)
        elif noncentral is None:
            noncentral = (e, int(np.argmax(bad)))
    return tuple(central), noncentral


def oracle_quasi_projective(facts) -> Verdict:
    """Every map M -> M/N lifts, by counting distinct lifted tables."""
    end = facts.end()
    for mask in facts.lattice():
        quot, proj = facts.quotient(mask)
        maps = hom_set(facts.module, quot, facts.caps)
        lifted = proj[end.tables]
        if len(set(map(bytes, lifted))) != len(maps):
            lifted = set(map(tuple, lifted.tolist()))
            h = next(h for h in map(tuple, maps.tolist()) if h not in lifted)
            return Verdict(False, (mask, h))
    return Verdict(True)


# ---------------------------------------------------------------------------
# the inputs and the comparison
# ---------------------------------------------------------------------------


def _pool_modules() -> list:
    return [m for pool in _pools() for m in pool]


def _outcome(fn, arg):
    """fn(arg), or the (what, size, cap) of its cap error."""
    try:
        return fn(arg)
    except SizeCapExceeded as err:
        return err.what, err.size, err.cap


def _disagreements(module, caps) -> list:
    """The names of the two results that differ from their oracles."""
    facts = Facts(module, caps)
    end = facts.end()
    out = []
    if central_idempotent_maps(end) != oracle_central_idempotent_maps(end):
        out.append("central_idempotent_maps")
    if _outcome(decide_quasi_projective, facts) != \
            _outcome(oracle_quasi_projective, facts):
        out.append("quasi_projective")
    return out


def test_both_match_the_oracles_on_the_pools():
    modules = _pool_modules()
    assert [m.name for m in modules if _disagreements(m, CAPS)] == []
    # the pools hold modules that are not quasi-projective too
    assert {decide_quasi_projective(Facts(m, CAPS)).holds
            for m in modules} == {True, False}


def test_both_match_the_oracles_on_the_corpus(module_instances):
    assert len(module_instances) == 21
    assert [i.name for i in module_instances
            if _disagreements(i.module, CAPS)] == []


def test_both_match_the_oracles_on_z2_free4(fresh_intern):
    module = free_module(zmod(2, BIG), 4, BIG)
    assert end_ring(module, BIG).order == 65536
    assert _disagreements(module, BIG) == []


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------


class _BasisWithout:
    """end.group with basis map `dropped` left out of its basis."""

    def __init__(self, group, dropped: int):
        self.factors = group.factors[:dropped] + group.factors[dropped + 1:]
        self._index = group.basis_index
        self._dropped = dropped

    def basis_index(self, j: int) -> int:
        return self._index(j + (j >= self._dropped))


def test_a_basis_scan_that_drops_a_basis_map_is_caught(module_instances):
    """Leaving out basis map j of End(M) is caught, on the modules over
    the triangular rings, for j = 0, 1 and 2.  In M2(R) any three of the
    four matrix units generate the ring, and no module here has an
    idempotent that commutes with every basis map but the fourth."""
    scan = central_idempotent_maps.__wrapped__
    caught = set()
    for module in _pool_modules() + [i.module for i in module_instances]:
        end = end_ring(module, CAPS)
        oracle = oracle_central_idempotent_maps(end)
        assert scan(end) == oracle
        caught.update(
            j for j in range(len(end.group.factors))
            if scan(dataclasses.replace(
                end, group=_BasisWithout(end.group, j))) != oracle)
    assert caught == {0, 1, 2}


class _FirstGeneratorFacts(Facts):
    """Facts whose End(M) reads maps on the first generator only."""

    def end(self):
        end = super().end()
        return dataclasses.replace(end, gens=end.gens[:1])


def test_a_key_that_reads_only_the_first_generator_is_caught():
    module = free_module(zmod(2, CAPS), 2, CAPS)
    assert decide_quasi_projective(Facts(module, CAPS)).holds
    assert not decide_quasi_projective(
        _FirstGeneratorFacts(module, CAPS)).holds

