"""Differential test: End(M)'s central idempotents and the quasi-projective
decider against the loops they replaced, kept here as oracles.

- `homs.central_idempotent_maps` tests each idempotent e against the basis
  maps of End(M)'s additive group only (composition is additive, so e
  commutes with every map iff it commutes with those), and scans every g
  for the first noncentral e alone.  The oracle compares each idempotent
  with every map.
- `properties.decide_quasi_projective` builds no map: f -> proj * f is an
  additive map End(M) -> Hom(M, M/N) with kernel Hom(M, N), so every map
  lifts iff |End(M)| = |Hom(M, N)| |Hom(M, M/N)|.  One oracle compares
  whole lifted tables, hashed as bytes, with Hom(M, M/N); the other, the
  body the counting replaced, marks the row of each lifted map in
  Hom(M, M/N), found by `homs.map_rows` from its generator images.  All
  three must agree on (holds, first failing N).

They run on every module of the `test_iso_oracle.py` pools, on the 21
corpus modules and on z2_free4, (Z/2)^4 over Z/2 with 65,536 maps, under
construct and hom caps of 2^20.  A basis scan that drops any one basis
map must be caught, and so must a decider that drops the Hom(M, N)
factor or tries only the first N; `test_map_rows_oracle.py` catches a
row sum that reads only the first generator.
"""

import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from pirick import homs, properties
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.homs import (central_idempotent_maps, end_ring, hom_count,
                         hom_set, idempotent_maps, map_rows)
from pirick.modules import free_module
from pirick.properties import Facts, decide_quasi_projective
from pirick.rings import Verdict

from test_iso_oracle import _pools
from test_self_cogenerator_oracle import z4_squared_plus_z2_squared

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
        if len(set(map(bytes, proj[end.tables]))) != len(maps):
            return Verdict(False, mask)
    return Verdict(True)


def oracle_lifted_rows(facts) -> Verdict:
    """Every map M -> M/N lifts, by marking the row of each lifted map."""
    end = facts.end()
    on_gens = end.tables[:, end.gens]
    for mask in facts.lattice():
        quot, proj = facts.quotient(mask)
        lifted = np.zeros(hom_count(facts.module, quot, facts.caps), bool)
        lifted[map_rows(facts.module, quot, proj[on_gens])] = True
        if not lifted.all():
            return Verdict(False, mask)
    return Verdict(True)


# ---------------------------------------------------------------------------
# the inputs and the comparison
# ---------------------------------------------------------------------------


def _pool_modules() -> list:
    return [m for pool in _pools() for m in pool]


def _outcome(fn, arg):
    """(holds, counterexample) of fn(arg), or the (what, size, cap) of its
    cap error."""
    try:
        verdict = fn(arg)
    except SizeCapExceeded as err:
        return err.what, err.size, err.cap
    return verdict.holds, verdict.counterexample


def _quasi_projective_disagrees(module, caps, decide) -> bool:
    """Whether decide, or the row-marking oracle, differs from the
    hashed-table oracle on the module."""
    facts = Facts(module, caps)
    want = _outcome(oracle_quasi_projective, facts)
    return _outcome(decide, facts) != want or \
        _outcome(oracle_lifted_rows, facts) != want


def _disagreements(module, caps) -> list:
    """The names of the two results that differ from their oracles."""
    end = Facts(module, caps).end()
    out = []
    if central_idempotent_maps(end) != oracle_central_idempotent_maps(end):
        out.append("central_idempotent_maps")
    if _quasi_projective_disagrees(module, caps, decide_quasi_projective):
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


@pytest.mark.parametrize("name, want", [("z3_free3", (True, None)),
                                        ("z4z4z2z2", (False, 257))])
def test_quasi_projective_is_decided_with_end_m_over_the_cap(
        name, want, tmp_path, monkeypatch, misses, fresh_intern):
    """z3_free3 has 27^3 = 19,683 endomorphisms and Z4^2 + Z2^2 over Z/4
    has 2^20, both over the default construct cap: the decider counts
    and asks for neither a hom set nor End(M).  Z4^2 + Z2^2 is not
    quasi-projective: a map onto M/N, N = {0, 8}, does not lift."""
    module = free_module(zmod(3, CAPS), 3, CAPS) if name == "z3_free3" \
        else z4_squared_plus_z2_squared(tmp_path)

    def refused(*args):
        raise AssertionError("a hom set or End(M) was asked for")

    monkeypatch.setattr(homs, "hom_set", refused)
    monkeypatch.setattr(properties, "end_ring", refused)
    assert hom_count(module, module, CAPS) > CAPS.construct
    assert _outcome(decide_quasi_projective, Facts(module, CAPS)) == want
    assert misses.of(homs.end_ring) == []


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


def _mutant(old: str, new: str):
    """decide_quasi_projective with `old` in its source replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(decide_quasi_projective))
    assert source.count(old) == 1
    namespace = dict(vars(properties))
    exec(source.replace(old, new), namespace)
    return namespace["decide_quasi_projective"]


QUASI_PROJECTIVE_MUTANTS = {
    # |End(M)| = |Hom(M, M/N)|, as if Hom(M, N) were 0
    "no_hom_to_n": ("hom_count(facts.module, facts.inner(mask)[0], "
                    "facts.caps)", "1"),
    "first_mask_only": ("for mask in facts.lattice():",
                        "for mask in facts.lattice()[:1]:"),
}


@pytest.mark.parametrize("mutant", sorted(QUASI_PROJECTIVE_MUTANTS))
def test_a_mutant_quasi_projective_decider_is_caught(mutant,
                                                     module_instances):
    decide = _mutant(*QUASI_PROJECTIVE_MUTANTS[mutant])
    modules = _pool_modules() + [i.module for i in module_instances]
    assert any(_quasi_projective_disagrees(m, CAPS, decide) for m in modules)
