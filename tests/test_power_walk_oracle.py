"""Differential test: the registry entries T3.4.1 and T3.19.2, which walk
the powers f^n of every f in End(M) over `rings.power_table`, against their
bodies as they were before the table, kept here word for word as oracles.

The oracles walk each power trail one term at a time and pack each left
annihilator from its column, with the copies of that walk and key in
`test_registry_shapes_oracle.py`.  Each entry must agree with its oracle in
status and witness on every corpus module, at the default caps and at
matrix_check=1296, and with Hypothesis on the module pools of
`test_iso_oracle.py`.  Two mutants, each a copy of `pirick.theorems` with
one line changed, must fail: T3.4.1 with the left annihilator of f^n taken
on the wrong side, and T3.19.2 reading only the first power of each f.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from pirick import theorems
from pirick.caps import caps_from_env
from pirick.homs import (_double_annihilator_closed, end_table,
                         right_annihilator)
from pirick.rings import principal_left_ideal_keys, ring_check
from pirick.theorems import (HOLDS, NOT_MET, VIOLATION, _conclude,
                             _one_minus)

from test_end_powers_oracle import chain_term, oracle_chains
from test_iso_oracle import _pools
from test_registry_shapes_oracle import (_module_ctx, _mutant,
                                         disagreements, left_annihilator_key,
                                         power_trail)

CAPS = caps_from_env()
WIDE = dataclasses.replace(CAPS, matrix_check=1296)


# ---------------------------------------------------------------------------
# the oracles: the entry checks as they were before the power table
# ---------------------------------------------------------------------------


def _chk_t3_4_1(ctx):
    facts = ctx.facts()
    end = facts.end()
    ring = end_table(end)
    principal = principal_left_ideal_keys(ring)
    chains = oracle_chains(end)
    checked = 0
    for f, imgs in enumerate(chains.images):
        # n runs up to len(imgs), which is at most len(trail)
        trail = power_trail(ring, f)
        for n, fn in enumerate(trail[:len(imgs)], start=1):
            hits = principal.get(left_annihilator_key(ring, fn), ())
            if not hits:
                continue
            inter = right_annihilator(
                end, np.flatnonzero(ring.mul_np[:, fn] == 0))
            for e in hits:
                comp = _one_minus(ring.add_group, ring.one, e)
                if inter != chains.images[comp][0]:
                    return VIOLATION, f"f={f},n={n},e={e}"
                checked += 1
    if checked == 0:
        return NOT_MET, "no principal annihilator"
    return HOLDS, f"triples={checked}"


def _chk_t3_19_2(ctx):
    facts = ctx.facts()
    end = facts.end()
    ring = end_table(end)
    if not ring_check(ring, "gen_left_pp").holds:
        return NOT_MET, "gen_left_pp false"
    principal = principal_left_ideal_keys(ring)
    for f, imgs in enumerate(oracle_chains(end).images):
        trail = power_trail(ring, f)
        if not any(left_annihilator_key(ring, fn) in principal
                   and _double_annihilator_closed(end, chain_term(imgs, n))
                   for n, fn in enumerate(trail[:len(imgs)], start=1)):
            return NOT_MET, f"f={f}"
    return _conclude(ctx, ("dual_pi_rickart",))


ENTRIES = {"T3.4.1": _chk_t3_4_1, "T3.19.2": _chk_t3_19_2}


def _contexts(module_instances, registry=theorems) -> list:
    """An instance context of every corpus module at both caps."""
    return [registry.InstanceContext(inst.name, "module", inst.module.ring,
                                     inst.module, caps)
            for caps in (CAPS, WIDE) for inst in module_instances]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_entries_match_the_oracles_on_the_corpus(module_instances):
    for ctx in _contexts(module_instances):
        assert disagreements(theorems, ctx, ENTRIES) == [], ctx.name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_entries_match_the_oracles_on_the_pools(data):
    module = data.draw(st.sampled_from(data.draw(st.sampled_from(_pools()))))
    assert disagreements(theorems, _module_ctx(module), ENTRIES) == []


def test_an_annihilator_on_the_wrong_side_is_caught(monkeypatch,
                                                    module_instances):
    # l_S(f^n) read from row f^n of the table, {g : f^n * g == 0}
    mutant = _mutant(monkeypatch, "ring.mul_np[:, x] == 0",
                     "ring.mul_np[x] == 0")
    caught = set()
    for ctx in _contexts(module_instances, mutant):
        caught |= set(disagreements(mutant, ctx, ENTRIES))
    assert caught == {"T3.4.1"}


def test_a_walk_that_reads_the_first_power_only_is_caught(monkeypatch,
                                                          module_instances):
    mutant = _mutant(
        monkeypatch,
        "if not any(closed[x] for x in row):",
        "if not any(closed[x] for x in row[:1]):")
    caught = set()
    for ctx in _contexts(module_instances, mutant):
        caught |= set(disagreements(mutant, ctx, ENTRIES))
    assert caught == {"T3.19.2"}
