"""Differential test: `hom_set`'s relation filter against the all-pairs
filter it replaced, kept here only as an oracle.

The oracle expands every candidate along its own derivation plan, over all
|R| ring elements, and keeps a table iff it sends 0 to 0, is additive on all
|M|^2 pairs and is linear on all |M| * |R| pairs.  Hypothesis draws pairs of
modules from the pools of `test_iso_oracle.py` (the submodules and quotients
of the regular and rank-2 free modules over Z/n, n <= 6, and of the regular
t2z2 module and ex23, whose ring has three additive basis elements), orders
1 included; hom_set must return the oracle's int64 tables cast to
`index_dtype(|N|)`, equal in shape, dtype and bytes.  A fixed sweep runs
every pair of the t2z2 pool, where a check of one ring basis element keeps
too much.  Hand cases are tables that a weakened filter would keep.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick.caps import caps_from_env
from pirick.errors import NotAHomomorphism
from pirick.families import ex23_ring, zmod
from pirick.groups import index_dtype
from pirick.homs import check_map, hom_set
from pirick.modules import (FiniteModule, all_submodules, cyclic_submodules,
                            free_module, module_generators, quotient_module,
                            ring_as_module)

from test_iso_oracle import _pools

CAPS = caps_from_env()


def _oracle_plan(module: FiniteModule, gens: list) -> list:
    """Steps (target, source, gen_pos, r): target = source + gens[gen_pos] r,
    over every ring element r."""
    add = module.add_group.add_table()
    act = module.act_np
    derived = {0, *gens}
    plan = []
    frontier = sorted(derived)
    while len(derived) < module.order:
        new = []
        for src in frontier:
            for pos, g in enumerate(gens):
                for r in range(module.ring.order):
                    tgt = int(add[src, act[g, r]])
                    if tgt not in derived:
                        derived.add(tgt)
                        plan.append((tgt, src, pos, r))
                        new.append(tgt)
        assert new, "generators do not generate the module"
        frontier = new
    return plan


def oracle_hom_set(domain: FiniteModule, codomain: FiniteModule):
    gens = list(module_generators(domain))
    count = codomain.order ** len(gens)
    plan = _oracle_plan(domain, gens)
    add_c = codomain.add_group.add_table()
    act_c = codomain.act_np
    add_d = domain.add_group.add_table()
    act_d = domain.act_np
    n_d = domain.order
    radix = codomain.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    kept = []
    chunk = max(1, (1 << 18) // (n_d * max(n_d, domain.ring.order)))
    for lo in range(0, count, chunk):
        cand = np.arange(lo, min(count, lo + chunk), dtype=np.int64)
        images = cand[:, None] // radix % codomain.order
        t = np.zeros((cand.size, n_d), dtype=np.int64)
        t[:, gens] = images
        for tgt, src, pos, r in plan:
            t[:, tgt] = add_c[t[:, src], act_c[images[:, pos], r]]
        ok = t[:, 0] == 0
        ok &= (t[:, add_d] == add_c[t[:, :, None], t[:, None, :]]) \
            .all(axis=(1, 2))
        ok &= (t[:, act_d] == act_c[t, :]).all(axis=(1, 2))
        kept.append(t[ok])
    return np.concatenate(kept)


def _assert_same(domain: FiniteModule, codomain: FiniteModule):
    got = hom_set(domain, codomain, CAPS)
    want = oracle_hom_set(domain, codomain).astype(
        index_dtype(codomain.order))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


@st.composite
def pairs(draw):
    """A base ring's pool, then two of its modules."""
    pool = draw(st.sampled_from(_pools()))
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pairs())
def test_hom_set_matches_the_all_pairs_oracle(pair):
    _assert_same(*pair)


def test_hom_set_matches_the_oracle_on_every_t2z2_pool_pair():
    """All 784 ordered pairs of the t2z2 and ex23 pool.  The ring has three
    additive basis elements, and 40 of these pairs, t2z2_reg/2 -> t2z2_reg/1
    among them, have tables that respect the first one only."""
    pool = _pools()[-1]
    for domain in pool:
        for codomain in pool:
            _assert_same(domain, codomain)


@pytest.mark.parametrize("n, rank", [(2, 3), (5, 2), (8, 2), (3, 3), (6, 2)])
def test_hom_set_of_free_modules_matches_the_oracle(n, rank):
    module = free_module(zmod(n, CAPS), rank, CAPS, name=f"z{n}_free{rank}")
    _assert_same(module, module)


def _halves():
    """Z2 = Z4/2Z4 and Z4, regular, over Z4."""
    z4 = ring_as_module(zmod(4, CAPS), CAPS)
    doubled = next(s for s in all_submodules(z4, CAPS) if s.bit_count() == 2)
    return quotient_module(z4, doubled, CAPS)[0], z4


def test_a_map_that_breaks_one_plus_one_is_zero_is_rejected():
    z2, z4 = _halves()
    assert hom_set(z2, z4, CAPS).tolist() == [[0, 0], [0, 2]]
    with pytest.raises(NotAHomomorphism) as err:
        check_map(z2, z4, (0, 1))                     # 1 + 1 = 0, not 2
    assert (err.value.law, err.value.witness) == ("relation", (1, 1, 1))


def test_the_relations_of_every_generator_are_checked():
    """Z4 + Z2 over Z4, as Z4^2 / <(0, 2)>, is generated by g0 = (1, 0) and
    g1 = (1, 1), with 2 g0 = 2 g1: a map to Z4 sends them to elements of
    one parity."""
    free = free_module(zmod(4, CAPS), 2, CAPS)
    killed = cyclic_submodules(free)[free.add_group.index_of((0, 2))]
    domain = quotient_module(free, killed, CAPS)[0]
    gens = module_generators(domain)
    assert [domain.add_group.tuple_of(g) for g in gens] == [(1, 0), (1, 1)]
    maps = hom_set(domain, ring_as_module(zmod(4, CAPS), CAPS), CAPS)
    assert maps[:, gens].tolist() == [[0, 0], [0, 2], [1, 1], [1, 3],
                                      [2, 0], [2, 2], [3, 1], [3, 3]]


def test_an_additive_table_that_is_not_linear_is_rejected():
    """Over t2z2 (upper triangular 2x2 over Z2, additively Z2^3), a table
    that is additive and respects the first basis element of the ring, but
    not the second."""
    module = ring_as_module(ex23_ring(CAPS), CAPS)
    table = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    add = module.add_group.add_table()
    assert (table[add] == add[table[:, None], table[None, :]]).all()
    assert table.tolist() not in hom_set(module, module, CAPS).tolist()
    with pytest.raises(NotAHomomorphism) as err:
        check_map(module, module, table)
    assert (err.value.law, err.value.witness) == ("relation", (0, 5, 2))


def test_a_table_that_moves_zero_is_rejected_at_zero():
    _, z4 = _halves()
    with pytest.raises(NotAHomomorphism) as err:
        check_map(z4, z4, (1, 1, 1, 1))
    assert (err.value.law, err.value.witness) == ("zero", (0,))


def test_the_zero_module_has_one_zero_map_each_way():
    _, z4 = _halves()
    zero = quotient_module(z4, 0b1111, CAPS)[0]
    assert zero.order == 1 and module_generators(zero) == ()
    into = hom_set(zero, z4, CAPS)
    out_of = hom_set(z4, zero, CAPS)
    assert into.tolist() == [[0]] and out_of.tolist() == [[0, 0, 0, 0]]
    assert into.dtype == out_of.dtype == np.uint8
