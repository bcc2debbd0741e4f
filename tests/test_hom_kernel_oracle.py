"""Differential test: `hom_set`, spanned from the kernel of one additive
map, against the block enumerator it replaced, kept here only as an oracle.

The oracle tries every assignment of generator images in lexicographic
order, a block at a time, expands each along a spanning tree of the
relation edges x -> x + g_i b_j and keeps the tables that pass
`homs._relations_hold`.  hom_set must return the oracle's int64 tables cast
to `index_dtype(|N|)`, equal in shape, dtype and bytes: on every ordered
pair of corpus modules over one ring, on free modules over Z/n, and on
z2_free4 under raised caps; `hom_count` must give the oracle's number of
rows.  The mutation tests corrupt one step of the kernel route at a time
and must be caught by the package's own checks; rows that the span gives
out of key order must be put back at their rows by `map_rows`.
"""

import numpy as np
import pytest

from pirick import homs
from pirick.caps import INTERNED, Caps, caps_from_env
from pirick.errors import PirickError, SizeCapExceeded
from pirick.families import zmod
from pirick.groups import index_dtype
from pirick.modules import FiniteModule, free_module

CAPS = caps_from_env()
RAISED = Caps(construct=1 << 20, hom=1 << 20)


def _derivation_plan(module: FiniteModule, gens: list,
                     ends: np.ndarray) -> list:
    """Steps (target, source, e), target = ends[source].flat[e]: a spanning
    tree of the relation edges from zero and the generators, each source
    derived before its use, along which generator images fix a table."""
    queue = [0, *sorted(gens)]             # grows breadth first
    derived = set(queue)
    plan = []
    for src in queue:
        for e, tgt in enumerate(ends[src].ravel().tolist()):
            if tgt not in derived:
                derived.add(tgt)
                plan.append((tgt, src, e))
                queue.append(tgt)
    assert len(derived) == module.order, "generators do not generate"
    return plan


def block_hom_set(domain: FiniteModule, codomain: FiniteModule):
    """The hom set by candidates: every |N|^k assignment of generator
    images, expanded in blocks and filtered by the relation check."""
    gens, basis, ends = edges = homs._relation_edges(domain)
    count = codomain.order ** len(gens)
    plan = _derivation_plan(domain, gens, ends)
    add_c = codomain.add_group.add_table()
    radix = codomain.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    kept = []
    # t holds candidate tables as columns; the zero module has no edges.
    chunk = max(1, (1 << 16) // max(1, ends.size))
    for lo in range(0, count, chunk):
        cand = np.arange(lo, min(count, lo + chunk), dtype=np.int64)
        t = np.zeros((domain.order, cand.size), dtype=np.int64)
        t[gens] = cand // radix[:, None] % codomain.order
        moved = codomain.act_np[t[gens][:, None], np.array(basis)[:, None]] \
            .reshape(-1, cand.size)                    # t(g_i) b_j
        for tgt, src, e in plan:
            t[tgt] = add_c[t[src], moved[e]]
        ok = homs._relations_hold(t, codomain, edges).all(axis=0)
        kept.append(t[:, ok].T)
    return np.concatenate(kept)


def _differs(domain: FiniteModule, codomain: FiniteModule,
             caps: Caps = CAPS) -> bool:
    """Whether hom_set, built afresh, differs from the oracle, cast to the
    type of the codomain's element indices, in shape, dtype or bytes."""
    got = homs.hom_set.__wrapped__(domain, codomain, caps)
    want = block_hom_set(domain, codomain).astype(index_dtype(codomain.order))
    assert not got.flags.writeable
    return (got.shape != want.shape or got.dtype != want.dtype
            or got.tobytes() != want.tobytes())


def _same_ring_pairs(modules):
    for domain in modules:
        for codomain in modules:
            if domain.ring.key == codomain.ring.key:
                yield domain, codomain


def test_hom_set_matches_the_block_oracle_on_corpus_pairs(module_instances):
    modules = [inst.module for inst in module_instances]
    pairs = list(_same_ring_pairs(modules))
    assert len(pairs) > len(modules)
    for domain, codomain in pairs:
        assert not _differs(domain, codomain), (domain.name, codomain.name)


def test_hom_count_is_the_order_of_the_oracle_hom_set(module_instances):
    """`hom_count` reads |Hom(M, N)| off the kernel without building a map;
    under a hom cap it stops where hom_set stops, with the same error."""
    modules = [inst.module for inst in module_instances]
    for domain, codomain in _same_ring_pairs(modules):
        assert homs.hom_count(domain, codomain, CAPS) == \
            len(block_hom_set(domain, codomain)), (domain.name, codomain.name)
    small = Caps(hom=200)
    module = free_module(zmod(3, CAPS), 3, CAPS)
    errors = []
    for find in (homs.hom_count, homs.hom_set):
        with pytest.raises(SizeCapExceeded) as err:
            find(module, module, small)
        errors.append((err.value.what, err.value.size, err.value.cap))
    assert errors == [("hom-set enumeration", 19683, 200)] * 2


@pytest.mark.parametrize("n, rank", [(2, 3), (5, 2), (8, 2), (3, 3)])
def test_hom_set_of_free_modules_matches_the_block_oracle(n, rank):
    module = free_module(zmod(n, CAPS), rank, CAPS, name=f"z{n}_free{rank}")
    assert not _differs(module, module)


def test_hom_set_of_z2_free4_under_raised_caps_matches_the_block_oracle():
    module = free_module(zmod(2, RAISED), 4, RAISED, name="z2_free4")
    assert not _differs(module, module, RAISED)


def _z3_free2_over_z3():
    """Z3^2 and Z3 over Z3, with 81 and 3 endomorphisms; Z3^2 has four
    kernel generators, Z3 one."""
    ring = zmod(3, CAPS)
    return free_module(ring, 2, CAPS), free_module(ring, 1, CAPS)


@pytest.fixture
def z3_pair(fresh_intern):
    return _z3_free2_over_z3()


def test_a_corrupted_kernel_generator_table_is_rejected(monkeypatch, z3_pair):
    real = homs._kernel_basis

    def corrupted(domain, codomain):
        maps, orders, cuts = real(domain, codomain)
        maps = maps.copy()
        maps[0, -1, 0] = (maps[0, -1, 0] + 1) % codomain.add_group.factors[0]
        return maps, orders, cuts

    monkeypatch.setattr(homs, "_kernel_basis", corrupted)
    for domain in z3_pair:
        for codomain in z3_pair:
            with pytest.raises(PirickError, match="relation check"):
                homs.hom_set.__wrapped__(domain, codomain, CAPS)


def test_a_kernel_basis_missing_a_generator_is_rejected(monkeypatch, z3_pair):
    real = homs._kernel_basis

    def short(domain, codomain):
        maps, orders, cuts = real(domain, codomain)
        return maps[:-1], orders[:-1], cuts[:-1]

    monkeypatch.setattr(homs, "_kernel_basis", short)
    domain, codomain = z3_pair
    with pytest.raises(PirickError, match="spans 27 maps, not 81"):
        homs.hom_set.__wrapped__(domain, domain, CAPS)
    with pytest.raises(PirickError, match="spans 1 maps, not 3"):
        homs.hom_set.__wrapped__(codomain, codomain, CAPS)


def test_rows_spanned_out_of_key_order_are_placed(monkeypatch, z3_pair):
    """hom_set puts each spanned map at its row by `map_rows`, so rows
    that `_span` gave in reverse come out as the oracle's."""
    real = homs._span
    monkeypatch.setattr(homs, "_span", lambda *args: real(*args)[::-1])
    domain, codomain = z3_pair
    assert not _differs(domain, codomain)
    assert not _differs(domain, domain)


def test_a_rejected_build_is_not_interned(monkeypatch, z3_pair):
    """Only values are stored: a hom set that fails its own checks is not,
    while the kernel it was spanned from, solved before, stays."""
    domain, _ = z3_pair
    width = len(domain.add_group.factors)
    monkeypatch.setattr(homs, "_kernel_basis",
                        lambda d, c: (np.zeros((0, d.order, width), np.int64),
                                      [], []))
    for _ in range(2):
        with pytest.raises(PirickError, match="spans 1 maps, not 81"):
            homs.hom_set(domain, domain, CAPS)
    built = (homs.hom_set.__wrapped__, homs._kernel.__wrapped__)
    assert [full[0] for full in INTERNED if full[0] in built] \
        == [homs._kernel.__wrapped__]
