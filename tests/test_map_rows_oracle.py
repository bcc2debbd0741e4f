"""Differential test: `homs.map_rows`, a map's row in a hom set by
arithmetic on its generator images, against a lexicographic key search
kept here as the oracle.

The oracle spans Hom(M, N) from the kernel basis, in the order of its
digits, keys each map by its generator images read as a big-endian number
in base |N|, and finds each key's rank among the sorted keys.
`map_rows` must give that rank for every map, and `hom_set` must hold
each map at that row.  The inputs are every ordered pair of corpus
modules over one ring, with each corpus module paired both ways with its
quotients and submodules; every pair of modules in one pool of
`test_iso_oracle.py`; and z2_free4 with itself.  Two mutants must be
caught: one whose first digit divides by its g_t times the modulus, and
one whose sum reads the share table of the first generator only.
"""

import inspect
import textwrap

import numpy as np
import pytest

from pirick import homs
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.modules import free_module, module_generators
from pirick.properties import Facts

from test_iso_oracle import _pools

CAPS = caps_from_env()


def _key_rows(domain, codomain) -> tuple:
    """(maps, images, rows): every map of Hom(M, N), in the order `_span`
    gives them, their generator images, and each one's row by a key
    search."""
    gens = list(module_generators(domain))
    maps, orders, _ = homs._kernel_basis(domain, codomain)
    maps = homs._span(maps, orders, codomain)
    images = maps[:, gens]
    keys = images.astype(np.int64) @ codomain.order ** np.arange(
        len(gens) - 1, -1, -1, dtype=np.int64)
    return maps, images, np.searchsorted(np.sort(keys), keys)


def _disagrees(domain, codomain) -> bool:
    """Whether map_rows, or the placement of hom_set's rows, differs from
    the key search on Hom(domain, codomain)."""
    maps, images, want = _key_rows(domain, codomain)
    got = homs.map_rows(domain, codomain, images)
    placed = homs.hom_set(domain, codomain, CAPS)
    return not (np.array_equal(got, want)
                and np.array_equal(placed[want], maps))


def _corpus_pairs(module_instances) -> list:
    """Every ordered pair, one per pair of structures, among the corpus
    modules over one ring and their quotients and submodules."""
    by_ring = {}
    for inst in module_instances:
        facts = Facts(inst.module, CAPS)
        found = by_ring.setdefault(inst.module.ring.key, [inst.module])
        try:
            lattice = facts.lattice()
        except SizeCapExceeded:
            continue
        found += [facts.quotient(mask)[0] for mask in lattice] \
            + [facts.inner(mask)[0] for mask in lattice]
    return list({(d.key, c.key): (d, c) for found in by_ring.values()
                 for d in found for c in found}.values())


def _pool_pairs() -> list:
    pairs = {(d.key, c.key): (d, c) for pool in _pools()
             for d in pool for c in pool}
    return list(pairs.values())


def _z2_free4():
    return [(free_module(zmod(2, CAPS), 4, CAPS),) * 2]


def test_map_rows_matches_the_key_search_on_corpus_pairs(module_instances):
    pairs = _corpus_pairs(module_instances)
    assert len(pairs) > 1000
    assert [(d.name, c.name) for d, c in pairs if _disagrees(d, c)] == []


def test_map_rows_matches_the_key_search_on_the_pools():
    pairs = _pool_pairs()
    assert len(pairs) > 200
    assert [(d.name, c.name) for d, c in pairs if _disagrees(d, c)] == []


def test_map_rows_matches_the_key_search_on_z2_free4():
    (module, _), = _z2_free4()
    assert len(homs.hom_set(module, module, CAPS)) == 2 ** 16
    assert not _disagrees(module, module)


def test_some_spans_come_out_of_key_order(module_instances):
    """The digits of `_span` are not always in key order, so the
    placement in hom_set is exercised."""
    assert any((_key_rows(d, c)[2] != np.arange(homs.hom_count(d, c, CAPS)))
               .any() for d, c in _corpus_pairs(module_instances))


def _mutate(monkeypatch, fn, old: str, new: str):
    """Replace homs.<fn> by its source with `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(vars(homs))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(homs, fn.__name__, namespace[fn.__name__])


MUTANTS = {
    # the first cut's g_t, m / o_t, multiplied by its modulus m
    "g_t_times_modulus": (homs._row_shares, "(factors[e] // o)",
                          "(factors[e] // o * (factors[e] if s == cuts[0] "
                          "else 1))"),
    "first_generator_only": (homs.map_rows, "_row_shares(domain, codomain)",
                             "_row_shares(domain, codomain)[:1]"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("inputs", ("corpus", "pools", "z2_free4"))
def test_the_mutants_are_caught(mutant, inputs, monkeypatch, fresh_intern,
                                module_instances):
    pairs = {"corpus": lambda: _corpus_pairs(module_instances),
             "pools": _pool_pairs, "z2_free4": _z2_free4}[inputs]()
    _mutate(monkeypatch, *MUTANTS[mutant])
    assert any(_disagrees(d, c) for d, c in pairs)
