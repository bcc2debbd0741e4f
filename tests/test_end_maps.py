"""End(M) in two layers: the maps, which every decider reads, and the ring
table, built only when a ring check asks for it.

The idempotent scans of the map layer (`homs.idempotent_maps`,
`central_idempotent_maps`, `nontrivial_idempotent_maps`) compare maps on
the generators of M; Hypothesis checks them against the ring-side scans of
`rings` on End(M)'s ring table, over the module pools of
`test_iso_oracle.py`, the corpus modules and the submodules and quotients
of t3z2_reg.  A central scan that compares only the first generator column
must fail that comparison: a submodule of t3z2_reg, with a noncentral
idempotent that commutes with every map on the first generator, tells it
apart.  `catalog` and `module check` build no ring table.
"""

import functools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import homs
from pirick.caps import caps_from_env
from pirick.cli import main
from pirick.errors import PirickError
from pirick.families import zmod
from pirick.homs import (central_idempotent_maps, end_ring, end_table,
                         idempotent_maps, nontrivial_idempotent_maps)
from pirick.io import load_dir
from pirick.modules import free_module
from pirick.rings import (central_idempotent_scan, nontrivial_idempotents,
                          ring_idempotents)

from test_iso_oracle import _derived, _pools

CAPS = caps_from_env()
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@functools.lru_cache(maxsize=None)
def _modules() -> tuple:
    """The pools of test_iso_oracle, the corpus modules and the derived
    modules of t3z2_reg, one module per structure."""
    corpus = {inst.name: inst.module for inst in load_dir(CORPUS, CAPS)
              if inst.kind == "module"}
    found = {}
    for module in ([m for pool in _pools() for m in pool]
                   + list(corpus.values()) + _derived(corpus["t3z2_reg"])):
        found.setdefault(module.key, module)
    return tuple(found.values())


def _mutant_central_scan(end) -> tuple:
    """central_idempotent_maps comparing e*g with g*e on the first
    generator of M only."""
    tables, first = end.tables, end.gens[:1]
    central, noncentral = [], None
    for e in idempotent_maps(end).tolist():
        bad = (tables[e][tables[:, first]] != tables[:, tables[e, first]]) \
            .any(axis=1)
        if not bad.any():
            central.append(e)
        elif noncentral is None:
            noncentral = (e, int(np.argmax(bad)))
    return tuple(central), noncentral


def _scans_match(end, central_scan=central_idempotent_maps) -> bool:
    ring = end_table(end)
    return (np.array_equal(idempotent_maps(end), ring_idempotents(ring))
            and central_scan(end) == central_idempotent_scan(ring)
            and list(nontrivial_idempotent_maps(end))
            == nontrivial_idempotents(ring)
            and (end.order, end.one) == (ring.order, ring.one))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_modules()))
def test_map_scans_match_the_ring_scans(module):
    assert _scans_match(end_ring(module, CAPS))


def test_a_central_scan_on_the_first_generator_is_caught():
    ends = [end_ring(m, CAPS) for m in _modules()]
    assert all(_scans_match(end) for end in ends)
    assert not all(_scans_match(end, _mutant_central_scan) for end in ends)


def test_catalog_and_module_check_build_no_ring_table(monkeypatch, tmp_path,
                                                      capsys, fresh_intern):
    def unreachable(end):
        raise AssertionError("an End(M) ring table was built")

    monkeypatch.setattr(homs, "_build_end_table", unreachable)
    assert main(["catalog", str(CORPUS), "--out",
                 str(tmp_path / "catalog.csv")]) == 0
    mods = sorted(CORPUS.glob("*.mod"))
    assert len(mods) == 21
    for path in mods:
        for fmt in ("text", "machine"):
            assert main(["module", "check", str(path), "--witnesses",
                         "--format", fmt]) == 0
    capsys.readouterr()


def test_the_ring_table_is_built_once_on_request(monkeypatch, fresh_intern):
    module = free_module(zmod(2), 2, CAPS, name="z2_free2")
    built = []
    real = homs._build_end_table

    def counted(end):
        built.append(end.key)
        return real(end)

    monkeypatch.setattr(homs, "_build_end_table", counted)
    end = end_ring(module, CAPS)
    assert built == []
    ring = end_table(end)
    assert end_table(end) is ring and end.ring is ring
    assert built == [end.key]
    assert ring.order == end.order == 16


def test_the_self_check_covers_every_block(monkeypatch, fresh_intern):
    """End(Z4^2) has 256 maps on 2 generators, so its self-check compares
    rows in more than one block.  Two products are corrupted, one in a late
    block and one in the last row; the first in row-major order is named."""
    module = free_module(zmod(4), 2, CAPS, name="z4_free2")
    end = end_ring(module, CAPS)
    assert end.order == 256 and len(end.gens) == 2
    real = homs.ring_make

    def corrupted(*args, **kwargs):
        ring = real(*args, **kwargs)
        ring.mul_np = ring.mul_np.copy()
        for i, j in ((255, 255), (200, 7)):
            ring.mul_np[i, j] = (int(ring.mul_np[i, j]) + 1) % ring.order
        return ring

    monkeypatch.setattr(homs, "ring_make", corrupted)
    with pytest.raises(PirickError, match=r"composition at \(200, 7\)"):
        end_table(end)
