"""The `interned` memo: keys by function, structure, arguments and caps;
a cap failure is stored, no other error is.  A hit costs one lookup and
one stored hash of the caps."""

import collections
import dataclasses
import pathlib
import types

import pytest

from pirick.caps import (DEFAULT_CAPS, INTERNED, Caps, InternTable,
                         caps_from_env, interned)
from pirick.cli import main
from pirick.errors import PirickError, SizeCapExceeded
from pirick.families import zmod
from pirick.homs import end_ring
from pirick.io import load_dir
from pirick.modules import ring_as_module
from pirick.theorems import InstanceContext, verify

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pirick"
CORPUS = SRC.parent.parent / "corpus"


def _z4_reg():
    return ring_as_module(zmod(4, DEFAULT_CAPS), DEFAULT_CAPS)


def test_default_caps_and_explicit_default_caps_share_an_entry():
    module = _z4_reg()
    assert end_ring(module) is end_ring(module, DEFAULT_CAPS)


def test_each_caps_value_gets_its_own_entry():
    module = _z4_reg()
    looser = dataclasses.replace(DEFAULT_CAPS, hom=DEFAULT_CAPS.hom + 1)
    default = end_ring(module, DEFAULT_CAPS)
    other = end_ring(module, looser)
    assert other is not default
    assert (other.tables == default.tables).all()
    assert end_ring(module, looser) is other


def test_an_exception_is_not_stored(fresh_intern):
    calls = []

    @interned
    def flaky(obj, caps=DEFAULT_CAPS):
        calls.append(caps)
        if len(calls) == 1:
            raise PirickError("first call fails")
        if caps.lattice == 2:
            raise SizeCapExceeded("submodule lattice", 4, 2)
        return "built"

    obj = types.SimpleNamespace(key="structure")
    with pytest.raises(PirickError, match="first call fails"):
        flaky(obj)
    assert flaky(obj) == "built"
    # a cap failure is stored and raised again without running the body
    for _ in range(2):
        with pytest.raises(SizeCapExceeded, match="size 4 exceeds cap 2"):
            flaky(obj, Caps(lattice=2))
    assert calls == [DEFAULT_CAPS, DEFAULT_CAPS, Caps(lattice=2)]


def test_functions_sharing_a_name_do_not_collide(fresh_intern):
    def twin(obj):
        return "first"
    first = interned(twin)

    def twin(obj):                                    # noqa: F811
        return "second"
    second = interned(twin)

    obj = types.SimpleNamespace(key="structure")
    assert (first(obj), second(obj)) == ("first", "second")
    assert len(fresh_intern) == 2


def test_the_wrapper_keeps_the_function_name():
    assert end_ring.__name__ == "end_ring"
    assert end_ring.__module__ == "pirick.homs"


def test_interned_is_the_only_memoization_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = [(path.name, word) for path in files
             for word in ("_memo", "functools.cache", "lru_cache")
             if word in path.read_text(encoding="utf-8")]
    assert found == []


def test_no_check_is_sampled_in_the_package():
    """Every table law is checked exactly: no random number generator."""
    found = [(path.name, word) for path in sorted(SRC.glob("*.py"))
             for word in ("default_rng", "np.random", "import random")
             if word in path.read_text(encoding="utf-8")]
    assert found == []


def test_caps_hash_is_stored_once_and_hidden():
    caps = Caps(lattice=8)
    assert hash(caps) == hash(Caps(lattice=8)) == caps._hash
    assert repr(caps) == ("Caps(construct=4096, lattice=8, hom=16777216, "
                          "matrix_check=256)")
    wider = dataclasses.replace(caps, lattice=64)
    assert wider == Caps() and hash(wider) == hash(Caps())
    assert [f.name for f in dataclasses.fields(Caps) if f.compare] == [
        "construct", "lattice", "hom", "matrix_check"]
    with pytest.raises(PirickError, match="unknown cap '_hash'"):
        caps_from_env({"PIRICK_CAPS": "_hash=1"})


def test_a_key_error_while_building_is_no_miss():
    table = InternTable()

    def broken():
        raise KeyError("inside the build")

    with pytest.raises(KeyError, match="inside the build"):
        table.get_or_build("kind", "structure", None, broken)
    assert not table
    assert table.get_or_build("kind", "structure", None, lambda: 1) == 1
    assert table.get_or_build("kind", "structure", None, broken) == 1


def _two_lookup_get_or_build(self, kind, key, caps, build):
    """InternTable.get_or_build as it was, with a membership test before
    the lookup: the oracle for hits, misses and cap-failure replays."""
    full = (kind, key, caps)
    if full not in self:
        try:
            self[full] = build()
        except SizeCapExceeded as err:
            self[full] = SizeCapExceeded(err.what, err.size, err.cap)
    value = self[full]
    if isinstance(value, SizeCapExceeded):
        raise SizeCapExceeded(value.what, value.size, value.cap)
    return value


def _tally(monkeypatch, get_or_build) -> collections.Counter:
    """Count the calls, builds and raised cap failures of get_or_build."""
    counts = collections.Counter()

    def counted(self, kind, key, caps, build):
        counts["calls"] += 1

        def counted_build():
            counts["builds"] += 1
            return build()
        try:
            return get_or_build(self, kind, key, caps, counted_build)
        except SizeCapExceeded:
            counts["cap_raises"] += 1
            raise

    monkeypatch.setattr(InternTable, "get_or_build", counted)
    return counts


@pytest.mark.parametrize("env", ["", "lattice=8,hom=200"])
def test_hits_misses_and_cap_replays_match_the_two_lookup_table(
        monkeypatch, capsys, fresh_intern, env):
    monkeypatch.setenv("PIRICK_CAPS", env)
    runs = []
    for get_or_build in (_two_lookup_get_or_build,
                         InternTable.get_or_build):
        INTERNED.clear()
        counts = _tally(monkeypatch, get_or_build)
        assert main(["verify", str(CORPUS)]) == 0
        # each build stores one entry, a cap failure included
        assert counts["builds"] == len(INTERNED)
        runs.append((counts, capsys.readouterr().out))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    assert counts["calls"] > counts["builds"] > counts["cap_raises"] > 0


@pytest.mark.parametrize("tid, lookup", [
    ("L3.1", "principal_annihilators"),
    ("L3.1", "power_table"),
    ("C3.3", "principal_annihilators"),
    ("C3.3", "power_table"),
    ("T3.19c.1", "idempotent_image_masks"),
])
def test_a_witness_walk_looks_up_once_per_entry(monkeypatch, tid, lookup):
    """z4_free2 has 256 dual pi-Rickart witnesses; a second evaluation of
    the entry, its verdicts served from the table, looks its lookup up
    once.  The walks read f^n from End(M).powers, so they look up no ring
    `power_table` at all."""
    inst = next(i for i in load_dir(CORPUS, DEFAULT_CAPS)
                if i.name == "z4_free2")
    ctx = InstanceContext(inst.name, inst.kind, inst.ring, inst.module,
                          DEFAULT_CAPS)
    assert [v.status for v in verify(tid, ctx)] == ["holds"]
    kinds = collections.Counter()
    real = InternTable.get_or_build

    def counted(self, kind, key, caps, build):
        kinds[getattr(kind, "__name__", kind)] += 1
        return real(self, kind, key, caps, build)

    monkeypatch.setattr(InternTable, "get_or_build", counted)
    assert [v.status for v in verify(tid, ctx)] == ["holds"]
    assert kinds[lookup] == (0 if lookup == "power_table" else 1)
