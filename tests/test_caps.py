"""The `interned` memo: keys by function, structure, arguments and caps;
only values are stored, so an error, a cap failure among them, is raised
again by every call.  A hit is one lookup, a subscript of the table, in
the wrapper's own frame: the tests below count lookups through
`InternTable.__getitem__`."""

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
    """Only values are stored: an error, a cap failure among them, is
    raised from the body on every call, by the gate at its top."""
    calls = []

    @interned
    def flaky(obj, caps=DEFAULT_CAPS):
        calls.append(caps)
        if len(calls) == 1:
            raise PirickError("first call fails")
        caps.gate("lattice", "submodule lattice", 4)
        return "built"

    obj = types.SimpleNamespace(key="structure")
    with pytest.raises(PirickError, match="first call fails"):
        flaky(obj)
    assert flaky(obj) == "built"
    for _ in range(2):
        with pytest.raises(SizeCapExceeded,
                           match="^submodule lattice: size 4 exceeds cap 2$"):
            flaky(obj, Caps(lattice=2))
    assert calls == [DEFAULT_CAPS, DEFAULT_CAPS, Caps(lattice=2),
                     Caps(lattice=2)]
    assert list(fresh_intern.values()) == ["built"]


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
    """No other cache, and no way into the one table but `interned`."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = [(path.name, word) for path in files
             for word in ("_memo", "functools.cache", "lru_cache",
                          "get_or_build", "INTERNED")
             if word in path.read_text(encoding="utf-8")
             and not (word == "INTERNED" and path.name == "caps.py")]
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


def test_a_key_error_inside_an_interned_function_is_no_miss(fresh_intern):
    calls = []

    @interned
    def broken(obj):
        calls.append(obj)
        raise KeyError("inside the function")

    obj = types.SimpleNamespace(key="structure")
    for _ in range(2):
        with pytest.raises(KeyError, match="inside the function"):
            broken(obj)
    assert len(calls) == 2 and not fresh_intern


def _two_lookup_getitem(self, full):
    """The table's subscript with a membership test before the lookup: the
    oracle for hits, misses and failed builds raised again."""
    if not dict.__contains__(self, full):
        raise KeyError(full)
    return dict.__getitem__(self, full)


_GATE = Caps.gate


def _tally(monkeypatch, getitem) -> collections.Counter:
    """Count the lookups, misses and stores of the table, with getitem as
    its subscript, and the cap failures that `Caps.gate` raises."""
    counts = collections.Counter()

    def counted_getitem(self, full):
        counts["lookups"] += 1
        try:
            return getitem(self, full)
        except KeyError:
            counts["misses"] += 1
            raise

    def counted_setitem(self, full, value):
        counts["stores"] += 1
        dict.__setitem__(self, full, value)

    def counted_gate(caps, field, what, size):
        try:
            _GATE(caps, field, what, size)
        except SizeCapExceeded:
            counts["cap_raises"] += 1
            raise

    monkeypatch.setattr(InternTable, "__getitem__", counted_getitem)
    monkeypatch.setattr(InternTable, "__setitem__", counted_setitem)
    monkeypatch.setattr(Caps, "gate", counted_gate)
    return counts


def test_a_hit_is_one_lookup(monkeypatch, fresh_intern):
    @interned
    def built(obj, caps=DEFAULT_CAPS):
        return [obj.key, caps]

    counts = _tally(monkeypatch, dict.__getitem__)
    obj = types.SimpleNamespace(key="structure")
    values = [built(obj), built(obj, DEFAULT_CAPS), built(obj)]
    assert values[0] is values[1] is values[2]
    assert counts == {"lookups": 3, "misses": 1, "stores": 1}


@pytest.mark.parametrize("env", ["", "lattice=8,hom=200"])
def test_hits_misses_and_cap_replays_match_the_two_lookup_table(
        monkeypatch, capsys, fresh_intern, env):
    monkeypatch.setenv("PIRICK_CAPS", env)
    runs = []
    for getitem in (_two_lookup_getitem, dict.__getitem__):
        INTERNED.clear()
        counts = _tally(monkeypatch, getitem)
        assert main(["verify", str(CORPUS)]) == 0
        # every miss builds, each build that is not refused stores one
        # entry, and a refused build stores nothing: its failure is
        # raised again by the next call
        assert counts["stores"] == len(INTERNED)
        assert not any(isinstance(value, BaseException)
                       for value in INTERNED.values())
        runs.append((counts, capsys.readouterr().out))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    # builds refused over a cap, each with the builds that enclose it
    refused = counts["misses"] - counts["stores"]
    assert counts["lookups"] > counts["misses"] > refused > 0
    assert counts["cap_raises"] > 0


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

    def counted(self, full):
        kinds[getattr(full[0], "__name__", full[0])] += 1
        return dict.__getitem__(self, full)

    monkeypatch.setattr(InternTable, "__getitem__", counted)
    assert [v.status for v in verify(tid, ctx)] == ["holds"]
    assert kinds[lookup] == (0 if lookup == "power_table" else 1)
