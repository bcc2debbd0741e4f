"""The `interned` memo: keys by function, structure, arguments and caps;
a cap failure is stored, no other error is."""

import dataclasses
import pathlib
import types

import pytest

from pirick.caps import DEFAULT_CAPS, Caps, interned
from pirick.errors import PirickError, SizeCapExceeded
from pirick.families import zmod
from pirick.homs import end_ring
from pirick.modules import ring_as_module

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pirick"


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
