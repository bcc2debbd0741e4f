"""The `cached` memo: keys by function, arguments and caps; no stored errors."""

import dataclasses
import types

import pytest

from pirick.caps import DEFAULT_CAPS, Caps, cached
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.modules import all_submodules, ring_as_module


def _z4_reg():
    return ring_as_module(zmod(4, DEFAULT_CAPS), DEFAULT_CAPS)


def test_default_caps_and_explicit_default_caps_share_an_entry():
    module = _z4_reg()
    assert all_submodules(module) is all_submodules(module, DEFAULT_CAPS)


def test_each_caps_value_gets_its_own_entry():
    module = _z4_reg()
    looser = dataclasses.replace(DEFAULT_CAPS, lattice=DEFAULT_CAPS.lattice + 1)
    default = all_submodules(module, DEFAULT_CAPS)
    other = all_submodules(module, looser)
    assert other is not default
    assert [s.mask for s in other] == [s.mask for s in default]
    assert all_submodules(module, looser) is other


def test_an_exception_is_not_stored():
    module = _z4_reg()
    with pytest.raises(SizeCapExceeded):
        all_submodules(module, Caps(lattice=2))
    all_submodules(module)
    with pytest.raises(SizeCapExceeded):
        all_submodules(module, Caps(lattice=2))


def test_functions_sharing_a_name_do_not_collide():
    def twin(obj):
        return "first"
    first = cached(twin)

    def twin(obj):                                    # noqa: F811
        return "second"
    second = cached(twin)

    obj = types.SimpleNamespace(_memo={})
    assert (first(obj), second(obj)) == ("first", "second")
    assert len(obj._memo) == 2


def test_the_wrapper_keeps_the_function_name():
    assert all_submodules.__name__ == "all_submodules"
    assert all_submodules.__module__ == "pirick.modules"
