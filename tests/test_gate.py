"""The one cap gate, `Caps.gate`: every cap is tested there, at each place
that used to test it by hand, and nothing else in the package builds a
SizeCapExceeded."""

import ast
import dataclasses
import pathlib

import pytest

from pirick import theorems
from pirick.caps import _FIELDS, caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.homs import end_ring, hom_set
from pirick.modules import all_submodules, free_module, radical, \
    ring_as_module
from pirick.properties import left_singular_ideal
from pirick.rings import matrix_ring

CAPS = caps_from_env()
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pirick"


@pytest.mark.parametrize("field", _FIELDS)
def test_a_size_at_the_cap_passes_and_one_over_raises(field):
    cap = getattr(CAPS, field)
    CAPS.gate(field, "what", cap)
    with pytest.raises(SizeCapExceeded) as err:
        CAPS.gate(field, "what", cap + 1)
    assert str(err.value) == f"what: size {cap + 1} exceeds cap {cap}"
    assert (err.value.what, err.value.size, err.value.cap) == \
        ("what", cap + 1, cap)


def _z2_ring_ctx(caps):
    return theorems.InstanceContext("z2", "ring", zmod(2, CAPS), None, caps)


# (cap, size, what, the call under caps): each place that tests a cap
SITES = {
    "ring_make": ("construct", 12, "ring construction",
                  lambda caps: zmod(12, caps)),
    "module_make": ("construct", 9, "module construction",
                    lambda caps: free_module(zmod(3, CAPS), 2, caps)),
    "matrix_ring": ("construct", 16, "matrix ring over z2",
                    lambda caps: matrix_ring(zmod(2, CAPS), 2, caps)),
    "end_ring": ("construct", 16, "ring construction",
                 lambda caps: end_ring(free_module(zmod(2, CAPS), 2, CAPS),
                                       caps)),
    "hom_set": ("hom", 16, "hom-set enumeration",
                lambda caps: hom_set(free_module(zmod(4, CAPS), 2, CAPS),
                                     ring_as_module(zmod(4, CAPS), CAPS),
                                     caps)),
    "lattice": ("lattice", 4, "submodule lattice",
                lambda caps: all_submodules(ring_as_module(zmod(4, CAPS),
                                                           CAPS), caps)),
    "radical": ("lattice", 4, "submodule lattice",
                lambda caps: radical(ring_as_module(zmod(4, CAPS), CAPS),
                                     caps)),
    "left_singular_ideal": ("lattice", 4, "submodule lattice",
                            lambda caps: left_singular_ideal(zmod(4, CAPS),
                                                             caps)),
    "mat2": ("matrix_check", 16, "matrix ring",
             lambda caps: theorems._mat2(zmod(2, CAPS), caps)),
    "rank2_free": ("matrix_check", 16, "rank-2 endomorphism ring",
                   lambda caps: next(theorems._free_ranks_and_summands(
                       _z2_ring_ctx(caps)))),
    "rank2_projectives": ("matrix_check", 16, "rank-2 endomorphism ring",
                          lambda caps: next(theorems._rank2_projectives(
                              _z2_ring_ctx(caps)))),
}


@pytest.mark.parametrize("site", SITES)
def test_each_site_passes_at_its_cap_and_raises_one_below(site,
                                                          fresh_intern):
    field, size, what, call = SITES[site]
    call(dataclasses.replace(CAPS, **{field: size}))
    with pytest.raises(SizeCapExceeded) as err:
        call(dataclasses.replace(CAPS, **{field: size - 1}))
    assert str(err.value) == f"{what}: size {size} exceeds cap {size - 1}"


def _constructions(tree: ast.AST, scope: str = ""):
    """The qualified name of the scope of each SizeCapExceeded(...) call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call) and "SizeCapExceeded" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield scope
        yield from _constructions(node, inner)


def test_only_the_gate_builds_a_cap_error():
    found = {path.name: sorted(set(_constructions(ast.parse(
        path.read_text()))))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "caps.py": ["Caps.gate"]}
