"""Shared fixtures: the shipped corpus, loaded once per session."""

from __future__ import annotations

import pathlib

import pytest

from pirick.caps import INTERNED, InternTable, caps_from_env
from pirick.families import ex23_module, ex23_ring, zmod
from pirick.io import load_dir
from pirick.properties import analyze

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def fresh_intern():
    """An empty intern table for one test, for tests that replace a builder
    (`_bilinear_table`, `ring_make`, `hom_set`): the replacement runs on
    every structure, and what it builds is not served to later tests.  The
    table as it was is put back afterwards."""
    saved = dict(INTERNED)
    INTERNED.clear()
    yield INTERNED
    INTERNED.clear()
    INTERNED.update(saved)


class Misses(list):
    """The keys (function, structure key, arguments) that missed the
    intern table, in order.  Each miss runs the body of an interned
    function once; a body that raises, a build refused at a cap among
    them, stores nothing, so its next call misses again."""

    def of(self, fn) -> list:
        """The misses of the interned function fn."""
        return [full for full in self if full[0] is fn.__wrapped__]


@pytest.fixture
def misses(monkeypatch):
    """Every miss of the intern table during one test, as `Misses`."""
    found = Misses()

    def getitem(table, full):
        try:
            return dict.__getitem__(table, full)
        except KeyError:
            found.append(full)
            raise

    monkeypatch.setattr(InternTable, "__getitem__", getitem)
    return found


@pytest.fixture(scope="session")
def caps():
    return caps_from_env()


@pytest.fixture(scope="session")
def corpus_dir():
    assert CORPUS_DIR.is_dir(), "shipped corpus directory is missing"
    return CORPUS_DIR


@pytest.fixture(scope="session")
def instances(corpus_dir, caps):
    return load_dir(corpus_dir, caps)


@pytest.fixture(scope="session")
def module_instances(instances):
    return [i for i in instances if i.kind == "module"]


@pytest.fixture(scope="session")
def ring_instances(instances):
    return [i for i in instances if i.kind == "ring"]


@pytest.fixture(scope="session")
def reports(module_instances, caps):
    """name -> PropertyReport for every corpus module."""
    return {i.name: analyze(i.module, caps, name=i.name)
            for i in module_instances}


@pytest.fixture(scope="session")
def z4(caps):
    return zmod(4, caps)


@pytest.fixture(scope="session")
def z6(caps):
    return zmod(6, caps)


@pytest.fixture(scope="session")
def t2z2(caps):
    return ex23_ring(caps)


@pytest.fixture(scope="session")
def ex23(t2z2, caps):
    return ex23_module(caps, ring=t2z2)
