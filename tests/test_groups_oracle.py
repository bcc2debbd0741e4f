"""Differential test: the greedy `group_embedding` against the backtracking
routines it replaced, kept here only as an oracle.

Hypothesis generates subgroups and coset quotients of Z_{n1} x ... x Z_{nk}
(order at most 600); both routines must give the same cyclic factors and
the same label at every FinAbGroup index.  `group_embedding` has two paths,
a list path up to `groups.SMALL_GROUP` elements and a NumPy path above; each
example runs through both, which must agree with each other and with the
oracle, on both sides of the threshold, and give the same PirickError on
tables that are not abelian groups.  A list path that breaks ties by the
latest position instead of the earliest must be caught.
"""

import contextlib
import functools
import inspect
import textwrap
from typing import Callable, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import groups
from pirick.errors import PirickError
from pirick.groups import FinAbGroup, group_embedding


def oracle_decompose_abelian(labels: Sequence, add: Callable, zero):
    """Cyclic decomposition of an abstract finite abelian group.

    The group is presented by a list of hashable labels, an addition callback
    and the zero label.  Returns a list of (generator_label, order) such that
    the group is the internal direct sum of the cyclic subgroups generated by
    the generators.  The trivial group returns [].

    Strategy: greedy choice of a maximal-order element whose cyclic subgroup
    meets the current span trivially, with full backtracking (candidates are
    ranked by decreasing order, then by position in `labels`, which makes the
    result deterministic).
    """
    n = len(labels)
    if n == 1:
        return []

    position = {lab: i for i, lab in enumerate(labels)}
    orders = {}
    multiples = {}
    for lab in labels:
        chain = [lab]
        cur = lab
        while cur != zero:
            if len(chain) > n:
                raise PirickError(f"element {lab!r} has no finite order "
                                  "reaching zero; input is not a group")
            cur = add(cur, lab)
            chain.append(cur)
        orders[lab] = len(chain)
        multiples[lab] = chain  # lab, 2*lab, ..., ord*lab == zero
    candidates = sorted((lab for lab in labels if lab != zero),
                        key=lambda lab: (-orders[lab], position[lab]))

    def extend(span: dict, chosen: list):
        """span maps label -> coordinate tuple relative to `chosen` generators."""
        if len(span) == n:
            return chosen
        for g in candidates:
            if g in span:
                continue
            # require <g> to meet the current span trivially: no nonzero
            # multiple of g may already lie in it
            if any(m in span for m in multiples[g][:-1]):
                continue
            new_span = dict(span)
            ok = True
            for h, coord in span.items():
                acc = h
                for a in range(1, orders[g]):
                    acc = add(acc, g)
                    if acc in new_span:
                        ok = False
                        break
                    new_span[acc] = coord + (a,)
                if not ok:
                    break
            if not ok:
                continue
            for h in span:
                new_span[h] = span[h] + (0,)
            result = extend(new_span, chosen + [(g, orders[g])])
            if result is not None:
                return result
        return None

    result = extend({zero: ()}, [])
    if result is None:  # cannot happen for a genuine finite abelian group
        raise RuntimeError("cyclic decomposition failed; input is not an "
                           "abelian group")
    return result


def oracle_group_embedding(labels: Sequence, add: Callable, zero):
    """Re-present an abstract finite abelian group as a FinAbGroup.

    Returns (group, to_index, from_label) where `to_index[label]` is the
    FinAbGroup index of `label` and `from_label[i]` is the label of index i.
    """
    labels = list(labels)
    gens = oracle_decompose_abelian(labels, add, zero)
    if not gens:
        return FinAbGroup((1,)), {zero: 0}, [zero]
    group = FinAbGroup([o for (_, o) in gens])
    from_label = [None] * group.order
    to_index = {}
    # walk all coordinate tuples by repeated addition of generators
    cur = {(): zero}
    for g, o in gens:
        nxt = {}
        for prefix, lab in cur.items():
            acc = lab
            nxt[prefix + (0,)] = acc
            for a in range(1, o):
                acc = add(acc, g)
                nxt[prefix + (a,)] = acc
        cur = nxt
    for coords, lab in cur.items():
        idx = group.index_of(coords)
        from_label[idx] = lab
        to_index[lab] = idx
    return group, to_index, from_label


@functools.lru_cache(maxsize=None)
def _add_table(factors: tuple) -> np.ndarray:
    return FinAbGroup(factors).add_table().astype(np.int64)


def present(factors: tuple, gens: list, quotient: bool) -> tuple:
    """(labels, add) of the subgroup of Z_{n1} x ... x Z_{nk} generated by
    gens, or of the quotient by it, which labels each coset by its least
    element."""
    table = _add_table(tuple(factors))
    order = len(table)
    member = np.zeros(order, dtype=bool)
    member[0] = True
    while True:
        grown = member.copy()
        grown[table[np.ix_(np.nonzero(member)[0], gens)].ravel()] = True
        if np.array_equal(grown, member):
            break
        member = grown
    sub = np.nonzero(member)[0]
    if not quotient:
        return sub, lambda x, y: table[x, y]
    coset = table[:, sub].min(axis=1)
    return np.unique(coset), lambda x, y: coset[table[x, y]]


@st.composite
def presented_groups(draw):
    """(labels, add) of a subgroup or a coset quotient of a product of
    cyclic groups."""
    factors, order = [], 1
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, min(16, 600 // order)))
        factors.append(n)
        order *= n
    gens = draw(st.lists(st.integers(0, order - 1), max_size=3))
    return present(tuple(factors), gens, draw(st.booleans()))


def path(name: str):
    """Run group_embedding on its list path ("small") or its NumPy path
    ("large") whatever the size of the group, or on the path its size
    picks ("default")."""
    if name == "default":
        return contextlib.nullcontext()
    return mock.patch.object(groups, "SMALL_GROUP",
                             {"small": 1 << 62, "large": 0}[name])


def embedding(name: str, labels, add):
    """group_embedding on path `name`, as plain lists, or the message of
    the PirickError it raised."""
    with path(name):
        try:
            group, from_label, to_index, basis = group_embedding(labels, add)
        except PirickError as err:
            return str(err)
    return (group.factors, from_label.tolist(),
            to_index[from_label].tolist(), basis.tolist())


def oracle(labels, add) -> tuple:
    group, _, from_label = oracle_group_embedding(
        labels.tolist(), lambda x, y: int(add(x, y)), 0)
    return group.factors, from_label


def disagreements(name: str, presented: list) -> list:
    """The (labels, add) among presented on which path `name` and the
    oracle give other factors or labels."""
    return [(labels, add) for labels, add in presented
            if embedding(name, labels, add)[:2] != oracle(labels, add)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presented_groups())
def test_group_embedding_matches_the_backtracking_oracle(presented):
    labels, add = presented
    small, large = (embedding(name, labels, add)
                    for name in ("small", "large"))
    assert small == large
    assert small[:2] == oracle(labels, add)
    assert small[2] == list(range(len(labels)))
    assert embedding("default", labels, add) == small


# groups of 64 and of 65 elements, on both sides of groups.SMALL_GROUP, as
# subgroups and as quotients
EDGE_GROUPS = [((64,), [1], False), ((2,) * 6, [1, 2, 4, 8, 16, 32], False),
               ((4, 16), [1, 16], False), ((8, 8), [1, 8], False),
               ((2, 64), [2, 64], False), ((128,), [64], True),
               ((4, 32), [64], True), ((65,), [1], False),
               ((5, 13), [1, 13], False), ((130,), [2], False),
               ((2, 65), [65], True), ((5, 26), [13], True)]


@pytest.mark.parametrize("factors, gens, quotient", EDGE_GROUPS)
def test_both_paths_match_the_oracle_at_64_and_65_elements(factors, gens,
                                                           quotient):
    labels, add = present(factors, gens, quotient)
    assert len(labels) in (groups.SMALL_GROUP, groups.SMALL_GROUP + 1)
    small = embedding("small", labels, add)
    assert small == embedding("large", labels, add)
    assert small[:2] == oracle(labels, add)
    assert embedding("default", labels, add) == small


@st.composite
def broken_tables(draw):
    """(labels, add) of a group table of at most 96 elements with a few
    entries overwritten by other elements, so that most are not groups."""
    factors = draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (6,), (2, 4),
                                    (3, 3), (2, 2, 2), (16,), (4, 4), (64,),
                                    (2,) * 6, (65,), (81,), (3,) * 4,
                                    (2, 48)]))
    table = _add_table(factors).copy()
    order = len(table)
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(st.integers(0, order - 1)), draw(st.integers(0, order - 1))
        table[x, y] = draw(st.integers(0, order - 1))
    if draw(st.booleans()):             # an element of infinite order
        x = draw(st.integers(1, order - 1))
        table[x] = np.maximum(table[x], x)
    return np.arange(order), lambda x, y: table[x, y]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(broken_tables())
def test_both_paths_reject_a_non_group_with_one_message(broken):
    labels, add = broken
    assert embedding("small", labels, add) == embedding("large", labels, add)


@pytest.mark.parametrize("name", ["small", "large"])
def test_each_rejection_message_is_reached(name):
    """A table with an element of infinite order, and one whose elements
    have finite orders but no cyclic decomposition, on each path."""
    no_split = np.array([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    assert embedding(name, np.arange(3),
                     lambda x, y: np.minimum(x + y, 2)) == (
        "element 1 has no finite order reaching zero; input is not a group")
    assert embedding(name, np.arange(3), lambda x, y: no_split[x, y]) == (
        "cyclic decomposition failed; input is not an abelian group")


@pytest.mark.parametrize("order", [1, 8, 64])
def test_the_list_path_adds_once(order):
    table = _add_table((order,))
    seen = []

    def add(x, y):
        seen.append(np.broadcast(x, y).shape)
        return table[x, y]

    group_embedding(np.arange(order), add)
    assert seen == [(order, order)]


def test_the_numpy_path_runs_above_the_threshold():
    table = _add_table((groups.SMALL_GROUP + 1,))
    calls = []
    group_embedding(np.arange(len(table)),
                    lambda x, y: calls.append(1) or table[x, y])
    assert len(calls) > 1


def _latest_position_first(monkeypatch):
    """Replace the list path by a mutant that ranks elements of one order
    by latest position first."""
    source = textwrap.dedent(inspect.getsource(groups._small_span))
    old = "key=lambda x: -orders[x])"
    assert source.count(old) == 1
    namespace = dict(vars(groups))
    exec(source.replace(old, "key=lambda x: (-orders[x], -x))"), namespace)
    monkeypatch.setattr(groups, "_small_span", namespace["_small_span"])


def test_a_list_path_that_breaks_ties_by_latest_position_is_caught(
        monkeypatch):
    presented = [present(*case) for case in EDGE_GROUPS] + [
        present((2, 4), [1, 4], False), present((3, 3), [1, 3], False),
        present((12,), [1], False), present((4, 8), [8], True)]
    assert disagreements("small", presented) == []
    _latest_position_first(monkeypatch)
    caught = disagreements("small", presented)
    # every group with two elements of the largest order, all of these
    assert len(caught) == len(presented)
    assert disagreements("large", presented) == []
