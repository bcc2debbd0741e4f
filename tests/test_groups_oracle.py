"""Differential test: the greedy `group_embedding` against the backtracking
routines it replaced, kept here only as an oracle.

Hypothesis generates subgroups and coset quotients of Z_{n1} x ... x Z_{nk}
(order at most 600); both routines must give the same cyclic factors and
the same label at every FinAbGroup index.
"""

import functools
from typing import Callable, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

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


@st.composite
def presented_groups(draw):
    """(labels, add) of a subgroup or a coset quotient of a product of
    cyclic groups; a quotient labels each coset by its least element."""
    factors, order = [], 1
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, min(16, 600 // order)))
        factors.append(n)
        order *= n
    table = _add_table(tuple(factors))
    gens = draw(st.lists(st.integers(0, order - 1), max_size=3))
    member = np.zeros(order, dtype=bool)
    member[0] = True
    while True:
        grown = member.copy()
        grown[table[np.ix_(np.nonzero(member)[0], gens)].ravel()] = True
        if np.array_equal(grown, member):
            break
        member = grown
    sub = np.nonzero(member)[0]
    if draw(st.booleans()):
        return sub, lambda x, y: table[x, y]
    coset = table[:, sub].min(axis=1)
    return np.unique(coset), lambda x, y: coset[table[x, y]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presented_groups())
def test_group_embedding_matches_the_backtracking_oracle(presented):
    labels, add = presented
    group, from_label, to_index, _ = group_embedding(labels, add)
    old_group, _, old_from_label = oracle_group_embedding(
        labels.tolist(), lambda x, y: int(add(x, y)), 0)
    assert group.factors == old_group.factors
    assert from_label.tolist() == old_from_label
    assert to_index[from_label].tolist() == list(range(len(labels)))
