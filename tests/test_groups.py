"""Finite abelian groups: arithmetic, decomposition, embedding."""

import numpy as np
import pytest

from pirick.errors import EmptyFactorList, PirickError, ZeroFactor
from pirick.groups import FinAbGroup, group_embedding
from test_iso_oracle import elementary_divisors


def test_cyclic_group_arithmetic():
    g = FinAbGroup((6,))
    assert g.order == 6
    table = g.add_table()
    assert table[2, 5] == 1          # 2 + 5 = 1 mod 6
    assert table[0, 4] == 4
    neg = g.neg_vector()
    assert all(table[i, neg[i]] == 0 for i in range(6))


def test_product_group_lex_indexing():
    g = FinAbGroup((2, 3))
    assert g.order == 6
    # index = 3*c1 + c2 under lexicographic coordinates
    assert g.index_of((1, 2)) == 5
    assert g.tuple_of(4) == (1, 1)
    table = g.add_table()
    # (1,1) + (1,2) = (0,0)
    assert table[4, 5] == 0


def test_group_rejects_bad_factors():
    with pytest.raises(EmptyFactorList):
        FinAbGroup(())
    with pytest.raises(ZeroFactor):
        FinAbGroup((3, 0))


def test_elementary_divisors_canonicalization():
    # Z_6 = Z_2 x Z_3, so both present the same elementary divisors
    assert elementary_divisors((6,)) == elementary_divisors((2, 3))
    # Z_4 x Z_6 = Z_2 x Z_12 (both are Z_2 x Z_4 x Z_3)
    assert elementary_divisors((4, 6)) == elementary_divisors((2, 12)) == (2, 12)
    assert elementary_divisors((4,)) != elementary_divisors((2, 2))
    assert elementary_divisors((1, 5)) == elementary_divisors((5,))


def test_group_embedding_recovers_invariant_factors():
    # labels 6a + b form Z_2 x Z_6 with componentwise addition
    labels = np.arange(12)
    add = lambda x, y: ((x // 6 + y // 6) % 2) * 6 + (x % 6 + y % 6) % 6
    group, *_ = group_embedding(labels, add)
    assert elementary_divisors(group.factors) == elementary_divisors((2, 6))


def test_group_embedding_klein_vs_cyclic():
    cyclic, *_ = group_embedding(np.arange(4), lambda x, y: (x + y) % 4)
    assert elementary_divisors(cyclic.factors) == elementary_divisors((4,))
    # labels 2a + b form Z_2 x Z_2, whose addition is bitwise xor
    klein, *_ = group_embedding(np.arange(4), np.bitwise_xor)
    assert elementary_divisors(klein.factors) == elementary_divisors((2, 2))


def test_group_embedding_round_trip():
    labels = np.array([0, 3, 5, 6])          # zero, a, b, ab under xor
    add = np.bitwise_xor
    group, from_label, to_index, basis = group_embedding(labels, add)
    assert group.order == 4
    assert to_index[0] == 0
    # embedding is a homomorphism
    tbl = group.add_table()
    for x in labels.tolist():
        for y in labels.tolist():
            assert tbl[to_index[x], to_index[y]] == to_index[x ^ y]
    assert [int(from_label[to_index[x]]) for x in labels] == labels.tolist()
    assert basis.tolist() == [int(from_label[group.basis_index(j)])
                              for j in range(len(group.factors))]


def test_group_embedding_rejects_non_group():
    with pytest.raises(PirickError):
        group_embedding(np.array([0, 1, 2]), lambda x, y: np.minimum(x + y, 2))
