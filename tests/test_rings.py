"""Finite rings: construction, validation, regularity family, builders."""

import dataclasses
import operator

import numpy as np
import pytest

from pirick import rings
from pirick.caps import caps_from_env
from pirick.errors import (BadIdentity, NonAssociative, NotDistributive,
                           NotIdempotent, SizeCapExceeded)
from pirick.families import zmod
from pirick.groups import FinAbGroup
from pirick.rings import (RING_CHECKS, corner_ring, jacobson_radical,
                          matrix_ring, power_table, product_ring, ring_check,
                          ring_idempotents, ring_make, ring_units,
                          triangular_ring)

CAPS = caps_from_env()


def test_zmod_multiplication():
    z6 = zmod(6)
    assert z6.order == 6
    assert z6.mul_np[4, 5] == 2          # 20 mod 6
    assert z6.mul_np[3, 3] == 3
    assert z6.one == 1


def test_ring_make_rejects_bad_identity():
    group = FinAbGroup((4,))
    with pytest.raises(BadIdentity):
        ring_make(group, {(0, 0): 1}, 2, CAPS, "bad")


def test_ring_make_rejects_non_associative():
    # force (e*e)*e != e*(e*e) on a rank-2 group by an asymmetric table
    group = FinAbGroup((2, 2))
    constants = {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    with pytest.raises((NonAssociative, NotDistributive, BadIdentity)):
        ring_make(group, constants, 1, CAPS, "broken")


def powers_of(ring, a: int) -> list:
    """Row a of the ring's power table, without its -1s."""
    row = power_table(ring)[a]
    return row[row >= 0].tolist()


def test_power_trail_reaches_zero_for_nilpotents():
    z8 = zmod(8)
    assert powers_of(z8, 2) == [2, 4, 0]   # index 3: 2^3 = 0
    assert powers_of(z8, 6) == [6, 4, 0]
    assert powers_of(z8, 3) == [3]         # unit: index 1, never 0


@pytest.mark.parametrize("n, width", [(1021, 1), (1024, 10)])
def test_the_table_is_as_wide_as_the_largest_index(n, width):
    """Z/1021 is a field, so every index is 1 (its periods reach 1,020);
    in Z/1024 the largest index is that of 2, 2^10 = 0."""
    table = power_table(zmod(n, CAPS))
    assert table.shape == (n, width)
    assert table.dtype == np.min_scalar_type(-n)
    assert (table[:, 0] == np.arange(n)).all()


def test_the_table_ends_on_a_table_that_is_not_associative():
    """On [[0, 1], [0, 0]] the powers of 1 run 1, 0, 1, ... while the
    zero counts of their rows run 2, 1, 2, ...: row 1 ends at 1, where the
    count first fails to grow."""
    mul = np.array([[0, 1], [0, 0]], dtype=np.uint8)
    mul.flags.writeable = False
    ring = rings.FiniteRing(FinAbGroup((2,)), 0,
                            {("raw", mul.tobytes()): 1}, mul, "raw")
    assert power_table(ring).tolist() == [[0], [1]]


def test_regularity_family_on_z4():
    z4 = zmod(4)
    assert not ring_check(z4, "regular").holds      # a=2 has no x with 2x2=2
    v = ring_check(z4, "pi_regular")
    assert v.holds
    assert v.witnesses[2] == (2, 0)      # 2^2 = 0 = 0*x*0 with x=0
    s = ring_check(z4, "strongly_pi_regular")
    assert s.holds


def test_regularity_family_on_z6():
    z6 = zmod(6)
    v = ring_check(z6, "regular")
    assert v.holds
    p = ring_check(z6, "pi_regular")
    assert all(n == 1 for n, _ in p.witnesses.values())


def test_generalized_left_pp_witnesses():
    z4 = zmod(4)
    v = ring_check(z4, "gen_left_pp")
    assert v.holds
    n, e = v.witnesses[2]
    # l(2^n) must equal Z4*e exactly
    ln = set(np.nonzero(z4.mul_np[:, int(z4.mul_np[2, 2]) if n == 2 else 2]
                        == 0)[0].tolist())
    gen = set(np.unique(z4.mul_np[:, e]).tolist())
    assert ln == gen


def test_principal_left_ideal_keys_list_every_idempotent():
    t2z2 = triangular_ring(zmod(2), 2, CAPS)
    keys = rings.principal_left_ideal_keys(t2z2)
    listed = [e for es in keys.values() for e in es]
    assert sorted(listed) == ring_idempotents(t2z2).tolist()
    for key, es in keys.items():
        assert es == sorted(es)
        # R*e as a set is the column e of the table
        assert all(set(t2z2.mul_np[:, e].tolist())
                   == set(t2z2.mul_np[:, es[0]].tolist()) for e in es)
        assert key == np.packbits(np.isin(np.arange(t2z2.order),
                                          t2z2.mul_np[:, es[0]])).tobytes()
    assert len(keys) < len(listed)       # some R*e has two generators
    # generalized left pp names the smallest idempotent of its key
    v = ring_check(t2z2, "gen_left_pp")
    assert all(e == keys[rings.left_annihilator_key(
        t2z2, powers_of(t2z2, a)[n - 1])][0]
        for a, (n, e) in v.witnesses.items())


def test_jacobson_radical():
    assert jacobson_radical(zmod(4)).tolist() == [0, 2]
    assert jacobson_radical(zmod(6)).tolist() == [0]
    assert jacobson_radical(zmod(12)).tolist() == [0, 6]
    t2z2 = triangular_ring(zmod(2), 2, CAPS)
    assert jacobson_radical(t2z2).size == 2   # zero and the strict corner


@pytest.mark.parametrize("shape", [(1,), (7,), (5, 5), (3, 4, 6), (2, 1, 3)])
def test_first_true_is_the_row_major_first(shape):
    rng = np.random.default_rng(sum(shape))
    for density in (0.02, 0.3, 1.0):
        bits = rng.random(shape) < density
        bits.flat[-1] = True                     # at least one True
        assert rings._first_true(bits) == \
            tuple(int(i) for i in np.argwhere(bits)[0])


def test_nil_radical_check():
    v = ring_check(zmod(4), "nil_radical")
    assert v.holds
    assert set(v.witnesses) == {0, 2}


def _holding(ring):
    return {name for name in RING_CHECKS if ring_check(ring, name).holds}


def test_ring_predicates():
    z4 = _holding(zmod(4))
    assert {"commutative", "local", "abelian"} <= z4
    assert not {"reduced", "domain", "division"} & z4
    assert {"division", "domain", "reduced"} <= _holding(zmod(5))
    t2 = _holding(triangular_ring(zmod(2), 2, CAPS))
    assert not {"commutative", "abelian"} & t2


def test_ring_predicate_counterexamples_are_first_offenders():
    z4 = zmod(4)
    assert ring_check(z4, "reduced").counterexample == 2      # 2*2 = 0
    assert ring_check(z4, "domain").counterexample == (2, 2)
    assert ring_check(z4, "division").counterexample == 2
    t2z2 = triangular_ring(zmod(2), 2, CAPS)
    a, b = ring_check(t2z2, "commutative").counterexample
    assert t2z2.mul_np[a, b] != t2z2.mul_np[b, a]
    e, f = ring_check(t2z2, "abelian").counterexample
    assert t2z2.mul_np[e, e] == e and t2z2.mul_np[e, f] != t2z2.mul_np[f, e]


def test_idempotents_and_units():
    assert ring_idempotents(zmod(6)).tolist() == [0, 1, 3, 4]
    assert ring_idempotents(zmod(4)).tolist() == [0, 1]
    is_unit = ring_units(zmod(6))
    assert is_unit.tolist() == [False, True, False, False, False, True]


def test_matrix_ring_arithmetic():
    m2 = matrix_ring(zmod(2), 2, CAPS)
    assert m2.order == 16
    assert not ring_check(m2, "commutative").holds
    assert ring_check(m2, "regular").holds
    assert ring_idempotents(m2).size == 8


def test_triangular_ring_arithmetic():
    t2 = triangular_ring(zmod(2), 2, CAPS)
    assert t2.order == 8
    assert ring_idempotents(t2).size == 6
    assert not ring_check(t2, "regular").holds
    assert ring_check(t2, "pi_regular").holds


def test_product_ring():
    z2xz3 = product_ring(zmod(2), zmod(3), CAPS)
    assert z2xz3.order == 6
    # i -> (i mod 2, i mod 3) carries Z6's tables onto the product's
    z6 = zmod(6)
    phi = np.array([z2xz3.add_group.index_of((i % 2, i % 3))
                    for i in range(6)])
    assert sorted(phi.tolist()) == list(range(6))
    assert phi[z6.one] == z2xz3.one
    add6, add_p = z6.add_group.add_table(), z2xz3.add_group.add_table()
    assert np.array_equal(phi[add6], add_p[phi[:, None], phi[None, :]])
    assert np.array_equal(phi[z6.mul_np],
                          z2xz3.mul_np[phi[:, None], phi[None, :]])


def test_corner_ring():
    z6 = zmod(6)
    corner, to_parent = corner_ring(z6, 3, CAPS)
    assert corner.order == 2
    assert to_parent == (0, 3)
    assert corner.one == 1
    with pytest.raises(NotIdempotent):
        corner_ring(z6, 2, CAPS)


def test_construction_cap():
    big = FinAbGroup((5,) * 6)           # order 15625 > construct cap
    with pytest.raises(SizeCapExceeded):
        ring_make(big, {}, 0, CAPS, "too-big")


# A table on Z_n corrupted after construction, as a table-building bug would
# leave it.  The laws are checked exactly at every size: the recorded
# triple is the first failing edge or basis triple of that check, and it
# breaks the law named.
_BUILD = rings._bilinear_table


def _zero_row_5(left, right, constants):
    table = _BUILD(left, right, constants)
    table[5, :] = 0
    table[5, 1] = 5                      # keeps 1 the identity
    return table


def _swap_2_3(left, right, constants):
    """Z_n's product moved through the non-additive bijection 2 <-> 3: still
    associative with identity 1, but not distributive."""
    s = np.array([0, 1, 3, 2] + list(range(4, left.order)))
    return s[_BUILD(left, right, constants)[np.ix_(s, s)]].astype(np.int32)


def _breaks(error, mul, add, triple) -> bool:
    """Whether the triple (a, b, c) breaks, in table mul with addition add,
    a law whose failure raises `error`."""
    a, b, c = triple
    if error is NonAssociative:
        return mul[mul[a, b], c] != mul[a, mul[b, c]]
    return (mul[a, add(b, c)] != add(mul[a, b], mul[a, c])
            or mul[add(a, b), c] != add(mul[a, c], mul[b, c]))


@pytest.mark.parametrize("n, table, error, triple", [
    (67, _zero_row_5, NotDistributive, (4, 1, 2)),
    (67, _swap_2_3, NotDistributive, (1, 1, 2)),
    (7, _swap_2_3, NotDistributive, (1, 1, 2)),
])
def test_validation_names_the_first_bad_triple(monkeypatch, fresh_intern, n,
                                               table, error, triple):
    monkeypatch.setattr(rings, "_bilinear_table", table)
    with pytest.raises(error) as err:
        zmod(n, CAPS)
    assert err.value.triple == triple
    group = FinAbGroup((n,))
    mul = table(group, group, {(0, 0): 1})
    assert _breaks(error, mul, lambda x, y: (x + y) % n, triple)


def _maps_of_z2(group, right, constants):
    """Element (f0, f1) is the map x -> f_x of Z_2 and a*b = b(a(x)): this is
    associative with identity (0, 1) and left but not right distributive."""
    table = np.empty((4, 4), dtype=np.int32)
    for i in range(4):
        a = group.tuple_of(i)
        for j in range(4):
            b = group.tuple_of(j)
            table[i, j] = group.index_of((b[a[0]], b[a[1]]))
    return table


# no cap touches the check, so the witness is the same at every cap
@pytest.mark.parametrize("lattice, triple", [(64, (0, 0, 2)), (2, (0, 0, 2))])
def test_validation_catches_a_right_distributivity_failure(monkeypatch,
                                                           fresh_intern,
                                                           lattice, triple):
    monkeypatch.setattr(rings, "_bilinear_table", _maps_of_z2)
    group = FinAbGroup((2, 2))
    with pytest.raises(NotDistributive) as err:
        ring_make(group, {}, group.index_of((0, 1)),
                  dataclasses.replace(CAPS, lattice=lattice))
    assert err.value.triple == triple
    # Z_2 x Z_2 adds indices as bit vectors
    assert _breaks(NotDistributive, _maps_of_z2(group, group, {}),
                   operator.xor, triple)


def test_one_wrong_product_in_z4096_is_caught(monkeypatch, fresh_intern):
    """Z_4096 with 1234 * 2345 off by one: a ring of any size is checked
    on every edge, so the one entry is found."""
    built = []

    def off_by_one(left, right, constants):
        table = _BUILD(left, right, constants)
        table[1234, 2345] = (table[1234, 2345] + 1) % 4096
        built.append(table)
        return table

    monkeypatch.setattr(rings, "_bilinear_table", off_by_one)
    with pytest.raises(NotDistributive) as err:
        zmod(4096, CAPS)
    assert _breaks(NotDistributive, built[-1],
                   lambda x, y: (x + y) % 4096, err.value.triple)
