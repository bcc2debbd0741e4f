"""Differential test: the law check's one gather per direction,
`rings._failed_law`, against the walk it replaced, kept here only as an
oracle (`old_law_check`).

The two must report the same (law, witness), the first failure in the
walk's order, on every corpus ring and module table: valid, with one
entry changed, and as the bilinear extension of its constants with one
constant changed, which keeps the tree of sums and may break a wrap or
associativity.  A table of more than 1,024 entries has its entries
changed in the rows and the columns of the elements that the walk treats
apart: 0, 1, each basis element b, each (f - 1)b and the last.

Three mutants of the check must be caught: one that skips the wrap
edges, one that skips the last factor's edges, and one that skips the
basis triple (m0, r1, r1) of the associativity test.  A changed constant
breaks a wrap first only where the identity still holds, so each table
of a changed constant is also checked with its identity column set back.
"""

import numpy as np
import pytest

import old_law_check as old
from pirick import rings
from pirick.caps import caps_from_env
from pirick.families import zmod
from pirick.rings import FiniteRing, _bilinear_table, _failed_law, product_ring

CAPS = caps_from_env()


def _marked(group) -> list:
    """0, 1, each basis element b, each (f - 1)b and the last element."""
    marked = {0, min(1, group.order - 1), group.order - 1}
    for f, b in zip(group.factors, group.strides):
        marked |= {b % group.order, (f - 1) * b}
    return sorted(marked)


def _entries(table, row_group, col_group) -> list:
    if table.size <= 1024:
        return list(np.ndindex(table.shape))
    rows, cols = _marked(row_group), _marked(col_group)
    return sorted({(i, j) for i in rows for j in range(table.shape[1])}
                  | {(i, j) for i in range(table.shape[0]) for j in cols})


def _cases(inst):
    """(act, ring, group) for the instance's table and its changed
    copies; a changed ring table is its own ring's multiplication."""
    ring = inst.ring
    if inst.kind == "ring":
        group, act = ring.add_group, ring.mul_np
        constants = dict(ring.constants)

        def with_table(table):
            return table, FiniteRing(group, ring.one, {}, table, "R"), group
    else:
        module = inst.module
        group, act = module.add_group, module.act_np
        constants = {(j, i): c for (i, j), c in module.constants.items()}

        def with_table(table):
            return table, ring, group
    yield act, ring, group
    for i, j in _entries(act, group, ring.add_group):
        table = act.copy()
        table[i, j] = (int(table[i, j]) + 1) % group.order
        yield with_table(table)
    for key in np.ndindex(len(group.factors), len(ring.add_group.factors)):
        changed = dict(constants)
        changed[key] = (changed.get(key, 0) + 1) % group.order
        table = _bilinear_table(group, ring.add_group, changed)
        yield with_table(table)
        table = table.copy()                 # so that the identity holds
        table[:, ring.one] = np.arange(group.order)
        yield with_table(table)


def _disagreements(instances):
    """(name, check's, walk's) for each case where the two differ."""
    for inst in instances:
        for act, ring, group in _cases(inst):
            got = _failed_law(act, ring, group)
            want = old.failed_law(act, ring, group)
            if got != want:
                yield inst.name, got, want


def test_the_gather_reports_the_walks_first_failure(instances):
    assert list(_disagreements(instances)) == []
    verdicts = {old.failed_law(act, ring, group) is None
                for inst in instances for act, ring, group in _cases(inst)}
    assert verdicts == {True, False}


def _without_wraps(real):
    def edges(group):
        src, gen, dst = real(group)
        keep = dst != 0
        return src[keep], gen[keep], dst[keep]
    return edges


def _without_last_factor(real):
    def edges(group):
        src, gen, dst = real(group)
        keep = gen != gen[-1] if len(gen) else gen == 0
        return src[keep], gen[keep], dst[keep]
    return edges


@pytest.mark.parametrize("mutate", [_without_wraps, _without_last_factor])
def test_a_check_that_skips_edges_is_caught(monkeypatch, fresh_intern,
                                            instances, mutate):
    monkeypatch.setattr(rings, "_tree_edges", mutate(rings._tree_edges))
    assert next(_disagreements(instances), None)


def test_a_check_that_skips_a_basis_triple_is_caught(monkeypatch,
                                                      instances):
    real = rings._first_mismatch

    def first_mismatch(lhs, rhs):
        if np.ndim(lhs) == 3 and lhs.shape[1] > 1:   # the triples (m, r, s)
            rhs = rhs.copy()
            rhs[0, 1, 1] = lhs[0, 1, 1]
        return real(lhs, rhs)

    monkeypatch.setattr(rings, "_first_mismatch", first_mismatch)
    assert next(_disagreements(instances), None)


# Z/1152 and Z/32 x Z/36: a table of 1152^2 entries is checked 910 rows or
# columns to a gather, so a factor's edges span two gathers.  The changed
# entries leave mismatches in two columns of one block of the walk, the
# later row in the earlier column, and in a later block; swapped columns
# keep every column additive and break the rows' sums, read by columns.
WIDE = ((1152,), (32, 36))
CHANGES = ((("entry", 700, 900), ("entry", 760, 5), ("entry", 1000, 3)),
           (("entry", 1116, 7), ("entry", 1140, 2)),    # a wrap's row
           (("entry", 40, 1150), ("entry", 1151, 40)),
           (("swap", 700, 900), ("swap", 760, 5), ("swap", 1000, 3)),
           (("swap", 1116, 7), ("swap", 40, 1151)))


@pytest.mark.parametrize("factors", WIDE)
@pytest.mark.parametrize("changes", CHANGES)
def test_a_wide_table_is_read_in_the_walks_order(factors, changes):
    ring = (zmod(1152, CAPS) if factors == (1152,) else
            product_ring(zmod(32, CAPS), zmod(36, CAPS)))
    assert ring.add_group.factors == factors
    table = ring.mul_np.copy()
    for kind, i, j in changes:
        if kind == "entry":
            table[i, j] = (int(table[i, j]) + 1) % ring.order
        else:
            table[:, [i, j]] = table[:, [j, i]]
    raw = FiniteRing(ring.add_group, ring.one, {}, table, "R")
    failed = _failed_law(table, raw, ring.add_group)
    assert failed is not None
    assert failed == old.failed_law(table, raw, ring.add_group)
