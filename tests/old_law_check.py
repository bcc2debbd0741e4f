"""The law check's walk as it was before it became one gather per
direction, kept here only as an oracle for `rings._failed_law`.

`first_nonadditive` checks the mixed-radix tree a block of rows at a
time, factor by factor, and each factor's wrap after its blocks;
`failed_law` runs the same laws in the same order as the package and
tests associativity on the basis triples one at a time.
"""

import itertools

import numpy as np


def first_mismatch(lhs, rhs):
    """Index tuple of the first entry with lhs != rhs, or None."""
    diff = lhs != rhs
    if not diff.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(diff),
                                                  diff.shape))


def first_nonadditive(table, group, add):
    """(x, b, c) for the first edge with table[x + b, c] != table[x, c] +
    table[b, c], or None: for each factor f of stride b, the edges
    x -> x + b for x below (f - 1)b, a block of rows at a time and column
    by column in a block, then the wrap (f - 1)b -> 0."""
    step = max(1, (1 << 20) // table.shape[1])
    for f, b in zip(group.factors, group.strides):
        if f == 1:
            continue
        row = table[b]
        top = (f - 1) * b
        for lo in range(0, top, step):
            hi = min(lo + step, top)
            bad = first_mismatch(table[lo + b:hi + b].T,
                                 add[row[:, None], table[lo:hi].T])
            if bad:
                return lo + bad[1], b, bad[0]
        bad = first_mismatch(table[0], add[table[top], row])
        if bad:
            return top, b, bad[0]
    return None


def failed_law(act, ring, group):
    """(law, witness) for the first right-module law that `act` breaks,
    or None, in the package's order."""
    add_m = group.add_table()
    bad = first_mismatch(act[:, ring.one], np.arange(act.shape[0]))
    if bad:
        return "identity", (bad[0], ring.one)
    bad = first_mismatch(act[0], 0)
    if bad:
        return "distributivity_module", (0, 0, bad[0])
    bad = first_mismatch(act[:, 0], 0)
    if bad:
        return "distributivity_ring", (bad[0], 0, 0)
    bad = first_nonadditive(act, group, add_m)
    if bad:
        return "distributivity_module", bad
    bad = first_nonadditive(act.T, ring.add_group, add_m)
    if bad:
        return "distributivity_ring", (bad[2], bad[0], bad[1])
    mul = ring.mul_np
    basis_m, basis_r = ([g.basis_index(j) for j in range(len(g.factors))]
                        for g in (group, ring.add_group))
    for m, r, s in itertools.product(basis_m, basis_r, basis_r):
        if act[act[m, r], s] != act[m, mul[r, s]]:
            return "associativity", (m, r, s)
    return None
