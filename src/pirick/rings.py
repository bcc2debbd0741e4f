"""Finite associative rings with identity, as explicit tables.

A FiniteRing is a FinAbGroup plus multiplication.  Multiplication is given
by structure constants on the additive basis, with zero values dropped, and
extended bilinearly to a full (order x order) table by row recurrence.
The table is checked for 1*a = a and then, exactly and in a time linear
in it, by `_failed_law`, as the action table of the ring's right regular
module.  `_bilinear_table` and `_failed_law` also build and check every
module's action table.  Each table is built and checked once per structure
in a process, whatever the caps, by `_checked_mul`, an `interned` function
of the ring's structure key; each ring_make call returns a new ring with
its own name that shares it, and the per-ring data below (idempotents,
units, J(R), ring checks) is interned by structure too.
Elements are the group's integer indices, so every ring-theoretic scan
below is a vectorized numpy pass over tables.

Also here: the ring checks, one table `RING_CHECKS` from a name to a
function returning a Verdict, read through `ring_check(ring, name)`.  The
checks of the form "every a has a power a^n with property P" (regular,
pi_regular, strongly_pi_regular, gen_left_pp, nil_radical) are one batched
search, `_first_power`, over the ring's `power_table`, whose row a holds
a, a^2, ..., a^k, k the index of a, the first n with a^n = a^(n+p) for
some p: at exponent n it tests, with whole-array passes, only the elements
that no smaller exponent resolved.  It is the package's one power search:
End(M)'s searches run it over `EndRing.powers`, the powers of each map up
to its index.  Both tables come from one builder, `index_powers`, which
ends each row where the kernels of the powers stop growing; by Fitting's
lemma that is the index.  Left annihilators
are rows of one packed key table, `left_annihilator_keys`.  The classical
predicates (commutative, reduced, abelian, domain, local, division)
report their first offender.  Then the Jacobson radical, and ring
constructions (corner, matrix, triangular, product).  The power and key
tables, the searches, the commutative and domain checks, J(R) and the
units read the multiplication table a block of at most _BLOCK entries at a
time, so none of them builds a temporary of order^2 entries.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .caps import Caps, DEFAULT_CAPS, StructureKey, interned
from .errors import (BadIdentity, NonAssociative, NotDistributive,
                     NotIdempotent, PirickError)
from .groups import FinAbGroup, group_embedding, index_dtype

@dataclasses.dataclass
class Verdict:
    """Outcome of a property decision.

    holds:          whether the property holds.
    counterexample: a concrete failing element/tuple when it does not.
    exponent, witness: a power search's witnesses a -> (n, w), as arrays
                    over a, -1 where none; read-only, as they are shared.
    """

    holds: bool
    counterexample: object = None
    exponent: np.ndarray = None
    witness: np.ndarray = None

    def __post_init__(self):
        for part in (self.exponent, self.witness):
            if part is not None:
                part.flags.writeable = False


class FiniteRing:
    """An associative unital ring on a FinAbGroup, with full tables; rings
    of one structure `key` share mul_np."""

    __slots__ = ("add_group", "one", "constants", "key", "name", "mul_np")

    def __init__(self, add_group, one, constants, mul_np, name):
        self.add_group = add_group
        self.one = one
        self.constants = constants
        self.key = StructureKey(add_group.factors, one,
                                tuple(sorted(constants.items())))
        self.mul_np = mul_np
        self.name = name

    @property
    def order(self) -> int:
        return self.add_group.order

    def __repr__(self) -> str:
        return f"FiniteRing({self.name!r}, order={self.order})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _bilinear_table(left: FinAbGroup, right: FinAbGroup,
                    constants: dict) -> np.ndarray:
    """Extend basis structure constants to the full (|left|, |right|) table.

    `constants` maps (i, j) -> the index in `left` of left basis i times
    right basis j; missing pairs are zero.  A ring's multiplication is the
    table of (G, G), a module's action the table of (M, R); its entries
    are indices of `left`, of type index_dtype(|left|).  The basis
    rows come from coordinates, the others by the mixed-radix recurrence
    row(p + b_i) = row(p) + row(b_i), one add-table gather per block; that
    is additivity in the left argument, so it holds for any constants.
    """
    k = len(left.factors)
    cmat = np.zeros((k, len(right.factors), k), dtype=np.int64)
    for (i, j), c in constants.items():
        cmat[i, j, :] = left.tuple_of(c)
    coords = np.einsum("qj,ijl->iql", right.coords_matrix(), cmat)
    basis_rows = (coords % np.array(left.factors)) @ np.array(left.strides)
    add = left.add_table()
    out = np.empty((left.order, right.order), dtype=index_dtype(left.order))
    out[0] = 0
    for f, s, row in zip(reversed(left.factors), reversed(left.strides),
                         basis_rows[::-1]):
        for c in range(1, f):
            out[c * s:(c + 1) * s] = add[out[(c - 1) * s:c * s], row]
    return out


def _validate_constants(add_group: FinAbGroup, constants: dict,
                        biadditive: bool = True):
    """Raise the error of the first constant out of range or, with
    `biadditive`, of the first whose value has an order that does not
    divide the orders of both its basis elements."""
    k = len(add_group.factors)
    n = add_group.order
    for (i, j), c in constants.items():
        if not (0 <= i < k and 0 <= j < k):
            raise PirickError(f"structure constant key ({i},{j}) out of "
                              f"range for {k} basis elements")
        if not (0 <= c < n):
            raise PirickError(f"structure constant value {c} out of range "
                              f"for order {n}")
        if not biadditive:
            continue
        # For the bilinear extension to be additive, the additive order of
        # b_i * b_j must divide the orders of b_i and of b_j.
        for side in (i, j):
            m = add_group.factors[side]
            if add_group.scale(c, m) != 0:
                b_other = add_group.basis_index(j if side == i else i)
                b_side = add_group.basis_index(side)
                triple = (add_group.scale(b_side, m - 1), b_side, b_other)
                raise NotDistributive(triple)


def _first_true(bits: np.ndarray) -> tuple:
    """Index tuple of the first True entry of a boolean array that has one,
    in row-major order, found without listing the others."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(bits),
                                                  bits.shape))


# entries in one temporary array of a blocked whole-table pass
_BLOCK = 1 << 16


def _row_blocks(count: int, width: int):
    """Slices of range(count) in order, each of at most _BLOCK // width
    items (one at least), for passes that build `width` entries per item."""
    step = max(1, _BLOCK // max(1, width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _first_hits(bits_of, count: int, width: int) -> np.ndarray:
    """For each i < count, the first j with bits[i, j] True, or -1 when
    none is; bits_of(rows) gives the (rows, width) boolean block of bits
    for a slice of the i."""
    out = np.empty(count, dtype=np.int32)
    for rows in _row_blocks(count, width):
        bits = bits_of(rows)
        out[rows] = np.where(bits.any(axis=1), bits.argmax(axis=1), -1)
    return out


def _first_mismatch(lhs: np.ndarray, rhs):
    """Index tuple of the first entry with lhs != rhs, or None."""
    diff = lhs != rhs
    return _first_true(diff) if diff.any() else None


@interned
def _tree_edges(group: FinAbGroup) -> tuple:
    """(src, gen, dst): the edges x -> x + b that `_first_nonadditive`
    checks, in its order.  For each factor f > 1 of stride b come the
    edges of each x below (f - 1)b, then the wrap (f - 1)b -> fb = 0.
    Interned per factors, as read-only intp arrays."""
    parts = []
    for f, b in zip(group.factors, group.strides):
        top = (f - 1) * b
        if top:
            x = np.arange(top + 1)
            parts.append((x, np.full(top + 1, b), np.where(x < top, x + b, 0)))
    return tuple((np.concatenate(parts, axis=1) if parts
                  else np.zeros((3, 0), dtype=np.intp)).astype(np.intp))


def _walk_blocks(group: FinAbGroup, step: int):
    """[lo, hi) in `_tree_edges` of each block of the walk, in order: each
    factor's edges x -> x + b, `step` of them at a time, then its wrap."""
    lo = 0
    for f, b in zip(group.factors, group.strides):
        top = (f - 1) * b
        if top:
            for x in range(0, top, step):
                yield lo + x, lo + min(x + step, top)
            yield lo + top, lo + top + 1
            lo += top + 1


def _first_nonadditive(act: np.ndarray, axis: int, group: FinAbGroup,
                       add: np.ndarray):
    """(x, b, c) for the first edge with table[x + b, c] != table[x, c] +
    table[b, c], or None, where table is act, or act.T when axis is 1: its
    rows are `group`'s elements and `add` adds its values.

    The edges are the mixed-radix tree that `_bilinear_table` walks,
    x -> x + b for each basis element b, of order f, and each x below
    (f - 1)b, plus the wrap (f - 1)b -> fb = 0.  With row 0 zero they make
    every column additive: the tree fixes it as the sum of coordinates
    times table[b], and the wraps say f * table[b] = 0.

    The edges, `_tree_edges`, are interned per factors.  "First" is the
    order of a walk that checks each factor's edges a block of as many
    rows as fit in 2^20 entries at a time, column by column in a block,
    and its wrap after its blocks.  When all the edges fit in _BLOCK
    entries, one gather checks them all, and the first failure is read
    off its mismatch array, a block at a time; a larger table is checked
    one block of the walk to a gather, the rows of a block as views, so
    that it builds no more temporaries than the walk did.
    """
    src, gen, dst = _tree_edges(group)
    width = act.shape[1 - axis]
    step = max(1, (1 << 20) // width)            # rows per block of the walk

    def gather(index):
        """act's rows (axis 0) or columns (axis 1) at index, as an (other
        element, edge) array; a view when index is a slice."""
        return act[index].T if axis == 0 else act[:, index]

    if not len(src):                             # a trivial group
        return None
    spans = ([(0, len(src))] if len(src) * width <= _BLOCK
             else _walk_blocks(group, step))
    for lo, hi in spans:
        x, b, xb = at, by, to = src[lo:hi], gen[lo:hi], dst[lo:hi]
        if b[0] == b[-1]:                        # one factor's edges:
            by = b[:1]            # one row of `add` serves each other element
            if xb[-1]:            # no wrap: x and x + b are runs, read as views
                at, to = slice(x[0], x[-1] + 1), slice(xb[0], xb[-1] + 1)
        bad = add[gather(by), gather(at)] != gather(to)
        if bad.any():
            e = int(bad.any(axis=0).argmax())
            # one factor's edges or its wrap: a block of the walk
            block = np.flatnonzero((b == b[e]) & ((xb == 0) == (xb[e] == 0)))
            c, r = _first_true(bad[:, block])
            return int(x[block[r]]), int(b[block[r]]), c
        del bad                   # so that one block's arrays are live at once
    return None


def _failed_law(act: np.ndarray, ring: FiniteRing, group: FinAbGroup):
    """(law, witness) for the first right-module law that the action table
    `act` of `group` by `ring` breaks, or None.

    The laws, each decided exactly in a time linear in the table: identity
    m*1 = m on every m; distributivity_module (m1+m2)r = m1r + m2r and
    distributivity_ring m(r+s) = mr + ms as row and column 0 being zero,
    then `_first_nonadditive` on the rows and on the columns, one gather
    of the interned tree edges per direction unless the table is wide;
    associativity (mr)s = m(rs) on the basis triples, which decide it once
    act and ring.mul_np are additive in each argument, in one broadcast
    gather whose first failure is the first triple (m, r, s) in order.  A
    ring's multiplication is the action table of its right regular module.
    """
    add_m = group.add_table()
    bad = _first_mismatch(act[:, ring.one], np.arange(act.shape[0]))
    if bad:
        return "identity", (bad[0], ring.one)
    bad = _first_mismatch(act[0], 0)
    if bad:
        return "distributivity_module", (0, 0, bad[0])
    bad = _first_mismatch(act[:, 0], 0)
    if bad:
        return "distributivity_ring", (bad[0], 0, 0)
    bad = _first_nonadditive(act, 0, group, add_m)
    if bad:
        return "distributivity_module", bad
    bad = _first_nonadditive(act, 1, ring.add_group, add_m)
    if bad:
        return "distributivity_ring", (bad[2], bad[0], bad[1])
    m, r = (np.array([g.basis_index(j) for j in range(len(g.factors))])
            for g in (group, ring.add_group))
    m = m[:, None, None]
    # (mr)s and m(rs) at [i, j, l] for the basis triple (m_i, r_j, r_l)
    bad = _first_mismatch(act[act[m, r[:, None]], r],
                          act[m, ring.mul_np[r[:, None], r]])
    if bad:
        return "associativity", (int(m[bad[0], 0, 0]), int(r[bad[1]]),
                                 int(r[bad[2]]))
    return None


_RING_ERRORS = {
    "identity": lambda witness: BadIdentity(witness[0]),
    "associativity": NonAssociative,
    "distributivity_module": NotDistributive,
    "distributivity_ring": NotDistributive,
}


def ring_make(add_group: FinAbGroup, constants: dict, one: int,
              caps: Caps = DEFAULT_CAPS, name: str = "R") -> FiniteRing:
    """Build and fully validate a finite ring from structure constants.

    `constants` maps (i, j) -> element index of (basis_i * basis_j); missing
    pairs default to zero, and zero values are dropped.  `one` is the
    element index of the identity.  The ranges of the constants and of
    `one` are checked on every call; biadditivity, which depends only on
    the nonzero constants, with the table, once per structure.
    """
    caps.gate("construct", "ring construction", add_group.order)
    try:
        _validate_constants(add_group, constants, biadditive=False)
        if not 0 <= one < add_group.order:
            raise PirickError(f"identity index {one} out of range for "
                              f"order {add_group.order}")
    except PirickError:
        # a constant before the failure that is not biadditive fails first
        _validate_constants(add_group, constants)
        raise
    ring = FiniteRing(add_group, int(one),
                      {key: c for key, c in constants.items() if c}, None,
                      name)
    ring.mul_np = _checked_mul(ring)
    return ring


@interned
def _checked_mul(ring: FiniteRing) -> np.ndarray:
    """ring's multiplication table, built from its constants and checked."""
    _validate_constants(ring.add_group, ring.constants)
    ring.mul_np = mul = _bilinear_table(ring.add_group, ring.add_group,
                                        ring.constants)
    bad = _first_mismatch(mul[ring.one, :], np.arange(ring.order))
    if bad:
        raise BadIdentity(*bad)
    failed = _failed_law(mul, ring, ring.add_group)
    if failed:
        law, witness = failed
        raise _RING_ERRORS[law](witness)
    return mul


# ---------------------------------------------------------------------------
# per-ring data, found once per structure
# ---------------------------------------------------------------------------


@interned
def ring_idempotents(ring: FiniteRing) -> np.ndarray:
    """Sorted indices of all elements with e*e == e."""
    idx = np.arange(ring.order, dtype=np.int32)
    diag = ring.mul_np[idx, idx]
    return np.nonzero(diag == idx)[0].astype(np.int32)


@interned
def ring_units(ring: FiniteRing) -> np.ndarray:
    """The boolean mask of the two-sided units, a block of rows at a time."""
    mul, one = ring.mul_np, ring.one
    out = np.empty(ring.order, dtype=bool)
    for rows in _row_blocks(ring.order, ring.order):
        out[rows] = ((mul[rows] == one) & (mul[:, rows].T == one)).any(axis=1)
    return out


@interned
def central_idempotent_scan(ring: FiniteRing) -> tuple:
    """(central, noncentral): the central idempotents in ascending order,
    and (e, f) for the first idempotent e that is not, f being the first
    element with e*f != f*e; noncentral is None when every one is."""
    mul = ring.mul_np
    central, noncentral = [], None
    for e in ring_idempotents(ring).tolist():
        bad = np.flatnonzero(mul[e, :] != mul[:, e])
        if not bad.size:
            central.append(e)
        elif noncentral is None:
            noncentral = (e, int(bad[0]))
    return tuple(central), noncentral


@interned
def jacobson_radical(ring: FiniteRing) -> np.ndarray:
    """Sorted indices of J(R) = {a : 1 - r*a is a unit for every r}, read
    a block of rows r at a time."""
    mul = ring.mul_np
    one_minus = ring.add_group.add_table()[ring.one,
                                          ring.add_group.neg_vector()]
    unit_mask = ring_units(ring)
    in_j = np.ones(ring.order, dtype=bool)
    for rows in _row_blocks(ring.order, ring.order):
        in_j &= unit_mask[one_minus[mul[rows]]].all(axis=0)
    return np.nonzero(in_j)[0].astype(np.int32)


def index_powers(order: int, step, kernel_size) -> np.ndarray:
    """The (order, m) table whose row a holds a, a^2, ..., a^k and then
    -1s, k the first n with kernel_size[a^(n+1)] <= kernel_size[a^n] and m
    the largest k; step(a, a^n) gives a^(n+1) for arrays of rows still
    growing.  Its type is the smallest signed integer type that holds
    -order.  This builds the power table of a ring and of End(M).

    For an endomorphism f of a finite module M, Ker f^n grows with n
    until it stops at some s, and Im f^n shrinks until s too, as
    |Im f^n| * |Ker f^n| = |M|.  By Fitting's lemma M is the direct sum of
    Im f^s, on which f is bijective, and Ker f^s, on which it is nilpotent
    of index s; so s is f's index, the first n with f^n = f^(n+p) for some
    p.  Left multiplication by a ring element a is a faithful endomorphism
    of R_R whose n-th power has kernel r(a^n) = {y : a^n * y == 0}, so
    with kernel size |r(x)| row a ends at a's index k as well.  From k on,
    a^n lies in the group part of <a>: it is regular and strongly
    pi-regular, l(a^n) = R(1 - e) for that group's identity e, and a is
    nilpotent iff a^k = 0.  So every power search resolves within the
    row, at the smallest exponent that it finds on any longer one.

    The comparison is strict: on a table that is not associative the
    sizes need not grow, and a row ends after at most order + 1 terms.
    """
    rows = power = np.arange(order)
    steps = []                            # steps[n]: rows and their a^(n+1)
    while rows.size:
        steps.append((rows, power))
        up = step(rows, power)
        grows = kernel_size[up] > kernel_size[power]
        rows, power = rows[grows], up[grows]
    out = np.full((order, len(steps)), -1, dtype=np.min_scalar_type(-order))
    for n, (rows, power) in enumerate(steps):
        out[rows, n] = power
    return out


@interned
def power_table(ring: FiniteRing) -> np.ndarray:
    """`index_powers` of ring: row a holds a, a^2, ..., a^k, k a's index,
    then -1s, so any exponent search over a^n only needs row a; the
    exponent of column i is i + 1.  a^(n+1) = a^n * a, and the kernel size
    of x is |r(x)|, r(x) = {y : x*y == 0}, the zero count of row x of the
    table, read a block of rows at a time."""
    mul, order = ring.mul_np, ring.order
    zeros = np.empty(order, dtype=np.intp)
    for rows in _row_blocks(order, order):
        zeros[rows] = np.count_nonzero(mul[rows] == 0, axis=1)
    return index_powers(order, lambda a, an: mul[an, a], zeros)


# ---------------------------------------------------------------------------
# ring checks, by name
# ---------------------------------------------------------------------------


def _first_power(powers: np.ndarray, test, elements=None,
                 terms=None) -> Verdict:
    """Whether every a in `elements` (every row by default) has a power
    a^n, among the first `terms` of its row of the power table `powers`
    (all by default), for which test(a, a^n) is a witness w >= 0.

    Row a of `powers` holds the indices of a, a^2, ... and then -1s, as in
    `power_table` for a ring and `homs.EndRing.powers` for End(M).  The
    search is batched: at exponent n, test takes the array of the
    elements a that no smaller exponent resolved and whose rows reach n,
    and the array of their a^n, and returns their witnesses, -1 for none.
    Witnesses a -> (n, w), for the smallest such n, are the arrays
    exponent and witness over all rows, -1 where a has none or is not in
    `elements`; the counterexample is the first a in `elements` with none.
    """
    powers = powers[:, :terms]
    a = (np.arange(len(powers)) if elements is None
         else np.asarray(elements, dtype=np.intp))
    exponent = np.full(len(powers), -1, dtype=np.intp)
    witness = np.full(len(powers), -1, dtype=np.intp)
    live = a
    for n, column in enumerate(powers.T, start=1):
        an = column[live]
        live, an = live[an >= 0], an[an >= 0]
        if not live.size:
            break
        w = test(live, an)
        hit = w >= 0
        exponent[live[hit]], witness[live[hit]] = n, w[hit]
        live = live[~hit]
    failed = exponent[a] < 0
    cex = int(a[np.argmax(failed)]) if failed.any() else None
    return Verdict(cex is None, cex, exponent, witness)


def _no_offender(bad: np.ndarray) -> Verdict:
    """Holds iff no entry of the vector `bad` is True; the counterexample
    is the first element whose entry is."""
    if not bad.any():
        return Verdict(True)
    return Verdict(False, counterexample=int(np.argmax(bad)))


@interned
def _inner_inverses(ring: FiniteRing) -> np.ndarray:
    """For each x, the first y with x*y*x == x, or -1.

    For a block of x, column x of the table gives the z with z*x == x, and
    y qualifies iff x*y is one of them; every read is of whole rows or of
    contiguous runs of columns.
    """
    mul, x = ring.mul_np, np.arange(ring.order)

    def bits(rows):
        fixes = (mul[:, rows] == x[rows]).T       # [i, z]: z * x_i == x_i
        return np.take_along_axis(fixes, mul[rows], axis=1)
    return _first_hits(bits, ring.order, ring.order)


def _pi_regular(ring: FiniteRing, terms: int = None) -> Verdict:
    """Every a has a power a^n, among the first `terms` of its row of the
    power table, and x with a^n*x*a^n == a^n.  Witness: a -> (n, x).  With all terms
    this is pi-regularity, and with terms=1 von Neumann regularity."""
    inverses = _inner_inverses(ring)
    return _first_power(power_table(ring), lambda a, an: inverses[an],
                        terms=terms)


def _strongly_pi_regular(ring: FiniteRing) -> Verdict:
    """Every a has n with a^n in a^(n+1)*R and also some m with a^m in
    R*a^(m+1).

    Both sides are searched for every element, over the one power table.
    The witness is the right side's, a -> (n, x) with a^(n+1)*x == a^n; the
    counterexample is (a, 'right'|'left') for the first a that fails a
    side, 'right' when it fails both.
    """
    mul, order = ring.mul_np, ring.order

    def right(a, an):
        up = mul[a, an]
        return _first_hits(lambda rows: mul[up[rows]] == an[rows, None],
                           len(a), order)

    def left(a, an):
        """0 where some x has x * a^(n+1) == a^n, -1 elsewhere; the x are
        read a block of whole rows at a time, and the left side keeps no
        witness."""
        up = mul[a, an]
        found = np.zeros(len(a), dtype=bool)
        for rows in _row_blocks(order, len(a)):
            found |= (mul[rows][:, up] == an).any(axis=0)
        return np.where(found, 0, -1)

    powers = power_table(ring)
    rv, lv = _first_power(powers, right), _first_power(powers, left)
    if rv.holds and lv.holds:
        return rv
    if lv.holds or not rv.holds and rv.counterexample <= lv.counterexample:
        bad, side = rv.counterexample, "right"
    else:
        bad, side = lv.counterexample, "left"
    return Verdict(False, (bad, side), rv.exponent, rv.witness)


@interned
def left_annihilator_keys(ring: FiniteRing) -> np.ndarray:
    """Row a is the canonical key of l(a) = {r : r*a == 0}: its membership
    flags packed by `np.packbits`, a block of columns at a time."""
    mul, order = ring.mul_np, ring.order
    out = np.empty((order, (order + 7) // 8), dtype=np.uint8)
    for cols in _row_blocks(order, order):
        out[cols] = np.packbits(mul[:, cols] == 0, axis=0).T
    return out


def principal_left_ideal_keys(ring: FiniteRing) -> dict:
    """Map from the key of each R*e, in the form of a row of
    `left_annihilator_keys` as bytes, to every idempotent e generating it,
    in ascending order."""
    out = {}
    for e in ring_idempotents(ring).tolist():
        member = np.zeros(ring.order, dtype=bool)
        member[ring.mul_np[:, e]] = True
        out.setdefault(np.packbits(member).tobytes(), []).append(e)
    return out


@interned
def principal_annihilators(ring: FiniteRing) -> tuple:
    """For each a, the idempotents e with l(a) == R*e in ascending order;
    empty when l(a) is not generated by an idempotent."""
    keys = principal_left_ideal_keys(ring)
    return tuple(tuple(keys.get(key.tobytes(), ()))
                 for key in left_annihilator_keys(ring))


def _gen_left_pp(ring: FiniteRing) -> Verdict:
    """Every a has n >= 1 with l(a^n) == R*e for an idempotent e.

    l(a^n) is the left annihilator {r : r * a^n == 0}.  Witness: a -> (n, e)
    with the smallest exponent first, then the smallest idempotent.
    """
    first = np.array([es[0] if es else -1
                      for es in principal_annihilators(ring)])
    return _first_power(power_table(ring), lambda a, an: first[an])


def nilpotency(ring: FiniteRing, elements) -> Verdict:
    """Whether every a in `elements` is nilpotent.  Witness: a -> (n, 0), n
    its nilpotency index; the counterexample is the first a that is not."""
    return _first_power(power_table(ring),
                        lambda a, an: np.where(an == 0, 0, -1), elements)


def _abelian(ring: FiniteRing) -> Verdict:
    """Every idempotent is central.  Counterexample: (e, f) with e*f != f*e."""
    noncentral = central_idempotent_scan(ring)[1]
    return Verdict(noncentral is None, counterexample=noncentral)


def _no_offending_pair(bits_of, order: int) -> Verdict:
    """Holds iff no (a, b) has bits[a, b] True; the counterexample is the
    first such pair in row-major order.  bits_of(rows) gives the (rows,
    order) boolean block of bits for a slice of the a, so the pass holds
    one block at a time."""
    hits = _first_hits(bits_of, order, order)
    bad = np.flatnonzero(hits >= 0)
    if not bad.size:
        return Verdict(True)
    return Verdict(False, counterexample=(int(bad[0]), int(hits[bad[0]])))


def _commutative(ring: FiniteRing) -> Verdict:
    """a*b == b*a for every a, b.  Counterexample: the first (a, b)."""
    mul = ring.mul_np
    return _no_offending_pair(lambda rows: mul[rows] != mul[:, rows].T,
                              ring.order)


def _domain(ring: FiniteRing) -> Verdict:
    """No nonzero a, b with a*b == 0.  Counterexample: the first (a, b)."""
    mul, nonzero = ring.mul_np, np.arange(ring.order) != 0
    return _no_offending_pair(
        lambda rows: (mul[rows] == 0) & nonzero & nonzero[rows, None],
        ring.order)


RING_CHECKS = {
    "regular": lambda ring: _pi_regular(ring, terms=1),
    "pi_regular": _pi_regular,
    "strongly_pi_regular": _strongly_pi_regular,
    "gen_left_pp": _gen_left_pp,
    # every element of J(R) is nilpotent
    "nil_radical": lambda ring: nilpotency(ring, jacobson_radical(ring)),
    "commutative": _commutative,
    # no nonzero nilpotent, that is, no nonzero a with a*a == 0
    "reduced": lambda ring: _no_offender(
        (np.diagonal(ring.mul_np) == 0) & (np.arange(ring.order) != 0)),
    "abelian": _abelian,
    "domain": _domain,
    # every non-unit lies in J(R)
    "local": lambda ring: _no_offender(
        ~ring_units(ring)
        & ~np.isin(np.arange(ring.order), jacobson_radical(ring))),
    # every nonzero element is a unit
    "division": lambda ring: _no_offender(
        ~ring_units(ring) & (np.arange(ring.order) != 0)),
}


@interned
def ring_check(ring: FiniteRing, name: str) -> Verdict:
    """The Verdict of the ring check `name`, a key of RING_CHECKS, found
    once per ring structure."""
    return RING_CHECKS[name](ring)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def corner_ring(ring: FiniteRing, e: int, caps: Caps = DEFAULT_CAPS,
                name: str = None):
    """The corner ring e*R*e with identity e.

    Returns (corner, to_parent) where to_parent[i] is the parent-ring index
    of corner element i.
    """
    mul = ring.mul_np
    if mul[e, e] != e:
        raise NotIdempotent(e)
    add = ring.add_group.add_table()
    elems = np.flatnonzero(np.bincount(mul[mul[e, :], e]))     # of eRe
    group, from_label, to_index, basis = group_embedding(
        elems, lambda x, y: add[x, y])
    products = to_index[mul[basis[:, None], basis]]
    constants = {(i, j): c for i, row in enumerate(products.tolist())
                 for j, c in enumerate(row)}
    if name is None:
        name = f"{ring.name}_c{e}"
    corner = ring_make(group, constants, int(to_index[e]), caps, name)
    return corner, tuple(from_label.tolist())


def _matrix_like_ring(ring: FiniteRing, positions: list, k: int,
                      caps: Caps, name: str) -> FiniteRing:
    """Ring of k x k matrices over `ring` supported on `positions`.

    positions is a list of (row, col) pairs closed under the matrix product
    pattern (row1, col2) whenever col1 == row2.
    """
    base = ring.add_group
    kb = len(base.factors)
    caps.gate("construct", f"matrix ring over {ring.name}",
              ring.order ** len(positions))
    factors = []
    for _ in positions:
        factors.extend(base.factors)
    group = FinAbGroup(factors)
    pos_index = {pq: s for s, pq in enumerate(positions)}

    def embed(slot: int, parent_elt: int) -> int:
        coords = [0] * len(factors)
        for t, c in enumerate(base.tuple_of(parent_elt)):
            coords[slot * kb + t] = c
        return group.index_of(coords)

    constants = {}
    for s1, (p1, q1) in enumerate(positions):
        for s2, (p2, q2) in enumerate(positions):
            if q1 != p2:
                continue
            target = pos_index.get((p1, q2))
            if target is None:
                raise PirickError(f"matrix positions not closed: "
                                  f"({p1},{q1})*({p2},{q2})")
            for (m1, m2), c in ring.constants.items():
                constants[(s1 * kb + m1, s2 * kb + m2)] = embed(target, c)
    one_coords = [0] * len(factors)
    one_tuple = base.tuple_of(ring.one)
    for s, (p, q) in enumerate(positions):
        if p == q:
            for t, c in enumerate(one_tuple):
                one_coords[s * kb + t] = c
    return ring_make(group, constants, group.index_of(one_coords), caps, name)


def matrix_ring(ring: FiniteRing, k: int, caps: Caps = DEFAULT_CAPS,
                name: str = None) -> FiniteRing:
    """Full k x k matrix ring over `ring`."""
    positions = [(p, q) for p in range(k) for q in range(k)]
    if name is None:
        name = f"m{k}{ring.name}"
    return _matrix_like_ring(ring, positions, k, caps, name)


def triangular_ring(ring: FiniteRing, k: int, caps: Caps = DEFAULT_CAPS,
                    name: str = None) -> FiniteRing:
    """Upper-triangular k x k matrix ring over `ring`."""
    positions = [(p, q) for p in range(k) for q in range(k) if p <= q]
    if name is None:
        name = f"t{k}{ring.name}"
    return _matrix_like_ring(ring, positions, k, caps, name)


def product_ring(r1: FiniteRing, r2: FiniteRing, caps: Caps = DEFAULT_CAPS,
                 name: str = None) -> FiniteRing:
    """Direct product r1 x r2 with componentwise operations."""
    k1 = len(r1.add_group.factors)
    k2 = len(r2.add_group.factors)
    group = FinAbGroup(r1.add_group.factors + r2.add_group.factors)

    def embed1(e):
        return group.index_of(r1.add_group.tuple_of(e) + (0,) * k2)

    def embed2(e):
        return group.index_of((0,) * k1 + r2.add_group.tuple_of(e))

    constants = {(i, j): embed1(c) for (i, j), c in r1.constants.items()}
    for (i, j), c in r2.constants.items():
        constants[(k1 + i, k1 + j)] = embed2(c)
    one = group.index_of(r1.add_group.tuple_of(r1.one)
                         + r2.add_group.tuple_of(r2.one))
    if name is None:
        name = f"{r1.name}x{r2.name}"
    return ring_make(group, constants, one, caps, name)
