"""Finite abelian groups with fixed coordinates.

A FinAbGroup is a product of cyclic groups Z_{n1} x ... x Z_{nk}.  Elements
are integer indices 0 .. order-1 in lexicographic order of their coordinate
tuples (index 0 is always the zero element), which keeps every downstream
table (addition, multiplication, module action) a plain numpy array indexed
by small ints.  Every table of element indices, here and in the rings,
modules and hom sets built on a group, has the type `index_dtype(order)`.

The module also provides `group_embedding`: given a finite abelian group as
a sorted array of integer labels and an addition that works on whole label
arrays, it finds a cyclic decomposition in one greedy pass and re-presents
the group as a FinAbGroup, with the label of each index, the index of each
label and the labels of the basis.  This is how endomorphism rings, corner
rings, quotient modules and submodule modules acquire coordinates.  The
pass has two paths with one result: up to SMALL_GROUP = 64 elements, where
most of these groups are and a NumPy call costs more than the arithmetic
it does, it asks `add` once for the whole table and walks it in Python
lists; above, it adds whole arrays at each step.  The measured crossover
is at SMALL_GROUP.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .caps import interned
from .errors import EmptyFactorList, PirickError, ZeroFactor


def index_dtype(order: int) -> np.dtype:
    """The type of every table whose entries are indices of the elements
    of a structure of this order: the smallest unsigned integer type that
    holds order - 1, uint8 up to 256 elements and uint16 up to 65,536.

    NumPy keeps that type when a Python int joins the arithmetic (NEP 50),
    so 255 + 1 is 0 in uint8: every sum, product, remainder or key computed
    from the entries widens them first."""
    return np.min_scalar_type(order - 1)


class FinAbGroup:
    """Z_{n1} x ... x Z_{nk} with elements indexed lexicographically.

    Its key is its factors, so its add table, coordinates and negation,
    all `interned`, are built once per factors in a process."""

    __slots__ = ("factors", "order", "strides", "key")

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(n) for n in factors)
        if not factors:
            raise EmptyFactorList("a group needs at least one cyclic factor")
        for n in factors:
            if n < 1:
                raise ZeroFactor(f"cyclic factor {n} is not a positive integer")
        self.factors = self.key = factors
        self.order = math.prod(factors)
        self.strides = tuple(math.prod(factors[i + 1:])
                             for i in range(len(factors)))

    # -- element <-> index ------------------------------------------------

    def tuple_of(self, index: int) -> tuple:
        """Coordinate tuple of the element with the given index."""
        coords = []
        for n, s in zip(self.factors, self.strides):
            coords.append((index // s) % n)
        return tuple(coords)

    def index_of(self, coords: Sequence[int]) -> int:
        """Index of the element with the given coordinates (reduced mod n_i)."""
        idx = 0
        for c, n, s in zip(coords, self.factors, self.strides):
            idx += (int(c) % n) * s
        return idx

    def basis_index(self, j: int) -> int:
        """Index of the j-th standard generator (1 in slot j, 0 elsewhere)."""
        if self.factors[j] == 1:
            return 0
        return self.strides[j]

    # -- arithmetic --------------------------------------------------------

    def scale(self, i: int, k: int) -> int:
        return self.index_of(k * x for x in self.tuple_of(i))

    # -- bulk tables -------------------------------------------------------

    @interned
    def coords_matrix(self) -> np.ndarray:
        """(order, k) int64 matrix whose row i is tuple_of(i)."""
        n = self.order
        k = len(self.factors)
        mat = np.empty((n, k), dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        for j, (f, s) in enumerate(zip(self.factors, self.strides)):
            mat[:, j] = (idx // s) % f
        return mat

    @interned
    def add_table(self) -> np.ndarray:
        """(order, order) table T, of type index_dtype(order), with T[i, j]
        the index of element i + j, by a mixed-radix row recurrence: row
        p + basis_j is row p gathered by the permutation q -> q + basis_j,
        a block of rows at a time."""
        n = self.order
        idx = np.arange(n)
        out = np.empty((n, n), dtype=index_dtype(n))
        out[0] = idx
        for f, s in zip(reversed(self.factors), reversed(self.strides)):
            plus = idx + s - np.where(idx // s % f == f - 1, f * s, 0)
            for c in range(1, f):         # "clip" writes to out unbuffered
                np.take(out[(c - 1) * s:c * s], plus, axis=1,
                        out=out[c * s:(c + 1) * s], mode="clip")
        return out

    @interned
    def neg_vector(self) -> np.ndarray:
        """(order,) vector of type index_dtype(order) mapping each index to
        the index of its negative."""
        coords = self.coords_matrix()
        facs = np.array(self.factors, dtype=np.int64)
        strides = np.array(self.strides, dtype=np.int64)
        return (((-coords) % facs) * strides).sum(axis=1) \
            .astype(index_dtype(self.order))

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FinAbGroup{self.factors}"


# Up to this many elements `group_embedding` walks one position table of
# the addition in Python lists; above it, it makes whole-array NumPy passes.
# The crossover, per call on FinAbGroup add tables (best of 9 on one CPU of
# a 2 vCPU shared VM, Python 3.11, NumPy 2.4), NumPy path vs list path:
# 64 elements, 121 vs 75 us on Z_4^3 and 533 vs 205 on Z_64; 81 elements,
# 120-185 vs 105-172 on Z_3^4; 128 elements, 150 vs 235 on Z_2^7 and 184 vs
# 290 on Z_4^2 x Z_8; 256 elements, 204 vs 1,073 on Z_4^4.  The list path
# wins on every group up to 64 elements; on cyclic groups, where the NumPy
# path takes one step per multiple, it wins further.
SMALL_GROUP = 64


def group_embedding(labels: np.ndarray, add: Callable) -> tuple:
    """Re-present a finite abelian group, given by labels, as a FinAbGroup.

    `labels` is a sorted integer array whose first entry is the zero label,
    and `add(x, y)` adds two label arrays elementwise, broadcasting them as
    NumPy operators do.  Returns (group, from_label, to_index, basis):
    from_label[i] is the label of index i, to_index[label] the index of a
    label, and basis[j] the label of the j-th standard generator.

    The cyclic factors come from one greedy pass: take the first label, by
    largest order and then earliest position, whose cyclic subgroup meets the
    span H of the labels taken so far only in 0.  The pass never needs to
    backtrack: if H (+) K = G and g = h + k has the largest such order, then
    ord(k) = ord(g) = exp(K), so <k> is a summand of K and H + <g> =
    H (+) <k> is again a summand of G.

    Two paths run the same pass.  Up to SMALL_GROUP elements,
    `_small_span` calls `add` once, on every pair, and walks the table of
    positions in Python lists.  Above it, the pass below adds whole arrays
    of positions at each step, so its cost is a few NumPy calls per step
    rather than per element.  Both give the same result, and the same
    PirickError on an input that is not an abelian group.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    position = np.zeros(labels[-1] + 1, dtype=np.int64)
    position[labels] = np.arange(n)
    if n <= SMALL_GROUP:
        return _embedding(labels, *_small_span(labels, position, add))

    def plus(i, j):                      # positions in labels, elementwise
        return position[add(labels[i], labels[j])]

    # additive orders by repeated addition, position 0 being zero
    orders = np.ones(n, dtype=np.int64)
    multiple = np.arange(n)
    live = np.arange(1, n)
    while live.size:
        if orders[live[0]] >= n:
            raise _not_a_group(int(labels[live[0]]))
        multiple[live] = plus(multiple[live], live)
        orders[live] += 1
        live = live[multiple[live] != 0]

    rank = np.argsort(-orders[1:], kind="stable") + 1
    in_span = np.zeros(n, dtype=bool)
    in_span[0] = True
    span = np.zeros(1, dtype=np.int64)
    factors = []
    while span.size < n:
        # candidates whose multiples a*c, 0 < a < ord(c), all miss the span
        # (every candidate, while the span is {0})
        cand = rank[~in_span[rank]]
        ok = np.ones(cand.size, dtype=bool)
        idx, mult, a = np.arange(cand.size), cand, 1
        while idx.size and span.size > 1:
            ok[idx[in_span[mult]]] = False
            a += 1
            keep = ok[idx] & (orders[cand[idx]] > a)
            idx = idx[keep]
            mult = plus(mult[keep], cand[idx])
        if not ok.any():
            raise _not_abelian()
        g = int(cand[np.argmax(ok)])
        cosets = [span]
        for _ in range(1, int(orders[g])):
            cosets.append(plus(cosets[-1], np.full(span.size, g)))
        span = np.stack(cosets, axis=1).ravel()
        in_span[span] = True
        factors.append(int(orders[g]))
    if span.size != n or not np.array_equal(np.sort(span), np.arange(n)):
        raise _not_abelian()
    return _embedding(labels, span, factors)


def _embedding(labels: np.ndarray, span, factors: list) -> tuple:
    """group_embedding's result from the greedy pass: span[i] is the
    position in labels of index i, and factors the cyclic factors."""
    group = FinAbGroup(factors or (1,))
    from_label = labels[span]
    to_index = np.zeros(labels[-1] + 1, dtype=np.int64)
    to_index[from_label] = np.arange(len(labels))
    basis = from_label[[group.basis_index(j)
                        for j in range(len(group.factors))]]
    return group, from_label, to_index, basis


def _not_a_group(label) -> PirickError:
    return PirickError(f"element {label} has no finite order reaching zero; "
                       "input is not a group")


def _not_abelian() -> PirickError:
    return PirickError("cyclic decomposition failed; input is not an "
                       "abelian group")


def _small_span(labels: np.ndarray, position: np.ndarray,
                add: Callable) -> tuple:
    """(span, factors) of the greedy pass over a list table of positions:
    span[i] is the position of the label of index i."""
    n = len(labels)
    table = position[add(labels[:, None], labels[None, :])].tolist()
    orders = [1] * n
    for x in range(1, n):
        multiple = x
        while multiple:
            if orders[x] >= n:
                raise _not_a_group(int(labels[x]))
            multiple = table[multiple][x]
            orders[x] += 1
    rank = sorted(range(1, n), key=lambda x: -orders[x])
    in_span = [True] + [False] * (n - 1)
    span, factors = [0], []
    while len(span) < n:
        g = next((c for c in rank if not in_span[c] and (
            len(span) == 1 or _meets_only_zero(table, in_span, c, orders[c]))),
            None)
        if g is None:
            raise _not_abelian()
        cosets = []                      # x, x + g, x + 2g, ... for each x
        for x in span:
            for _ in range(orders[g]):
                cosets.append(x)
                x = table[x][g]
        span = cosets
        for x in span:
            in_span[x] = True
        factors.append(orders[g])
    if len(span) != n or sorted(span) != list(range(n)):
        raise _not_abelian()
    return span, factors


def _meets_only_zero(table: list, in_span: list, g: int, order: int) -> bool:
    """Whether no multiple a*g, 0 < a < order, lies in the span."""
    multiple = g
    for _ in range(1, order):
        if in_span[multiple]:
            return False
        multiple = table[multiple][g]
    return True
