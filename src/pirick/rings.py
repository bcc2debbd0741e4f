"""Finite associative rings with identity, as explicit tables.

A FiniteRing is a FinAbGroup plus multiplication.  Multiplication is given
by structure constants on the additive basis, with zero values dropped, and
extended bilinearly to a full (order x order) table by row recurrence.
The table is checked for 1*a = a and then, by `_failed_law`, as the
action table of the ring's right regular module (a*1 = a, associativity, both distributive laws).
`_bilinear_table` and `_failed_law` also build and check every module's
action table.  Each table is built and checked once per structure and caps
in a process (the intern table `caps.INTERNED`); each ring_make call returns
a new ring with its own name that shares it, and the per-ring data below
(idempotents, units, J(R), ring checks) is found once per structure.
Elements are the group's integer indices, so every ring-theoretic scan
below is a vectorized numpy pass over tables.

Also here: the ring checks, one table `RING_CHECKS` from a name to a
function returning a Verdict, read through `ring_check(ring, name)`.  The
checks of the form "every a has a power a^n with property P" (regular,
pi_regular, strongly_pi_regular, gen_left_pp, nil_radical) are one search
over power trails, `_first_power`; the classical predicates (commutative,
reduced, abelian, domain, local, division) report their first offender.
Then the Jacobson radical, and ring constructions (corner, matrix,
triangular, product).
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .caps import Caps, DEFAULT_CAPS, INTERNED, interned
from .errors import (BadIdentity, NonAssociative, NotDistributive,
                     NotIdempotent, PirickError, SizeCapExceeded)
from .groups import FinAbGroup, group_embedding

_RNG_SEED = 20260814
_RANDOM_TRIPLES = 10_000


@dataclasses.dataclass
class Verdict:
    """Outcome of a property decision.

    holds:          whether the property holds.
    witnesses:      per-element (or per-map) certificates when it holds.
    counterexample: a concrete failing element/tuple when it does not.
    """

    holds: bool
    witnesses: dict = dataclasses.field(default_factory=dict)
    counterexample: object = None


class FiniteRing:
    """An associative unital ring on a FinAbGroup, with full tables; rings
    of one structure `key` share mul_np."""

    __slots__ = ("add_group", "one", "constants", "key", "name", "mul_np")

    def __init__(self, add_group, one, constants, mul_np, name):
        self.add_group = add_group
        self.one = one
        self.constants = constants
        self.key = (add_group.factors, one, tuple(sorted(constants.items())))
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
    table of (G, G), a module's action the table of (M, R).  The basis
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
    out = np.empty((left.order, right.order), dtype=np.int32)
    out[0] = 0
    for f, s, row in zip(reversed(left.factors), reversed(left.strides),
                         basis_rows[::-1]):
        for c in range(1, f):
            out[c * s:(c + 1) * s] = add[out[(c - 1) * s:c * s], row]
    return out


def _validate_constants(add_group: FinAbGroup, constants: dict):
    k = len(add_group.factors)
    n = add_group.order
    for (i, j), c in constants.items():
        if not (0 <= i < k and 0 <= j < k):
            raise PirickError(f"structure constant key ({i},{j}) out of "
                              f"range for {k} basis elements")
        if not (0 <= c < n):
            raise PirickError(f"structure constant value {c} out of range "
                              f"for order {n}")
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


def _first_mismatch(lhs: np.ndarray, rhs: np.ndarray, sampled=None):
    """Index tuple of the first entry with lhs != rhs, or None.

    For a sampled check, lhs and rhs run over the samples and `sampled`
    holds one index array per coordinate; the tuple is read from those.
    """
    diff = lhs != rhs
    if not diff.any():
        return None
    first = _first_true(diff)
    if sampled is None:
        return first
    return tuple(int(arr[first[0]]) for arr in sampled)


def _draw(seed: int, *bounds) -> tuple:
    """_RANDOM_TRIPLES random indices below each bound, drawn in order."""
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, bound, size=_RANDOM_TRIPLES)
                 for bound in bounds)


def _failed_law(act: np.ndarray, ring: FiniteRing, group: FinAbGroup,
                caps: Caps):
    """(law, witness) for the first right-module law that the action table
    `act` of `group` by `ring` breaks, or None.

    The laws, in order: identity m*1 = m, associativity (mr)s = m(rs),
    distributivity_module (m1+m2)r = m1r + m2r and distributivity_ring
    m(r+s) = mr + ms.  A law is checked on every triple while it has at
    most caps.scan**3 of them.  Above that it is checked on _RANDOM_TRIPLES
    seeded random triples, and associativity first on every basis triple,
    which suffices for a table built bilinearly.  A ring's multiplication
    is the action table of its right regular module.
    """
    mul = ring.mul_np
    add_m = group.add_table()
    add_r = ring.add_group.add_table()
    n_m, n_r = act.shape
    bad = _first_mismatch(act[:, ring.one], np.arange(n_m))
    if bad:
        return "identity", (bad[0], ring.one)
    if n_m * n_r * n_r > caps.scan ** 3:
        basis_m = [group.basis_index(j) for j in range(len(group.factors))]
        basis_r = [ring.add_group.basis_index(i)
                   for i in range(len(ring.add_group.factors))]
        for m, r, s in itertools.product(basis_m, basis_r, basis_r):
            if act[act[m, r], s] != act[m, mul[r, s]]:
                return "associativity", (int(m), int(r), int(s))
    # each law: its name, the bounds of its triples, and its two sides on
    # every triple and on index arrays of sampled triples
    laws = (
        ("associativity", (n_m, n_r, n_r),
         lambda: (act[act, :], act[:, mul]),
         lambda m, r, s: (act[act[m, r], s], act[m, mul[r, s]])),
        ("distributivity_module", (n_m, n_m, n_r),
         lambda: (act[add_m, :], add_m[act[:, None, :], act[None, :, :]]),
         lambda m1, m2, r: (act[add_m[m1, m2], r],
                            add_m[act[m1, r], act[m2, r]])),
        ("distributivity_ring", (n_m, n_r, n_r),
         lambda: (act[:, add_r], add_m[act[:, :, None], act[:, None, :]]),
         lambda m, r, s: (act[m, add_r[r, s]],
                          add_m[act[m, r], act[m, s]])),
    )
    for seed, (law, bounds, every, at) in enumerate(laws):
        if math.prod(bounds) <= caps.scan ** 3:
            sampled = None
            lhs, rhs = every()
        else:
            sampled = _draw(_RNG_SEED + seed, *bounds)
            lhs, rhs = at(*sampled)
        bad = _first_mismatch(lhs, rhs, sampled)
        if bad:
            return law, bad
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
    element index of the identity.
    """
    if add_group.order > caps.construct:
        raise SizeCapExceeded("ring construction", add_group.order,
                              caps.construct)
    _validate_constants(add_group, constants)
    if not 0 <= one < add_group.order:
        raise PirickError(f"identity index {one} out of range for order "
                          f"{add_group.order}")
    ring = FiniteRing(add_group, int(one),
                      {key: c for key, c in constants.items() if c}, None,
                      name)
    ring.mul_np = INTERNED.get_or_build("ring", ring.key, caps,
                                        lambda: _checked_mul(ring, caps))
    return ring


def _checked_mul(ring: FiniteRing, caps: Caps) -> np.ndarray:
    """ring's multiplication table, built from its constants and checked."""
    ring.mul_np = mul = _bilinear_table(ring.add_group, ring.add_group,
                                        ring.constants)
    bad = _first_mismatch(mul[ring.one, :], np.arange(ring.order))
    if bad:
        raise BadIdentity(*bad)
    failed = _failed_law(mul, ring, ring.add_group, caps)
    if failed:
        law, witness = failed
        raise _RING_ERRORS[law](witness)
    mul.flags.writeable = False
    return mul


# ---------------------------------------------------------------------------
# per-ring data, found once per structure
# ---------------------------------------------------------------------------


@interned
def ring_neg(ring: FiniteRing) -> np.ndarray:
    return ring.add_group.neg_vector()


@interned
def ring_idempotents(ring: FiniteRing) -> np.ndarray:
    """Sorted indices of all elements with e*e == e."""
    idx = np.arange(ring.order, dtype=np.int32)
    diag = ring.mul_np[idx, idx]
    return np.nonzero(diag == idx)[0].astype(np.int32)


@interned
def ring_units(ring: FiniteRing) -> np.ndarray:
    """The boolean mask of the two-sided units."""
    mul = ring.mul_np
    return ((mul == ring.one) & (mul.T == ring.one)).any(axis=1)


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


def nontrivial_idempotents(ring: FiniteRing) -> list:
    """The idempotents other than 0 and 1, in ascending order."""
    return [e for e in ring_idempotents(ring).tolist()
            if e not in (0, ring.one)]


@interned
def jacobson_radical(ring: FiniteRing) -> np.ndarray:
    """Sorted indices of J(R) = {a : 1 - r*a is a unit for every r}."""
    mul = ring.mul_np
    add = ring.add_group.add_table()
    neg = ring_neg(ring)
    unit_mask = ring_units(ring)
    candidates = add[ring.one, neg[mul]]     # [r, a] -> 1 - r*a
    in_j = unit_mask[candidates].all(axis=0)
    return np.nonzero(in_j)[0].astype(np.int32)


def power_trail(ring: FiniteRing, a: int) -> list:
    """Distinct powers [a, a^2, ..., a^m] up to the first repeated value.

    Every positive power of `a` equals one of these, so any exponent search
    over a^n only needs the trail; the exponent of trail[i] is i + 1.
    """
    mul = ring.mul_np
    trail = [int(a)]
    seen = {int(a)}
    cur = int(a)
    while True:
        cur = int(mul[cur, a])
        if cur in seen:
            return trail
        seen.add(cur)
        trail.append(cur)


# ---------------------------------------------------------------------------
# ring checks, by name
# ---------------------------------------------------------------------------


def _first_power(ring: FiniteRing, test, elements=None,
                 terms=None) -> Verdict:
    """Whether every a in `elements` (all of R by default) has a power a^n,
    among the first `terms` of its power trail (all by default), for which
    test(a, a^n) returns a witness w other than None.

    Witnesses map a -> (n, w) for the smallest such n; the counterexample
    is the first a with none.
    """
    witnesses = {}
    for a in range(ring.order) if elements is None else elements:
        found = next(((n, w) for n, an in
                      enumerate(power_trail(ring, a)[:terms], start=1)
                      if (w := test(a, an)) is not None), None)
        if found is None:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = found
    return Verdict(True, witnesses)


def _no_offender(bad: np.ndarray) -> Verdict:
    """Holds iff no entry of `bad` is True; the counterexample is the first
    True entry, an element for a vector and a pair for a matrix."""
    if not bad.any():
        return Verdict(True)
    first = _first_true(bad)
    return Verdict(False, counterexample=first if bad.ndim > 1 else first[0])


def _first_hit(bits: np.ndarray):
    """Index of the first True entry of a boolean vector, or None."""
    return int(np.argmax(bits)) if bits.any() else None


def _pi_regular(ring: FiniteRing, terms: int = None) -> Verdict:
    """Every a has a power a^n, among the first `terms` of its power trail,
    and x with a^n*x*a^n == a^n.  Witness: a -> (n, x).  With all terms
    this is pi-regularity, and with terms=1 von Neumann regularity."""
    mul = ring.mul_np
    return _first_power(ring, lambda a, an: _first_hit(mul[mul[an], an] == an),
                        terms=terms)


def _strongly_pi_regular(ring: FiniteRing) -> Verdict:
    """Every a has n with a^n in a^(n+1)*R and also some m with a^m in
    R*a^(m+1).

    Both sides are searched for every element.  The witness is the right
    side's, a -> (n, x) with a^(n+1)*x == a^n; the counterexample is
    (a, 'right'|'left') for the first a that fails a side, 'right' when it
    fails both.
    """
    mul = ring.mul_np
    rv = _first_power(ring, lambda a, an: _first_hit(mul[mul[a, an]] == an))
    lv = _first_power(ring,
                      lambda a, an: _first_hit(mul[:, mul[a, an]] == an))
    if rv.holds and lv.holds:
        return rv
    if lv.holds or not rv.holds and rv.counterexample <= lv.counterexample:
        bad, side = rv.counterexample, "right"
    else:
        bad, side = lv.counterexample, "left"
    return Verdict(False, {a: w for a, w in rv.witnesses.items() if a < bad},
                   counterexample=(bad, side))


def left_annihilator_key(ring: FiniteRing, a: int) -> bytes:
    """Canonical key for the set {r : r*a == 0}."""
    return np.packbits(ring.mul_np[:, a] == 0).tobytes()


@interned
def principal_left_ideal_keys(ring: FiniteRing) -> dict:
    """Map from the key of each R*e, in the form of `left_annihilator_key`,
    to every idempotent e generating it, in ascending order."""
    out = {}
    for e in ring_idempotents(ring).tolist():
        member = np.zeros(ring.order, dtype=bool)
        member[ring.mul_np[:, e]] = True
        out.setdefault(np.packbits(member).tobytes(), []).append(e)
    return out


def _gen_left_pp(ring: FiniteRing) -> Verdict:
    """Every a has n >= 1 with l(a^n) == R*e for an idempotent e.

    l(a^n) is the left annihilator {r : r * a^n == 0}.  Witness: a -> (n, e)
    with the smallest exponent first, then the smallest idempotent.
    """
    keys = principal_left_ideal_keys(ring)
    return _first_power(ring, lambda a, an: keys.get(
        left_annihilator_key(ring, an), [None])[0])


def _nil_radical(ring: FiniteRing) -> Verdict:
    """Every element of J(R) is nilpotent.  Witness: a -> (n, 0), n its
    nilpotency index."""
    return _first_power(ring, lambda a, an: 0 if an == 0 else None,
                        jacobson_radical(ring).tolist())


def _abelian(ring: FiniteRing) -> Verdict:
    """Every idempotent is central.  Counterexample: (e, f) with e*f != f*e."""
    noncentral = central_idempotent_scan(ring)[1]
    return Verdict(noncentral is None, counterexample=noncentral)


def _domain(ring: FiniteRing) -> Verdict:
    """No nonzero a, b with a*b == 0.  Counterexample: the first (a, b)."""
    zero = ring.mul_np == 0
    zero[0, :] = zero[:, 0] = False
    return _no_offender(zero)


RING_CHECKS = {
    "regular": lambda ring: _pi_regular(ring, terms=1),
    "pi_regular": _pi_regular,
    "strongly_pi_regular": _strongly_pi_regular,
    "gen_left_pp": _gen_left_pp,
    "nil_radical": _nil_radical,
    "commutative": lambda ring: _no_offender(ring.mul_np != ring.mul_np.T),
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
    products = to_index[mul[np.ix_(basis, basis)]]
    constants = {(i, j): int(c) for (i, j), c in np.ndenumerate(products)}
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
    total_order = ring.order ** len(positions)
    if total_order > caps.construct:
        raise SizeCapExceeded(f"matrix ring over {ring.name}", total_order,
                              caps.construct)
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
