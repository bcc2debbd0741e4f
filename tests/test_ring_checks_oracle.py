"""Differential test: every ring check of `rings.RING_CHECKS` against the
loops it replaced, kept here only as oracles.

The oracles are the five per-property power searches (regular, pi-regular,
strongly pi-regular, generalized left pp, nil radical) and the one
`ring_predicates` pass over the six classical predicates.  Each check must
agree with its oracle in (holds, witnesses, counterexample).  `regular` and
`nil_radical` now share the power search's witness shape a -> (n, w): the
oracle's x and n are compared as (1, x) and (n, 0).  The oracles walk the
powers of each element one term at a time and pack each left annihilator
from its column, with their own copies of the walk and the key (`trail`,
`key`), so they do not read `rings.power_table` or
`rings.left_annihilator_keys`, which the checks read and which are
compared with those copies too.  `trail` ends at the index, the rule of
`rings.index_powers`; `first_repeat`, the walk to the first repeated power
that the package used before, is kept as a second oracle: on a valid ring
its row of a is longer by a's period minus 1, and the oracles give the
same results over either walk.

Hypothesis draws two kinds of input: valid rings (Z/n, products, corners,
and 2x2 triangular and matrix rings, of order at most 81), and raw
FiniteRing objects over arbitrary tables, built without `ring_make`.  A
finite ring is always pi-regular, strongly pi-regular and has a nil
radical, so only the raw tables reach those checks' failure branches.  A
raw ring's structure key holds its table's bytes, so the per-ring data
that the checks intern (idempotents, units, J(R)) is its own.

Five mutants must be caught: a search that reads one term of each row,
a power table that ends each row one step early, one that runs each row
one step late, one whose padding is read as a term, and a key table with
one column flipped.  The early and the late row are also caught on the
corpus rings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import rings
from pirick.caps import caps_from_env
from pirick.families import zmod
from pirick.groups import FinAbGroup
from pirick.rings import (RING_CHECKS, FiniteRing, Verdict,
                          central_idempotent_scan, corner_ring,
                          jacobson_radical, left_annihilator_key,
                          matrix_ring, principal_left_ideal_keys,
                          product_ring, ring_check, ring_idempotents,
                          ring_units, triangular_ring)

CAPS = caps_from_env()


# ---------------------------------------------------------------------------
# the oracles: the loops as they were before RING_CHECKS
# ---------------------------------------------------------------------------


def first_repeat(ring, a: int) -> list:
    """Distinct powers [a, a^2, ..., a^m] up to the first repeated value,
    one term at a time: the package's power trail before rows ended at the
    index, m being a's index plus its period minus 1."""
    mul = ring.mul_np
    out = [int(a)]
    seen = {int(a)}
    cur = int(a)
    while True:
        cur = int(mul[cur, a])
        if cur in seen:
            return out
        seen.add(cur)
        out.append(cur)


def trail(ring, a: int) -> list:
    """The powers [a, a^2, ..., a^k], one term at a time, a^(n+1) = a^n * a:
    k is the first n with |r(a^(n+1))| <= |r(a^n)|, r(x) = {y : x*y == 0}
    counted along row x of the table.  On a valid ring k is a's index."""
    mul = ring.mul_np

    def size(x):
        return int(np.count_nonzero(mul[x] == 0))
    out = [int(a)]
    while True:
        up = int(mul[out[-1], a])
        if size(up) <= size(out[-1]):
            return out
        out.append(up)


def key(ring, a: int) -> bytes:
    """The packed key of {r : r*a == 0}, from column a alone:
    `rings.left_annihilator_key` as it was before the key table."""
    return np.packbits(ring.mul_np[:, a] == 0).tobytes()


def oracle_regular(ring):
    mul = ring.mul_np
    witnesses = {}
    for a in range(ring.order):
        hits = np.nonzero(mul[mul[a, :], a] == a)[0]
        if hits.size == 0:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = int(hits[0])
    return Verdict(True, witnesses)


def oracle_pi_regular(ring, walk=trail):
    mul = ring.mul_np
    witnesses = {}
    for a in range(ring.order):
        found = None
        for pos, an in enumerate(walk(ring, a)):
            hits = np.nonzero(mul[mul[an, :], an] == an)[0]
            if hits.size:
                found = (pos + 1, int(hits[0]))
                break
        if found is None:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = found
    return Verdict(True, witnesses)


def oracle_strongly_pi_regular(ring, walk=trail):
    mul = ring.mul_np
    witnesses = {}
    for a in range(ring.order):
        right = None
        left_ok = False
        for pos, an in enumerate(walk(ring, a)):
            an1 = int(mul[a, an])
            if right is None:
                hits = np.nonzero(mul[an1, :] == an)[0]
                if hits.size:
                    right = (pos + 1, int(hits[0]))
            if not left_ok and (mul[:, an1] == an).any():
                left_ok = True
            if right is not None and left_ok:
                break
        if right is None:
            return Verdict(False, witnesses, counterexample=(a, "right"))
        if not left_ok:
            return Verdict(False, witnesses, counterexample=(a, "left"))
        witnesses[a] = right
    return Verdict(True, witnesses)


def oracle_gen_left_pp(ring, walk=trail):
    keys = principal_left_ideal_keys(ring)
    witnesses = {}
    for a in range(ring.order):
        found = None
        for pos, an in enumerate(walk(ring, a)):
            k = key(ring, an)
            if k in keys:
                found = (pos + 1, keys[k][0])
                break
        if found is None:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = found
    return Verdict(True, witnesses)


def oracle_nil_radical(ring, walk=trail):
    witnesses = {}
    for a in jacobson_radical(ring).tolist():
        powers = walk(ring, a)
        if 0 not in powers:
            return Verdict(False, witnesses, counterexample=int(a))
        witnesses[int(a)] = powers.index(0) + 1
    return Verdict(True, witnesses)


def oracle_ring_predicates(ring) -> dict:
    """name -> (holds, witness) of the six classical predicates."""
    mul = ring.mul_np
    n = ring.order
    out = {}
    nc = np.argwhere(mul != mul.T)
    out["commutative"] = (nc.size == 0,
                          tuple(int(i) for i in nc[0]) if nc.size else None)
    idx = np.arange(n, dtype=np.int32)
    diag = mul[idx, idx]
    nilsq = np.nonzero((diag == 0) & (idx != 0))[0]
    out["reduced"] = (nilsq.size == 0,
                      int(nilsq[0]) if nilsq.size else None)
    noncentral = central_idempotent_scan(ring)[1]
    out["abelian"] = (noncentral is None, noncentral)
    zero_prod = mul == 0
    zero_prod[0, :] = False
    zero_prod[:, 0] = False
    zd = np.argwhere(zero_prod)
    out["domain"] = (zd.size == 0,
                     tuple(int(i) for i in zd[0]) if zd.size else None)
    unit_mask = ring_units(ring)
    jac = set(jacobson_radical(ring).tolist())
    outside = [int(a) for a in np.nonzero(~unit_mask)[0]
               if int(a) not in jac]
    out["local"] = (not outside, outside[0] if outside else None)
    nzn = np.nonzero(~unit_mask & (idx != 0))[0]
    out["division"] = (nzn.size == 0, int(nzn[0]) if nzn.size else None)
    return out


def oracle(ring, name: str, walk=trail) -> tuple:
    """(holds, witnesses, counterexample) of the old code for check name,
    its power searches walking each element's powers by `walk`."""
    if name in ("commutative", "reduced", "abelian", "domain", "local",
                "division"):
        holds, cex = oracle_ring_predicates(ring)[name]
        return holds, {}, cex
    if name == "regular":
        v = oracle_regular(ring)
    else:
        v = {"pi_regular": oracle_pi_regular,
             "strongly_pi_regular": oracle_strongly_pi_regular,
             "gen_left_pp": oracle_gen_left_pp,
             "nil_radical": oracle_nil_radical}[name](ring, walk)
    witnesses = v.witnesses
    if name == "regular":
        witnesses = {a: (1, x) for a, x in witnesses.items()}
    elif name == "nil_radical":
        witnesses = {a: (n, 0) for a, n in witnesses.items()}
    return v.holds, witnesses, v.counterexample


def table_rows(table) -> list:
    """The rows of a power table as lists, without their -1s."""
    return [[x for x in row if x >= 0] for row in np.asarray(table).tolist()]


def disagreements(ring) -> list:
    """The names whose check, run directly and not through the intern
    table, differs from its oracle on ring; "power_table" when a row of
    `rings.power_table` is not `trail`, and "left_annihilator_key" when
    that function differs from `key`, at some element."""
    out = []
    for name, check in RING_CHECKS.items():
        v = check(ring)
        if (v.holds, v.witnesses, v.counterexample) != oracle(ring, name):
            out.append(name)
    if table_rows(rings.power_table(ring)) != [trail(ring, a)
                                               for a in range(ring.order)]:
        out.append("power_table")
    if any(left_annihilator_key(ring, a) != key(ring, a)
           for a in range(ring.order)):
        out.append("left_annihilator_key")
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@st.composite
def valid_rings(draw):
    kind = draw(st.sampled_from(("zmod", "product", "triangular", "matrix")))
    if kind == "zmod":
        ring = zmod(draw(st.integers(1, 81)), CAPS)
    elif kind == "product":
        a = draw(st.integers(1, 9))
        b = draw(st.integers(1, 81 // a))
        ring = product_ring(zmod(a, CAPS), zmod(b, CAPS), CAPS)
    elif kind == "triangular":
        ring = triangular_ring(zmod(draw(st.integers(2, 4)), CAPS), 2, CAPS)
    else:
        ring = matrix_ring(zmod(draw(st.integers(2, 3)), CAPS), 2, CAPS)
    if draw(st.booleans()):
        e = draw(st.sampled_from(ring_idempotents(ring).tolist()))
        if e:
            ring = corner_ring(ring, e, CAPS)[0]
    return ring


def raw_ring(table, one: int) -> FiniteRing:
    """A FiniteRing over an arbitrary square table, not validated; its
    structure key is its own."""
    mul = np.array(table, dtype=np.int32)
    group = FinAbGroup((mul.shape[0],))
    ring = FiniteRing(group, one, {("raw", mul.tobytes()): 1}, mul, "raw")
    mul.flags.writeable = False
    return ring


@st.composite
def raw_rings(draw):
    """Arbitrary tables of order at most 7, or a valid ring's table with a
    few entries overwritten."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                              max_size=n * n))
        table = np.array(cells).reshape(n, n)
    else:
        table = draw(valid_rings()).mul_np.copy()
        n = table.shape[0]
        for _ in range(draw(st.integers(1, 3))):
            table[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
                draw(st.integers(0, n - 1))
    return raw_ring(table, draw(st.integers(0, n - 1)))


# Tables on which strongly pi-regular fails first at element 2.  2*2 = 1
# on all three, and the row of 2 is [2] on BOTH_SIDES and LEFT_ONLY, and
# [2, 1] on RIGHT_ONLY, where 2*1 = 1 too; the search tests a^n against
# a*a^n = 1.  On BOTH_SIDES, 2 lies neither in 1*R nor in R*1; on
# LEFT_ONLY, 2 = 1*2 is in 1*R but not in R*1; on RIGHT_ONLY, 1 = 2*1 is
# in R*1 but neither 2 nor 1 lies in 1*R.  Elements 0 and 1 pass both
# sides on all three.
BOTH_SIDES = [[0, 0, 0], [0, 0, 1], [0, 0, 1]]
LEFT_ONLY = [[0, 0, 0], [0, 0, 2], [0, 0, 1]]
RIGHT_ONLY = [[1, 0, 0], [0, 0, 0], [2, 1, 1]]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(valid_rings())
def test_ring_checks_match_the_oracles_on_valid_rings(ring):
    assert disagreements(ring) == []
    for name in RING_CHECKS:
        v = ring_check(ring, name)
        assert (v.holds, v.witnesses, v.counterexample) == oracle(ring, name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(valid_rings())
def test_rows_end_at_the_index_and_lose_no_witness(ring):
    """On a valid ring each row is its first-repeat trail cut at the index,
    the first n with a^n = a^(n+p), and the oracles walking the whole
    trail find the same results."""
    mul = ring.mul_np
    for a in range(ring.order):
        full = first_repeat(ring, a)
        index = full.index(int(mul[full[-1], a])) + 1
        assert trail(ring, a) == full[:index]
    for name in RING_CHECKS:
        assert oracle(ring, name, first_repeat) == oracle(ring, name)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_rings())
def test_ring_checks_match_the_oracles_on_raw_tables(ring):
    assert disagreements(ring) == []


def test_raw_tables_reach_every_failure_branch():
    """Every table of order at most 2, and the three tables above."""
    tables = [np.reshape(cells, (n, n)) for n in (1, 2)
              for cells in np.ndindex(*(n,) * (n * n))]
    failing = set()
    for table in tables + [BOTH_SIDES, LEFT_ONLY, RIGHT_ONLY]:
        ring = raw_ring(table, 0)
        assert disagreements(ring) == []
        failing |= {name for name in RING_CHECKS
                    if not oracle(ring, name)[0]}
    assert failing == set(RING_CHECKS)


@pytest.mark.parametrize("table, side", [(BOTH_SIDES, "right"),
                                         (LEFT_ONLY, "left"),
                                         (RIGHT_ONLY, "right")])
def test_strongly_pi_regular_names_the_failing_side(table, side):
    ring = raw_ring(table, 0)
    v = RING_CHECKS["strongly_pi_regular"](ring)
    assert (v.holds, v.counterexample) == (False, (2, side))
    assert v.witnesses == oracle(ring, "strongly_pi_regular")[1]
    assert set(v.witnesses) == {0, 1}


def test_a_first_power_that_reads_one_term_is_caught(monkeypatch):
    real = rings._first_power

    def first_term_only(ring, test, elements=None, terms=None):
        return real(ring, test, elements, terms=1)

    z4 = zmod(4, CAPS)
    assert disagreements(z4) == []
    monkeypatch.setattr(rings, "_first_power", first_term_only)
    assert "pi_regular" in disagreements(z4)


# A corrupted table is read through the package's name for it, as every
# search reads it; fresh_intern keeps the derived tables (the principal
# annihilators among them) from being served from before.


def _drop_last_term(real):
    """Every row of the power table one term short."""
    def table(ring):
        out = real(ring).copy()
        out[np.arange(ring.order), (out >= 0).sum(axis=1) - 1] = -1
        return out
    return table


def _add_next_term(real):
    """Every row of the power table run one term on, to a^(k+1) = a^k * a,
    where that differs from a^k."""
    def table(ring):
        out = np.pad(real(ring), ((0, 0), (0, 1)), constant_values=-1)
        a = np.arange(ring.order)
        k = (out >= 0).sum(axis=1)
        last = out[a, k - 1]
        up = ring.mul_np[last, a]
        on = up != last
        out[a[on], k[on]] = up[on]
        return out
    return table


def _padding_as_term(real):
    """The power table with one more column, its padding read as a term:
    as element order - 1, which an index of -1 reads."""
    def table(ring):
        out = np.pad(real(ring), ((0, 0), (0, 1)), constant_values=-1)
        return np.where(out < 0, ring.order - 1, out)
    return table


def _flip_column_0(real):
    """The key table with the key of 0 taken from the nonzero entries of
    its column."""
    def table(ring):
        out = real(ring).copy()
        out[0] = np.packbits(ring.mul_np[:, 0] != 0)
        return out
    return table


def _mutant_inputs() -> list:
    """Z/4, Z/6, 2x2 upper triangular matrices over Z/2, every table of
    order 2 and the three tables above, as raw rings."""
    tables = [np.reshape(cells, (2, 2)) for cells in np.ndindex(*(2,) * 4)]
    return ([zmod(4, CAPS), zmod(6, CAPS),
             triangular_ring(zmod(2, CAPS), 2, CAPS)]
            + [raw_ring(table, 0)
               for table in tables + [BOTH_SIDES, LEFT_ONLY, RIGHT_ONLY]])


@pytest.mark.parametrize("table, mutate, caught", [
    # a row of one term is left empty, so `regular` fails too
    ("power_table", _drop_last_term,
     {"power_table", "regular", "pi_regular", "strongly_pi_regular",
      "gen_left_pp", "nil_radical"}),
    # on these inputs the extra term is a hit only where a check fails
    ("power_table", _padding_as_term,
     {"power_table", "pi_regular", "strongly_pi_regular", "gen_left_pp"}),
    ("left_annihilator_keys", _flip_column_0,
     {"left_annihilator_key", "gen_left_pp"}),
    # a valid ring's searches resolve by the index, so only the row
    # comparison sees the extra term there; some raw tables fail less
    ("power_table", _add_next_term,
     {"power_table", "pi_regular", "strongly_pi_regular", "nil_radical"}),
])
def test_a_corrupted_table_is_caught(monkeypatch, fresh_intern, table,
                                     mutate, caught):
    inputs = _mutant_inputs()
    assert all(disagreements(ring) == [] for ring in inputs)
    fresh_intern.clear()
    monkeypatch.setattr(rings, table, mutate(getattr(rings, table)))
    assert set().union(*map(disagreements, inputs)) == caught


@pytest.mark.parametrize("mutate", [_drop_last_term, _add_next_term])
def test_a_row_a_step_early_or_late_is_caught_on_the_corpus(
        monkeypatch, fresh_intern, ring_instances, mutate):
    """The early row on every corpus ring; the late one on every corpus
    ring with an element a of period above 1, whose a^k * a is not a^k."""
    corpus = [inst.ring for inst in ring_instances]
    assert all(disagreements(ring) == [] for ring in corpus)
    periodic = [ring.name for ring in corpus
                if any(ring.mul_np[trail(ring, a)[-1], a] != trail(ring, a)[-1]
                       for a in range(ring.order))]
    fresh_intern.clear()
    monkeypatch.setattr(rings, "power_table", mutate(rings.power_table))
    caught = [ring.name for ring in corpus if disagreements(ring)]
    assert caught == ([ring.name for ring in corpus]
                      if mutate is _drop_last_term else periodic)
    assert periodic


def _first_pair(bits: np.ndarray):
    """The first True entry of a whole boolean table, in row-major order,
    or None."""
    hits = np.argwhere(bits)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


FULL_TABLE_PAIRS = {
    "commutative": lambda mul: mul != mul.T,
    "domain": lambda mul: (mul == 0) & (np.arange(len(mul)) != 0)
    & (np.arange(len(mul)) != 0)[:, None],
}


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("name", sorted(FULL_TABLE_PAIRS))
def test_blocked_pair_checks_match_the_full_table(monkeypatch, ring_instances,
                                                  name, block):
    """The commutative and domain checks read the table a few rows at a
    time; on the corpus rings, with blocks of one row up to several, they
    name the first offending pair of the whole table, in row-major order."""
    monkeypatch.setattr(rings, "_BLOCK", block)
    offenders = 0
    for ring in (inst.ring for inst in ring_instances):
        first = _first_pair(FULL_TABLE_PAIRS[name](ring.mul_np))
        verdict = RING_CHECKS[name](ring)
        assert (verdict.holds, verdict.counterexample) == (first is None,
                                                           first)
        offenders += first is not None
    assert offenders
