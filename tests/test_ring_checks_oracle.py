"""Differential test: every ring check of `rings.RING_CHECKS` against the
loops it replaced, kept here only as oracles.

The oracles are the five per-property power searches (regular, pi-regular,
strongly pi-regular, generalized left pp, nil radical) and the one
`ring_predicates` pass over the six classical predicates.  Each check must
agree with its oracle in (holds, witnesses, counterexample).  `regular` and
`nil_radical` now share the power search's witness shape a -> (n, w): the
oracle's x and n are compared as (1, x) and (n, 0).

Hypothesis draws two kinds of input: valid rings (Z/n, products, corners,
and 2x2 triangular and matrix rings, of order at most 81), and raw
FiniteRing objects over arbitrary tables, built without `ring_make`.  A
finite ring is always pi-regular, strongly pi-regular and has a nil
radical, so only the raw tables reach those checks' failure branches.  A
raw ring's structure key holds its table's bytes, so the per-ring data
that the checks intern (idempotents, units, J(R)) is its own.
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
                          matrix_ring, power_trail, principal_left_ideal_keys,
                          product_ring, ring_check, ring_idempotents,
                          ring_units, triangular_ring)

CAPS = caps_from_env()


# ---------------------------------------------------------------------------
# the oracles: the loops as they were before RING_CHECKS
# ---------------------------------------------------------------------------


def oracle_regular(ring):
    mul = ring.mul_np
    witnesses = {}
    for a in range(ring.order):
        hits = np.nonzero(mul[mul[a, :], a] == a)[0]
        if hits.size == 0:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = int(hits[0])
    return Verdict(True, witnesses)


def oracle_pi_regular(ring):
    mul = ring.mul_np
    witnesses = {}
    for a in range(ring.order):
        found = None
        for pos, an in enumerate(power_trail(ring, a)):
            hits = np.nonzero(mul[mul[an, :], an] == an)[0]
            if hits.size:
                found = (pos + 1, int(hits[0]))
                break
        if found is None:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = found
    return Verdict(True, witnesses)


def oracle_strongly_pi_regular(ring):
    mul = ring.mul_np
    witnesses = {}
    for a in range(ring.order):
        right = None
        left_ok = False
        for pos, an in enumerate(power_trail(ring, a)):
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


def oracle_gen_left_pp(ring):
    keys = principal_left_ideal_keys(ring)
    witnesses = {}
    for a in range(ring.order):
        found = None
        for pos, an in enumerate(power_trail(ring, a)):
            key = left_annihilator_key(ring, an)
            if key in keys:
                found = (pos + 1, keys[key][0])
                break
        if found is None:
            return Verdict(False, witnesses, counterexample=a)
        witnesses[a] = found
    return Verdict(True, witnesses)


def oracle_nil_radical(ring):
    witnesses = {}
    for a in jacobson_radical(ring).tolist():
        trail = power_trail(ring, a)
        if 0 not in trail:
            return Verdict(False, witnesses, counterexample=int(a))
        witnesses[int(a)] = trail.index(0) + 1
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
    unit_mask, _ = ring_units(ring)
    jac = set(jacobson_radical(ring).tolist())
    outside = [int(a) for a in np.nonzero(~unit_mask)[0]
               if int(a) not in jac]
    out["local"] = (not outside, outside[0] if outside else None)
    nzn = np.nonzero(~unit_mask & (idx != 0))[0]
    out["division"] = (nzn.size == 0, int(nzn[0]) if nzn.size else None)
    return out


def oracle(ring, name: str) -> tuple:
    """(holds, witnesses, counterexample) of the old code for check name."""
    if name in ("commutative", "reduced", "abelian", "domain", "local",
                "division"):
        holds, cex = oracle_ring_predicates(ring)[name]
        return holds, {}, cex
    v = {"regular": oracle_regular, "pi_regular": oracle_pi_regular,
         "strongly_pi_regular": oracle_strongly_pi_regular,
         "gen_left_pp": oracle_gen_left_pp,
         "nil_radical": oracle_nil_radical}[name](ring)
    witnesses = v.witnesses
    if name == "regular":
        witnesses = {a: (1, x) for a, x in witnesses.items()}
    elif name == "nil_radical":
        witnesses = {a: (n, 0) for a, n in witnesses.items()}
    return v.holds, witnesses, v.counterexample


def disagreements(ring) -> list:
    """The names whose check, run directly and not through the intern
    table, differs from its oracle on ring."""
    out = []
    for name, check in RING_CHECKS.items():
        v = check(ring)
        if (v.holds, v.witnesses, v.counterexample) != oracle(ring, name):
            out.append(name)
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


# Tables on which strongly pi-regular fails first at element 2, whose power
# trail is 2, 1 in each: on BOTH_SIDES, 2 and 1 lie neither in
# a^(n+1)R nor in Ra^(n+1); on LEFT_ONLY, 2 = 2*1*2 is in a^2R but neither
# lies in Ra^(n+1); on RIGHT_ONLY, 1 = 1*1*2 is in Ra^3 but neither lies in
# a^(n+1)R.  Elements 0 and 1 pass both sides on all three.
BOTH_SIDES = [[0, 0, 0], [0, 0, 1], [0, 0, 1]]
LEFT_ONLY = [[0, 0, 0], [0, 0, 2], [0, 0, 1]]
RIGHT_ONLY = [[0, 0, 0], [0, 0, 0], [2, 1, 1]]


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
