"""Differential test: the searches over End(M)'s power chains that go
through `homs.first_chain_term` (or, reading n = 1 only, through
`homs.first_offender`) against the loops they replaced, kept here only as
oracles.  The oracles read the chains along the rows of End(M).powers, as
`test_end_powers_oracle.row_chains` reads them, and that file checks those
chains against the chains End(M) kept before the power table.

The oracles are the per-decider loops of dual Rickart, dual pi-Rickart,
Rickart and pi-Rickart (one `_idempotent_generated`), Fitting and
co-Hopfian, and the entry checks of L2.5.1, L2.5.2, L3.9.1, L3.9.2,
T3.19c.2 and P3.21.2 (module entries, now read through `Facts.verdict`) and
of P2.2.1 and P2.2.2 (ring entries, now declared with the "reg." scope), as
they were before.  A decider must agree with its oracle in holds,
counterexample and printed witness, and an entry in status and witness.
Dual Rickart and Rickart witnesses are now (1, e) and Fitting's (n, True);
the printed witness must not change.  The four map checks of
`homs.MAP_CHECKS` have oracles too, the loops of those entries as
predicates, and must agree with them in holds, counterexample and
witnesses, the dict `old_verdicts.witness_dict` rebuilds from the search's
arrays (a witness True there is 1); nonzero_epi, like co-Hopfian, keeps no
witnesses.

The comparison runs on every corpus instance, and with Hypothesis on the
module pools of `test_iso_oracle.py`: the submodules and quotients of the
regular and rank-2 free modules over Z/n (n <= 6), and of the regular t2z2
module and ex23.  The deciders and the map checks are also compared on
z2_free4 (Z/2)^4, with 65,536 maps, under raised caps.  A finite module
never fails the power searches, so the deciders are also compared on
arbitrary power tables with arbitrary image and kernel masks that no
module has, which reach every failure branch.  A power search in `homs`
that reads only the first term of each row must fail the comparison, and
so must one that drops the last map's witness from its arrays.
"""

import dataclasses
import itertools
import types

import numpy as np
from hypothesis import given, settings, strategies as st

from pirick import homs, properties
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.homs import _double_annihilator_closed, end_ring
from pirick.modules import free_module, ring_as_module
from pirick.properties import DECIDERS, Facts, _witness_string
from pirick.rings import ring_check
from pirick.theorems import (HOLDS, NOT_MET, READING_FLAG, SKIPPED,
                             VIOLATION, InstanceContext, _conclude, verify)

from old_verdicts import OldVerdict, witness_dict
from test_end_powers_oracle import chain_term, row_chains
from test_iso_oracle import _pools

CAPS = caps_from_env()


# ---------------------------------------------------------------------------
# the oracles: the loops as they were before first_chain_term
# ---------------------------------------------------------------------------


def oracle_idempotent_generated(facts, kernels: bool,
                                any_power: bool) -> OldVerdict:
    powers = row_chains(facts.end())
    idem = facts.idem_masks()
    witnesses = {}
    for f, chain in enumerate(powers.kernels if kernels else powers.images):
        if not any_power:
            chain = chain[:1]
        found = next(((n, idem[mask]) for n, mask in enumerate(chain, start=1)
                      if mask in idem), None)
        if found is None:
            return OldVerdict(False, witnesses, f)
        witnesses[f] = found if any_power else found[1]
    return OldVerdict(True, witnesses, None)


def oracle_fitting(facts) -> OldVerdict:
    powers = row_chains(facts.end())
    full = facts.module.order
    witnesses = {}
    for f, (imgs, kers) in enumerate(zip(powers.images, powers.kernels)):
        found = None
        for n in range(1, max(len(imgs), len(kers)) + 1):
            im, ker = chain_term(imgs, n), chain_term(kers, n)
            if (im & ker) == 1 and im.bit_count() * ker.bit_count() == full:
                found = n
                break
        if found is None:
            return OldVerdict(False, witnesses, f)
        witnesses[f] = found
    return OldVerdict(True, witnesses, None)


def oracle_co_hopfian(facts) -> OldVerdict:
    powers = row_chains(facts.end())
    everything = (1 << facts.module.order) - 1
    for f, (imgs, kers) in enumerate(zip(powers.images, powers.kernels)):
        if kers[0] == 1 and imgs[0] != everything:
            return OldVerdict(False, {}, f)
    return OldVerdict(True, {}, None)


ORACLE_DECIDERS = {
    "dual_rickart": lambda facts: oracle_idempotent_generated(
        facts, kernels=False, any_power=False),
    "dual_pi_rickart": lambda facts: oracle_idempotent_generated(
        facts, kernels=False, any_power=True),
    "rickart": lambda facts: oracle_idempotent_generated(
        facts, kernels=True, any_power=False),
    "pi_rickart": lambda facts: oracle_idempotent_generated(
        facts, kernels=True, any_power=True),
    "fitting": oracle_fitting,
    "co_hopfian": oracle_co_hopfian,
}


def oracle_witness_string(prop: str, verdict: OldVerdict) -> str:
    """The printed witness of the old verdict shapes."""
    if not verdict.holds:
        return f"f={verdict.counterexample}"
    w = verdict.witnesses
    if prop in ("dual_pi_rickart", "pi_rickart") and w:
        f_max = max(w, key=lambda f: (w[f][0], f))
        n, e = w[f_max]
        return f"f={f_max},n={n},e={e}"
    if prop == "fitting" and w:
        f_max = max(w, key=lambda f: (w[f], f))
        return f"f={f_max},n={w[f_max]}"
    if prop in ("dual_rickart", "rickart") and w:
        f_max = max(w, key=lambda f: (w[f], f))
        return f"f={f_max},e={w[f_max]}"
    return "-"


def _both_summand_exponent(masks: dict, powers, f: int):
    imgs, kers = powers.images[f], powers.kernels[f]
    return next((n for n in range(1, max(len(imgs), len(kers)) + 1)
                 if chain_term(imgs, n) in masks
                 and chain_term(kers, n) in masks), None)


def oracle_l2_5_1(ctx):
    facts = ctx.facts()
    end = facts.end()
    if not facts.verdict("dual_pi_rickart").holds:
        return NOT_MET, "-"
    if not ring_check(end.ring, "domain").holds:
        return NOT_MET, "-"
    everything = (1 << facts.module.order) - 1
    for f in range(1, end.ring.order):
        if end.images[f] != everything:
            return VIOLATION, f"f={f}"
    return HOLDS, f"nonzero_maps={end.ring.order - 1}"


def oracle_l2_5_2(ctx):
    facts = ctx.facts()
    end = facts.end()
    everything = (1 << facts.module.order) - 1
    for f in range(1, end.ring.order):
        if end.images[f] != everything:
            return NOT_MET, f"f={f} not epi"
    return _conclude(ctx, ("dual_pi_rickart", "end.domain"))


def oracle_l3_9_1(ctx):
    facts = ctx.facts()
    end = facts.end()
    if not ring_check(end.ring, "pi_regular").holds:
        return NOT_MET, "-"
    worst = 0
    masks, powers = facts.idem_masks(), row_chains(end)
    for f in range(end.ring.order):
        n = _both_summand_exponent(masks, powers, f)
        if n is None:
            return VIOLATION, f"f={f}"
        worst = max(worst, n)
    return HOLDS, f"max_n={worst}"


def oracle_l3_9_2(ctx):
    facts = ctx.facts()
    end = facts.end()
    masks, powers = facts.idem_masks(), row_chains(end)
    for f in range(end.ring.order):
        if _both_summand_exponent(masks, powers, f) is None:
            return NOT_MET, f"f={f}"
    v = ring_check(end.ring, "pi_regular")
    if not v.holds:
        return READING_FLAG, f"a={v.counterexample}"
    return HOLDS, "-"


def oracle_t3_19c_2(ctx):
    facts = ctx.facts()
    masks = facts.idem_masks()
    end = facts.end()
    for f, imgs in enumerate(row_chains(end).images):
        if not any(im in masks and _double_annihilator_closed(end, im)
                   for im in imgs):
            return NOT_MET, f"f={f}"
    return _conclude(ctx, ("dual_pi_rickart",))


def oracle_p3_21_2(ctx):
    facts = ctx.facts()
    everything = (1 << facts.module.order) - 1
    for f, imgs in enumerate(row_chains(facts.end()).images):
        if not (imgs[0] == everything or imgs[-1] == 1):
            return NOT_MET, f"f={f}"
    return _conclude(ctx, ("indecomposable", "dual_pi_rickart"))


def oracle_p2_2_1(ctx):
    facts = ctx.reg_facts()
    if not facts.verdict("dual_pi_rickart").holds:
        return NOT_MET, "-"
    v = ring_check(ctx.ring, "pi_regular")
    if not v.holds:
        return VIOLATION, f"a={v.counterexample}"
    a, (n, x) = max(witness_dict(v).items(),
                    key=lambda kv: (kv[1][0], kv[0]))
    return HOLDS, f"a={a},n={n},x={x}"


def oracle_p2_2_2(ctx):
    if not ring_check(ctx.ring, "pi_regular").holds:
        return NOT_MET, "-"
    facts = ctx.reg_facts()
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return VIOLATION, f"f={v.counterexample}"
    f, (n, e) = max(witness_dict(v).items(),
                    key=lambda kv: (kv[1][0], kv[0]))
    return HOLDS, f"f={f},n={n},e={e}"


def _oracle_search(facts, found) -> OldVerdict:
    """Every f has a smallest n with found(f, n), n within its chains:
    witnesses f -> (n, True), and the first f with none as
    counterexample."""
    powers = row_chains(facts.end())
    witnesses = {}
    for f, imgs in enumerate(powers.images):
        n = next((n for n in range(1, len(imgs) + 1) if found(f, n)), None)
        if n is None:
            return OldVerdict(False, witnesses, f)
        witnesses[f] = (n, True)
    return OldVerdict(True, witnesses, None)


def oracle_nonzero_epi(facts) -> OldVerdict:
    everything = (1 << facts.module.order) - 1
    for f, imgs in enumerate(row_chains(facts.end()).images):
        if imgs[0] not in (1, everything):
            return OldVerdict(False, {}, f)
    return OldVerdict(True, {}, None)


def oracle_epi_or_nilpotent(facts) -> OldVerdict:
    everything = (1 << facts.module.order) - 1
    imgs = row_chains(facts.end()).images
    return _oracle_search(facts, lambda f, n: chain_term(imgs[f], n) in (
        1, everything))


def oracle_summand_pair(facts) -> OldVerdict:
    masks, powers = facts.idem_masks(), row_chains(facts.end())
    return _oracle_search(
        facts, lambda f, n: _both_summand_exponent(masks, powers, f) == n)


def oracle_closed_summand(facts) -> OldVerdict:
    masks, end = facts.idem_masks(), facts.end()
    imgs = row_chains(end).images
    return _oracle_search(facts, lambda f, n: chain_term(imgs[f], n) in masks
                          and _double_annihilator_closed(
                              end, chain_term(imgs[f], n)))


ORACLE_MAP_CHECKS = {"nonzero_epi": oracle_nonzero_epi,
                     "epi_or_nilpotent": oracle_epi_or_nilpotent,
                     "summand_pair": oracle_summand_pair,
                     "closed_summand": oracle_closed_summand}


MODULE_ENTRIES = {"L2.5.1": oracle_l2_5_1, "L2.5.2": oracle_l2_5_2,
                  "L3.9.1": oracle_l3_9_1, "L3.9.2": oracle_l3_9_2,
                  "T3.19c.2": oracle_t3_19c_2, "P3.21.2": oracle_p3_21_2}
RING_ENTRIES = {"P2.2.1": oracle_p2_2_1, "P2.2.2": oracle_p2_2_2}


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _outcome(check):
    """(status, witness) of a check, or the skip a cap makes of it."""
    try:
        return check()
    except SizeCapExceeded as exc:
        return SKIPPED, f"cap:{exc.what}"


def decider_disagreements(facts) -> list:
    """The properties whose decider, run directly and not through the
    intern table, differs from its oracle on a Facts (or RawFacts)."""
    out = []
    for prop, oracle in ORACLE_DECIDERS.items():
        new, old = DECIDERS[prop](facts), oracle(facts)
        if ((new.holds, new.counterexample,
             _witness_string(facts, prop, new))
                != (old.holds, old.counterexample,
                    oracle_witness_string(prop, old))):
            out.append(prop)
    return out


def map_check_disagreements(facts) -> list:
    """The map checks whose verdict, run directly, differs from its
    oracle's in holds, counterexample or witnesses."""
    out = []
    for name, oracle in ORACLE_MAP_CHECKS.items():
        new, old = homs.MAP_CHECKS[name](facts.end()), oracle(facts)
        if ((new.holds, new.counterexample, witness_dict(new))
                != (old.holds, old.counterexample, old.witnesses)):
            out.append(name)
    return out


def entry_disagreements(ctx, entries: dict) -> list:
    """The registry ids whose (status, witness) differs from the oracle's
    on the instance."""
    out = []
    for tid, oracle in entries.items():
        [got] = verify(tid, ctx)
        if (got.status, got.witness) != _outcome(lambda: oracle(ctx)):
            out.append(tid)
    return out


def _module_ctx(module, name=None):
    return InstanceContext(name or module.name, "module", module.ring,
                           module, CAPS)


def test_deciders_and_entries_match_the_oracles_on_the_corpus(
        module_instances, ring_instances):
    for inst in module_instances:
        facts = Facts(inst.module, CAPS)
        assert decider_disagreements(facts) == [], inst.name
        assert map_check_disagreements(facts) == [], inst.name
        ctx = _module_ctx(inst.module, inst.name)
        assert entry_disagreements(ctx, MODULE_ENTRIES) == [], inst.name
    for inst in ring_instances:
        ctx = InstanceContext(inst.name, "ring", inst.ring, None, CAPS)
        assert entry_disagreements(ctx, RING_ENTRIES) == [], inst.name


# ---------------------------------------------------------------------------
# arbitrary power tables: a finite module's deciders never fail the power
# searches (every finite module is Fitting and dual pi-Rickart), so only
# tables and masks that no module has reach their failure branches
# ---------------------------------------------------------------------------


_RAW_KEYS = itertools.count()


class RawFacts:
    """What the chain deciders read, over an arbitrary power table: rows
    of End(M).powers (row f starting with f), the image and kernel mask of
    each element, the idempotent image masks and the module order.  Each
    has a key of its own, under which the intern table keeps what it finds
    from them."""

    def __init__(self, order: int, rows, images, kernels, idem: dict):
        width = max(map(len, rows))
        self.module = types.SimpleNamespace(order=order)
        self._end = types.SimpleNamespace(
            key=("raw", next(_RAW_KEYS)),
            powers=np.array([row + [-1] * (width - len(row))
                             for row in rows]),
            images=tuple(images), kernels=tuple(kernels))
        self.idem = idem

    def end(self):
        return self._end

    def idem_masks(self) -> dict:
        return self.idem


@st.composite
def raw_facts(draw):
    """Up to 5 elements of a set of order at most 4, with masks that
    contain 0, rows of up to 4 powers, and a random set of idempotent
    images."""
    order = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << order) - 1).map(lambda m: m | 1)
    k = draw(st.integers(1, 5))
    rows = [[f] + draw(st.lists(st.integers(0, k - 1), max_size=3))
            for f in range(k)]
    images, kernels = (draw(st.lists(masks, min_size=k, max_size=k))
                       for _ in range(2))
    idem = {m: draw(st.integers(0, 5)) for m in draw(st.sets(masks))}
    return RawFacts(order, rows, images, kernels, idem)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_facts())
def test_deciders_match_the_oracles_on_raw_chains(facts):
    assert decider_disagreements(facts) == []


def test_raw_chains_reach_every_failure_branch():
    """Two elements of a set of order 2: element 0, whose powers are
    itself and, or not, element 1, and element 1, whose only power is
    itself; every image and kernel mask of each, each set of idempotent
    images."""
    failing = set()
    for rows, masks, idem in itertools.product(
            ([[0], [1]], [[0, 1], [1]]), itertools.product((1, 3), repeat=4),
            ({}, {1: 0}, {3: 1}, {1: 0, 3: 1})):
        facts = RawFacts(2, rows, masks[:2], masks[2:], idem)
        assert decider_disagreements(facts) == []
        failing |= {prop for prop, oracle in ORACLE_DECIDERS.items()
                    if not oracle(facts).holds}
    assert failing == set(ORACLE_DECIDERS)


# ---------------------------------------------------------------------------
# the module pools, and a mutant
# ---------------------------------------------------------------------------


@st.composite
def pool_modules(draw):
    """A base ring's pool, then one of its modules."""
    return draw(st.sampled_from(draw(st.sampled_from(_pools()))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pool_modules())
def test_deciders_and_entries_match_the_oracles_on_the_pools(module):
    assert decider_disagreements(Facts(module, CAPS)) == []
    assert entry_disagreements(_module_ctx(module), MODULE_ENTRIES) == []


def test_the_searches_match_the_oracles_on_z2_free4(fresh_intern):
    """(Z/2)^4 over Z/2: End(M) is M4(Z/2), 65,536 maps, built in-process
    under construct and hom caps of 2^20."""
    caps = dataclasses.replace(CAPS, construct=1 << 20, hom=1 << 20)
    module = free_module(zmod(2, caps), 4, caps)
    assert end_ring(module, caps).order == 65536
    facts = Facts(module, caps)
    assert decider_disagreements(facts) == []
    assert map_check_disagreements(facts) == []


def test_a_chain_search_that_reads_one_term_is_caught(monkeypatch,
                                                      fresh_intern):
    """On Z/4, the doubling map's image {0, 2} is no summand, but its
    square is 0: every search that needs the second term sees the change."""
    real = homs._first_power

    def first_term_only(powers, test, elements=None, terms=None):
        return real(powers, test, elements, terms=1)

    module = ring_as_module(zmod(4, CAPS), CAPS)
    facts = Facts(module, CAPS)
    assert decider_disagreements(facts) == []
    assert map_check_disagreements(facts) == []
    monkeypatch.setattr(homs, "_first_power", first_term_only)
    assert decider_disagreements(facts) == ["dual_pi_rickart", "pi_rickart",
                                            "fitting"]
    assert map_check_disagreements(facts) == ["epi_or_nilpotent",
                                              "summand_pair",
                                              "closed_summand"]
    assert entry_disagreements(_module_ctx(module), MODULE_ENTRIES) == [
        "L3.9.1", "L3.9.2", "T3.19c.2", "P3.21.2"]


def test_a_search_that_drops_the_last_witness_is_caught(monkeypatch,
                                                        fresh_intern):
    """The dicts rebuilt from the witness arrays hold every witness: a
    power search that leaves the last map of End(Z/4) unresolved, its
    holds and counterexample kept, fails each map check that keeps
    witnesses."""
    real = homs._first_power

    def drop_last(powers, test, elements=None, terms=None):
        v = real(powers, test, elements, terms)
        exponent, witness = v.exponent.copy(), v.witness.copy()
        exponent[-1] = witness[-1] = -1
        return dataclasses.replace(v, exponent=exponent, witness=witness)

    facts = Facts(ring_as_module(zmod(4, CAPS), CAPS), CAPS)
    assert map_check_disagreements(facts) == []
    monkeypatch.setattr(homs, "_first_power", drop_last)
    assert map_check_disagreements(facts) == ["epi_or_nilpotent",
                                              "summand_pair",
                                              "closed_summand"]
