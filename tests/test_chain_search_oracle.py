"""Differential test: the searches over End(M)'s power chains that go
through `homs.first_chain_term` against the loops they replaced, kept here
only as oracles.

The oracles are the per-decider loops of dual Rickart, dual pi-Rickart,
Rickart and pi-Rickart (one `_idempotent_generated`), Fitting and
co-Hopfian, and the entry checks of L2.5.1, L2.5.2, L3.9.1, L3.9.2,
T3.19c.2 and P3.21.2 (module entries, now read through `map_check`) and of
P2.2.1 and P2.2.2 (ring entries, now declared with the "reg." scope), as
they were before.  A decider must agree with its oracle in holds,
counterexample and printed witness, and an entry in status and witness.
Dual Rickart and Rickart witnesses are now (1, e) and Fitting's (n, True);
the printed witness must not change.

The comparison runs on every corpus instance, and with Hypothesis on the
module pools of `test_iso_oracle.py`: the submodules and quotients of the
regular and rank-2 free modules over Z/n (n <= 6), and of the regular t2z2
module and ex23.  A finite module never fails the power searches, so the
deciders are also compared on arbitrary chains and idempotent images that
no module has, which reach every failure branch.  A `first_chain_term`
that reads only the first term of each chain must fail the comparison.
"""

import itertools
import types

from hypothesis import given, settings, strategies as st

from pirick import homs, properties, theorems
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.homs import PowerChains, chain_term
from pirick.modules import ring_as_module
from pirick.properties import DECIDERS, Facts, _witness_string
from pirick.rings import Verdict, ring_check
from pirick.theorems import (HOLDS, NOT_MET, READING_FLAG, SKIPPED,
                             VIOLATION, InstanceContext,
                             _double_annihilator_closed, _conclude, verify)

from test_iso_oracle import _pools

CAPS = caps_from_env()


# ---------------------------------------------------------------------------
# the oracles: the loops as they were before first_chain_term
# ---------------------------------------------------------------------------


def oracle_idempotent_generated(facts, kernels: bool,
                                any_power: bool) -> Verdict:
    powers = facts.end().powers
    idem = facts.idem_masks()
    witnesses = {}
    for f, chain in enumerate(powers.kernels if kernels else powers.images):
        if not any_power:
            chain = chain[:1]
        found = next(((n, idem[mask]) for n, mask in enumerate(chain, start=1)
                      if mask in idem), None)
        if found is None:
            return Verdict(False, witnesses, f)
        witnesses[f] = found if any_power else found[1]
    return Verdict(True, witnesses, None)


def oracle_fitting(facts) -> Verdict:
    powers = facts.end().powers
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
            return Verdict(False, witnesses, f)
        witnesses[f] = found
    return Verdict(True, witnesses, None)


def oracle_co_hopfian(facts) -> Verdict:
    powers = facts.end().powers
    everything = (1 << facts.module.order) - 1
    for f, (imgs, kers) in enumerate(zip(powers.images, powers.kernels)):
        if kers[0] == 1 and imgs[0] != everything:
            return Verdict(False, {}, f)
    return Verdict(True, {}, None)


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


def oracle_witness_string(prop: str, verdict: Verdict) -> str:
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


def _both_summand_exponent(facts, f: int):
    masks = facts.idem_masks()
    powers = facts.end().powers
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
        if end.powers.images[f][0] != everything:
            return VIOLATION, f"f={f}"
    return HOLDS, f"nonzero_maps={end.ring.order - 1}"


def oracle_l2_5_2(ctx):
    facts = ctx.facts()
    end = facts.end()
    everything = (1 << facts.module.order) - 1
    for f in range(1, end.ring.order):
        if end.powers.images[f][0] != everything:
            return NOT_MET, f"f={f} not epi"
    return _conclude(ctx, ("dual_pi_rickart", "end.domain"))


def oracle_l3_9_1(ctx):
    facts = ctx.facts()
    end = facts.end()
    if not ring_check(end.ring, "pi_regular").holds:
        return NOT_MET, "-"
    worst = 0
    for f in range(end.ring.order):
        n = _both_summand_exponent(facts, f)
        if n is None:
            return VIOLATION, f"f={f}"
        worst = max(worst, n)
    return HOLDS, f"max_n={worst}"


def oracle_l3_9_2(ctx):
    facts = ctx.facts()
    end = facts.end()
    for f in range(end.ring.order):
        if _both_summand_exponent(facts, f) is None:
            return NOT_MET, f"f={f}"
    v = ring_check(end.ring, "pi_regular")
    if not v.holds:
        return READING_FLAG, f"a={v.counterexample}"
    return HOLDS, "-"


def oracle_t3_19c_2(ctx):
    facts = ctx.facts()
    masks = facts.idem_masks()
    end = facts.end()
    for f, imgs in enumerate(end.powers.images):
        if not any(im in masks and _double_annihilator_closed(end, im)
                   for im in imgs):
            return NOT_MET, f"f={f}"
    return _conclude(ctx, ("dual_pi_rickart",))


def oracle_p3_21_2(ctx):
    facts = ctx.facts()
    everything = (1 << facts.module.order) - 1
    for f, imgs in enumerate(facts.end().powers.images):
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
    a, (n, x) = max(v.witnesses.items(), key=lambda kv: (kv[1][0], kv[0]))
    return HOLDS, f"a={a},n={n},x={x}"


def oracle_p2_2_2(ctx):
    if not ring_check(ctx.ring, "pi_regular").holds:
        return NOT_MET, "-"
    facts = ctx.reg_facts()
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return VIOLATION, f"f={v.counterexample}"
    f, (n, e) = max(v.witnesses.items(), key=lambda kv: (kv[1][0], kv[0]))
    return HOLDS, f"f={f},n={n},e={e}"


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
        assert decider_disagreements(Facts(inst.module, CAPS)) == [], \
            inst.name
        ctx = _module_ctx(inst.module, inst.name)
        assert entry_disagreements(ctx, MODULE_ENTRIES) == [], inst.name
    for inst in ring_instances:
        ctx = InstanceContext(inst.name, "ring", inst.ring, None, CAPS)
        assert entry_disagreements(ctx, RING_ENTRIES) == [], inst.name


# ---------------------------------------------------------------------------
# arbitrary chains: a finite module's deciders never fail the power
# searches (every finite module is Fitting and dual pi-Rickart), so only
# chains that no module has reach their failure branches
# ---------------------------------------------------------------------------


class RawFacts:
    """What the chain deciders read, over arbitrary chains: End(M).powers,
    the idempotent image masks and the module order."""

    def __init__(self, order: int, images, kernels, idem: dict):
        self.module = types.SimpleNamespace(order=order)
        self.powers = PowerChains(tuple(images), tuple(kernels))
        self.idem = idem

    def end(self):
        return types.SimpleNamespace(powers=self.powers)

    def idem_masks(self) -> dict:
        return self.idem


def _chain(terms) -> tuple:
    """The terms before the first one equal to its predecessor."""
    out = [terms[0]]
    for term in terms[1:]:
        if term == out[-1]:
            break
        out.append(term)
    return tuple(out)


@st.composite
def raw_facts(draw):
    """Up to 5 maps on a set of order at most 4, with chains of up to 4
    masks that contain 0, and a random set of idempotent images."""
    order = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << order) - 1).map(lambda m: m | 1)
    k = draw(st.integers(1, 5))
    chains = [_chain(draw(st.lists(masks, min_size=1, max_size=4)))
              for _ in range(2 * k)]
    idem = {m: draw(st.integers(0, 5)) for m in draw(st.sets(masks))}
    return RawFacts(order, chains[:k], chains[k:], idem)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_facts())
def test_deciders_match_the_oracles_on_raw_chains(facts):
    assert decider_disagreements(facts) == []


def test_raw_chains_reach_every_failure_branch():
    """Every single map on a set of order 2 whose two chains have at most
    two terms, each set of idempotent images."""
    chains = [(1,), (3,), (1, 3), (3, 1)]
    failing = set()
    for im, ker, idem in itertools.product(chains, chains,
                                           ({}, {1: 0}, {3: 1}, {1: 0, 3: 1})):
        facts = RawFacts(2, [im], [ker], idem)
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


def test_a_chain_search_that_reads_one_term_is_caught(monkeypatch,
                                                      fresh_intern):
    """On Z/4, the doubling map's image {0, 2} is no summand, but its
    square is 0: every search that needs the second term sees the change."""
    real = homs.first_chain_term

    def first_term_only(powers, test, terms=None):
        return real(powers, test, terms=1)

    module = ring_as_module(zmod(4, CAPS), CAPS)
    facts = Facts(module, CAPS)
    assert decider_disagreements(facts) == []
    for mod in (properties, theorems):
        monkeypatch.setattr(mod, "first_chain_term", first_term_only)
    assert decider_disagreements(facts) == ["dual_pi_rickart", "pi_rickart",
                                            "fitting"]
    assert entry_disagreements(_module_ctx(module), MODULE_ENTRIES) == [
        "L3.9.1", "L3.9.2", "T3.19c.2", "P3.21.2"]
