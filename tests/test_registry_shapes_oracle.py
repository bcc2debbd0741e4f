"""Differential test: the eight registry entries that are now data against
the hand-written checks they replaced, kept here word for word as oracles
(the old `map_check` is a shim over `homs.MAP_CHECKS`).

P2.4.1, L3.1, C3.3, T3.19.1 and T3.19c.1 are `_at_witnesses` walks over
the dual pi-Rickart witnesses f -> (n, e); L3.10.2 and L3.10.3 read the
"mat2." scope; L3.9.2 is an `_implies` marked tentative, so a violation is
reported as reading_flag.  Each entry must agree with its oracle in status
and witness:

- on every corpus instance, at the default caps and at matrix_check=1296,
  which decides L3.10.x on Z5 and Z6;
- with Hypothesis, on the module pools of `test_iso_oracle.py`;
- with stubbed predicate verdicts (`theorems._verdict` for the entries,
  `Facts.verdict` and the ring and map checks for the oracles) over a real
  End(M), which reach every violation branch.  The corpus never does.

Three violation witnesses changed to their shape's uniform format: P2.4.1's
f=<f>,n>1 is f=<f>,n=<n>; T3.19.1's gen_left_pp is a=<a>; L3.10.3's
base=<x>,matrix=<y> is ring.pi_regular=<x>,mat2.pi_regular=<y>.  The
oracle's witness is translated to the new format before the comparison.

Two mutants, each a copy of `pirick.theorems` with one line changed, must
fail: a walk that skips the last witness, and a "mat2." scope that reads
the base ring.
"""

import dataclasses
import inspect
import itertools
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import homs, theorems
from pirick.caps import caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import zmod
from pirick.homs import _double_annihilator_closed, left_annihilator
from pirick.modules import ring_as_module
from pirick.properties import Facts
from pirick.rings import (Verdict, principal_left_ideal_keys, ring_check,
                          ring_idempotents)
from pirick.theorems import (HOLDS, NOT_MET, READING_FLAG, SKIPPED,
                             VIOLATION, _mat2, _one_minus)

from old_verdicts import witness_dict
from test_end_powers_oracle import chain_term, oracle_chains
from test_iso_oracle import _pools

CAPS = caps_from_env()
WIDE = dataclasses.replace(CAPS, matrix_check=1296)


def map_check(end, name: str) -> Verdict:
    """The map check `name` on End(M), as `theorems.map_check` read it."""
    return homs.MAP_CHECKS[name](end)


# ---------------------------------------------------------------------------
# the oracles: the entry checks as they were before, with their own copies
# of the power trail walk and the column key, which the package now reads
# off `rings.power_table` and `rings.left_annihilator_keys`
# ---------------------------------------------------------------------------


def power_trail(ring, a: int) -> list:
    """Distinct powers [a, a^2, ..., a^m] up to the first repeated value,
    one term at a time."""
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


def left_annihilator_key(ring, a: int) -> bytes:
    """The packed key of {r : r*a == 0}, from column a alone."""
    return np.packbits(ring.mul_np[:, a] == 0).tobytes()


def _chk_p2_4_1(ctx):
    facts = ctx.facts()
    if not facts.verdict("dual_rickart").holds:
        return NOT_MET, "-"
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return VIOLATION, f"f={v.counterexample}"
    bad = [f for f, (n, _) in witness_dict(v).items() if n != 1]
    if bad:
        return VIOLATION, f"f={bad[0]},n>1"
    return HOLDS, "n=1 throughout"


def _chk_l3_1(ctx):
    facts = ctx.facts()
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return NOT_MET, "-"
    end = facts.end()
    ring = end.ring
    g = ring_check(ring, "gen_left_pp")
    if not g.holds:
        return VIOLATION, f"a={g.counterexample}"
    principal = principal_left_ideal_keys(ring)
    for f, (n, e) in witness_dict(v).items():
        fn = power_trail(ring, f)[n - 1]
        im = oracle_chains(end).images[f][n - 1]
        # l_M(f^n M) == l_S(f^n) == S(1 - e)
        if not (np.array_equal(left_annihilator(end, im),
                               np.flatnonzero(ring.mul_np[:, fn] == 0))
                and _one_minus(ring.add_group, ring.one, e) in
                principal.get(left_annihilator_key(ring, fn), ())):
            return VIOLATION, f"f={f},n={n}"
    return HOLDS, f"maps={ring.order}"


def _chk_c3_3(ctx):
    facts = ctx.facts()
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return NOT_MET, "-"
    ring = facts.end().ring
    principal = principal_left_ideal_keys(ring)
    for f, (n, _) in witness_dict(v).items():
        fn = power_trail(ring, f)[n - 1]
        if left_annihilator_key(ring, fn) not in principal:
            return VIOLATION, f"f={f},n={n}"
    return HOLDS, f"maps={ring.order}"


def _chk_l3_9_2(ctx):
    end = ctx.facts().end()
    pair = map_check(end, "summand_pair")
    if not pair.holds:
        return NOT_MET, f"f={pair.counterexample}"
    v = ring_check(end.ring, "pi_regular")
    if not v.holds:
        return READING_FLAG, f"a={v.counterexample}"
    return HOLDS, "-"


def _chk_l3_10_2(ctx):
    mat = _mat2(ctx.ring, ctx.caps)
    if not ring_check(mat, "pi_regular").holds:
        return NOT_MET, "-"
    v = ring_check(ctx.ring, "pi_regular")
    if not v.holds:
        return VIOLATION, f"a={v.counterexample}"
    return HOLDS, f"|M2|={mat.order}"


def _chk_l3_10_3(ctx):
    if not ring_check(ctx.ring, "commutative").holds:
        return NOT_MET, "-"
    mat = _mat2(ctx.ring, ctx.caps)
    a = ring_check(ctx.ring, "pi_regular").holds
    b = ring_check(mat, "pi_regular").holds
    if a != b:
        return VIOLATION, f"base={a},matrix={b}"
    return HOLDS, f"both={a}"


def _chk_t3_19_1(ctx):
    facts = ctx.facts()
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return NOT_MET, "-"
    end = facts.end()
    if not ring_check(end.ring, "gen_left_pp").holds:
        return VIOLATION, "gen_left_pp"
    for f, (n, _) in witness_dict(v).items():
        im = chain_term(oracle_chains(end).images[f], n)
        if not _double_annihilator_closed(end, im):
            return VIOLATION, f"f={f},n={n}"
    return HOLDS, f"maps={end.ring.order}"


def _chk_t3_19c_1(ctx):
    facts = ctx.facts()
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return NOT_MET, "-"
    masks = facts.idem_masks()
    end = facts.end()
    for f, (n, _) in witness_dict(v).items():
        im = chain_term(oracle_chains(end).images[f], n)
        if not _double_annihilator_closed(end, im) or im not in masks:
            return VIOLATION, f"f={f},n={n}"
    return HOLDS, "-"


MODULE_ENTRIES = {"P2.4.1": _chk_p2_4_1, "L3.1": _chk_l3_1,
                  "C3.3": _chk_c3_3, "T3.19.1": _chk_t3_19_1,
                  "T3.19c.1": _chk_t3_19c_1, "L3.9.2": _chk_l3_9_2}
RING_ENTRIES = {"L3.10.2": _chk_l3_10_2, "L3.10.3": _chk_l3_10_3}


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _outcome(check):
    """(status, witness) of a check, or the skip a cap makes of it."""
    try:
        return check()
    except SizeCapExceeded as exc:
        return SKIPPED, f"cap:{exc.what}"


def _in_new_format(tid: str, witness: str, values: dict) -> str:
    """The oracle's witness in the entry's format: only the three changed
    violation witnesses differ, and only under stubbed verdicts."""
    if tid == "P2.4.1" and witness.endswith(",n>1"):
        f = int(witness[len("f="):-len(",n>1")])
        return f"f={f},n={values['dual_pi_rickart'].exponent[f]}"
    if tid == "T3.19.1" and witness == "gen_left_pp":
        return f"a={values['end.gen_left_pp'].counterexample}"
    if tid == "L3.10.3" and witness.startswith("base="):
        return witness.replace("base=", "ring.pi_regular=").replace(
            "matrix=", "mat2.pi_regular=")
    return witness


def outcomes(registry, ctx, entries: dict, values=None) -> dict:
    """id -> ((status, witness) from `registry`, theorems or a mutant of
    it, and from the oracle) on the instance."""
    out = {}
    for tid, oracle in entries.items():
        [got] = registry.verify(tid, ctx)
        status, witness = _outcome(lambda: oracle(ctx))
        if values is not None:
            witness = _in_new_format(tid, witness, values)
        out[tid] = (got.status, got.witness), (status, witness)
    return out


def disagreements(registry, ctx, entries: dict, values=None) -> list:
    """The ids whose (status, witness) differs from the oracle's."""
    return [tid for tid, (got, want)
            in outcomes(registry, ctx, entries, values).items()
            if got != want]


def _module_ctx(module, name=None):
    return theorems.InstanceContext(name or module.name, "module",
                                    module.ring, module, CAPS)


def _ring_ctx(ring, caps, name=None, registry=theorems):
    return registry.InstanceContext(name or ring.name, "ring", ring, None,
                                    caps)


def test_entries_match_the_oracles_on_the_corpus(module_instances,
                                                 ring_instances):
    for inst in module_instances:
        ctx = _module_ctx(inst.module, inst.name)
        assert disagreements(theorems, ctx, MODULE_ENTRIES) == [], inst.name
    decided = set()
    for inst, caps in itertools.product(ring_instances, (CAPS, WIDE)):
        ctx = _ring_ctx(inst.ring, caps, inst.name)
        assert disagreements(theorems, ctx, RING_ENTRIES) == [], inst.name
        if theorems.verify("L3.10.2", ctx)[0].status != SKIPPED:
            decided.add((inst.name, caps.matrix_check))
    assert {"z5", "z6"} <= {name for name, cap in decided if cap == 1296}
    assert not {"z5", "z6"} & {name for name, cap in decided if cap == 256}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_entries_match_the_oracles_on_the_pools(data):
    module = data.draw(st.sampled_from(data.draw(st.sampled_from(_pools()))))
    assert disagreements(theorems, _module_ctx(module), MODULE_ENTRIES) == []


# ---------------------------------------------------------------------------
# stubbed verdicts: the violation branches
# ---------------------------------------------------------------------------


RING = types.SimpleNamespace(order=3)          # a ring instance's ring
MAT = types.SimpleNamespace(order=81)          # and M2 of it


class StubCtx:
    """An instance, and its Facts, whose predicates read `values`: a name
    of `_verdict` -> Verdict.  End(M) is a real one, or None."""

    def __init__(self, end, values: dict):
        self.name, self.kind = "stub", "ring" if end is None else "module"
        self.ring, self.caps = RING, CAPS
        self._end, self.values = end, values

    def facts(self):
        return self

    def end(self):
        return self._end

    def verdict(self, name: str) -> Verdict:
        return self.values[name]

    def idem_masks(self) -> dict:
        return homs.idempotent_image_masks(self._end)


def stubbed_outcomes(registry, ctx, entries) -> dict:
    """`outcomes` with every predicate read from ctx.values: through
    `_verdict` in the registry, and through `Facts.verdict`, `ring_check`,
    `_mat2` and `map_check` in the oracles."""
    values = ctx.values
    here = sys.modules[__name__]

    def stub_ring_check(ring, name):
        scope = "mat2" if ring is MAT else "ring" if ring is RING else "end"
        return values[f"{scope}.{name}"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_verdict", lambda ctx, name: values[name])
        patch.setattr(here, "ring_check", stub_ring_check)
        patch.setattr(here, "_mat2", lambda ring, caps: MAT)
        patch.setattr(here, "map_check", lambda end, name: values[name])
        return outcomes(registry, ctx, entries, values)


def stubbed_disagreements(registry, ctx, entries) -> list:
    return [tid for tid, (got, want)
            in stubbed_outcomes(registry, ctx, entries).items()
            if got != want]


def _flag(holds: bool, cex) -> Verdict:
    return Verdict(holds, None if holds else cex)


def _module_stubs(end, choices):
    """The stubbed values for one choice of witness (n, e) per f of End(M)
    and of the truth of each predicate the module entries read."""
    witnesses, dual_pi, dual_rickart, gen_left_pp, pair, pi_regular = choices
    exponent, witness = np.array([nw for _, nw in witnesses]).T
    return {"dual_pi_rickart": Verdict(dual_pi, None if dual_pi else 1,
                                       exponent, witness),
            "dual_rickart": _flag(dual_rickart, 2),
            "end.gen_left_pp": _flag(gen_left_pp, 3),
            "summand_pair": _flag(pair, 4),
            "end.pi_regular": _flag(pi_regular, 5)}


def _witness_choices(end) -> list:
    """Every witness dict f -> (n, e), n within f's image chain and e an
    idempotent of End(M)."""
    idems = ring_idempotents(end.ring).tolist()
    per_map = [[(f, (n, e)) for n in range(1, len(imgs) + 1) for e in idems]
               for f, imgs in enumerate(oracle_chains(end).images)]
    return list(itertools.product(*per_map))


def _z4_stubs():
    """Every stubbed choice of witnesses and predicates on End(Z/4)."""
    end = Facts(ring_as_module(zmod(4, CAPS), CAPS), CAPS).end()
    for choices in itertools.product(_witness_choices(end),
                                     *[(True, False)] * 5):
        yield StubCtx(end, _module_stubs(end, choices))


def _ring_stubs():
    """Every stubbed choice of the three predicates of the ring entries."""
    for truth in itertools.product((True, False), repeat=3):
        yield StubCtx(None, dict(zip(
            ("ring.commutative", "ring.pi_regular", "mat2.pi_regular"),
            (_flag(t, a) for t, a in zip(truth, (6, 7, 8))))))


def test_stubbed_verdicts_reach_every_branch():
    """The outcomes agree on every stub, and between them reach every
    status of every entry."""
    reached = set()
    for stubs, entries in ((_z4_stubs(), MODULE_ENTRIES),
                           (_ring_stubs(), RING_ENTRIES)):
        for ctx in stubs:
            pairs = stubbed_outcomes(theorems, ctx, entries)
            assert all(got == want for got, want in pairs.values()), pairs
            reached |= {(tid, got[0]) for tid, (got, _) in pairs.items()}
    fails = {tid: READING_FLAG if tid == "L3.9.2" else VIOLATION
             for tid in {**MODULE_ENTRIES, **RING_ENTRIES}}
    assert reached == {(tid, status) for tid, fail in fails.items()
                       for status in (HOLDS, NOT_MET, fail)}


@st.composite
def pool_stubs(draw):
    """A pool module's End(M), one witness (n, e) per f within its image
    chain, and the truth of each predicate."""
    module = draw(st.sampled_from(draw(st.sampled_from(_pools()))))
    end = Facts(module, CAPS).end()
    idems = ring_idempotents(end.ring).tolist()
    witnesses = [(f, (draw(st.integers(1, len(imgs))),
                      draw(st.sampled_from(idems))))
                 for f, imgs in enumerate(oracle_chains(end).images)]
    flags = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    return end, (witnesses, *flags)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pool_stubs())
def test_stubbed_verdicts_match_the_oracles_on_the_pools(stub):
    end, choices = stub
    ctx = StubCtx(end, _module_stubs(end, choices))
    assert stubbed_disagreements(theorems, ctx, MODULE_ENTRIES) == []


# ---------------------------------------------------------------------------
# the mutants
# ---------------------------------------------------------------------------


def _mutant(monkeypatch, old: str, new: str):
    """A copy of `pirick.theorems` whose source has `old` replaced by
    `new`, once."""
    source = inspect.getsource(theorems)
    assert source.count(old) == 1
    mutant = types.ModuleType("pirick.theorems_mutant")
    mutant.__package__ = "pirick"
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(old, new), theorems.__file__, "exec"),
         mutant.__dict__)
    return mutant


def test_a_walk_that_skips_the_last_witness_is_caught(monkeypatch):
    walk = "zip(v.exponent.tolist(), v.witness.tolist())"
    mutant = _mutant(monkeypatch, walk, f"list({walk})[:-1]")
    caught = set()
    for ctx in _z4_stubs():
        caught |= set(stubbed_disagreements(mutant, ctx, MODULE_ENTRIES))
    assert caught == {"L3.1"}


def test_a_mat2_scope_that_reads_the_base_ring_is_caught(monkeypatch,
                                                         ring_instances):
    mutant = _mutant(monkeypatch,
                     "return ring_check(_mat2(ctx.ring, ctx.caps), check)",
                     "return ring_check(ctx.ring, check)")
    caught = set()
    for inst in ring_instances:
        assert disagreements(theorems, _ring_ctx(inst.ring, CAPS),
                             RING_ENTRIES) == []
        caught |= set(disagreements(
            mutant, _ring_ctx(inst.ring, CAPS, registry=mutant),
            RING_ENTRIES))
    assert caught == set(RING_ENTRIES)
