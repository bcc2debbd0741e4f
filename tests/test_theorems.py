"""Implication registry: expansion, scoping, statuses, summaries."""

import pathlib

import pytest

from pirick import homs, modules, properties, rings, theorems
from pirick.caps import Caps, caps_from_env
from pirick.errors import UnknownTheorem
from pirick.families import ex23_module, ex23_ring, zmod
from pirick.io import parse_ring
from pirick.modules import elems_mask, ring_as_module
from pirick.rings import Verdict, ring_idempotents
from pirick.theorems import (HOLDS, InstanceContext, NOT_MET, REGISTRY,
                             SKIPPED, VIOLATION, expand_ids, summarize,
                             verify, verify_all)

CAPS = caps_from_env()
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _ring_ctx(ring, name=None):
    return InstanceContext(name or ring.name, "ring", ring, None, CAPS)


def _module_ctx(module, name=None):
    return InstanceContext(name or module.name, "module", module.ring,
                           module, CAPS)


def test_registry_is_complete():
    assert len(REGISTRY) == 52
    # directed splits keep both directions addressable
    assert "P2.2.1" in REGISTRY and "P2.2.2" in REGISTRY
    assert "T3.19.1" in REGISTRY and "T3.19c.1" in REGISTRY


def test_expand_ids_prefix_rules():
    assert expand_ids(["P2.2"]) == ["P2.2.1", "P2.2.2"]
    assert expand_ids(["P2.2.1"]) == ["P2.2.1"]
    # a prefix never leaks into a sibling family: T3.19 has its own entries
    # and T3.19c is distinct
    t319 = expand_ids(["T3.19"])
    assert t319 == ["T3.19.1", "T3.19.2"]
    assert expand_ids(["T3.19c"]) == ["T3.19c.1", "T3.19c.2"]
    assert expand_ids() == list(REGISTRY)
    with pytest.raises(UnknownTheorem):
        expand_ids(["T9.99"])


def test_ring_equivalence_entries_on_z4():
    ctx = _ring_ctx(zmod(4))
    verdicts = verify("P2.2", ctx)
    assert [v.status for v in verdicts] == [HOLDS, HOLDS]
    assert all(v.instance == "z4" for v in verdicts)


def test_scope_mismatch_is_skipped():
    ctx = _ring_ctx(zmod(4))
    verdicts = verify("T2.7", ctx)        # needs a module instance
    assert all(v.status == SKIPPED for v in verdicts)
    assert "module instance" in verdicts[0].witness


def test_module_entries_on_z4_regular():
    module = ring_as_module(zmod(4), CAPS, name="z4_reg")
    ctx = _module_ctx(module)
    verdicts = verify_all(ctx)
    statuses = {v.theorem_id: v.status for v in verdicts}
    assert VIOLATION not in statuses.values()
    # the dual condition holds, so the n=1 specialization entry must fire
    assert statuses["P2.4.1"] in (HOLDS, NOT_MET)
    assert statuses["C2.21"] == HOLDS     # Fitting at desk scale
    assert statuses["T3.20"] == HOLDS


def test_non_reduced_hypothesis_not_met():
    # the reduced => n=1 transfer entry cannot fire on a non-reduced instance
    module = ring_as_module(zmod(4), CAPS, name="z4_reg")
    verdicts = verify("P2.4.2", _module_ctx(module))
    assert verdicts[0].status == NOT_MET


def test_ex23_runs_clean():
    module = ex23_module(CAPS)
    verdicts = verify_all(_module_ctx(module, "ex23"))
    assert all(v.status != VIOLATION for v in verdicts)
    by_id = {v.theorem_id: v for v in verdicts}
    # the instance separates the two dual conditions, so the equivalence
    # under the reduced hypothesis must be vacuous here, not violated
    assert by_id["P2.4.2"].status in (NOT_MET, HOLDS)


def test_matrix_gated_entries_skip_on_large_rings():
    ring = ex23_ring(CAPS)                # order 8 -> 8^4 exceeds the gate
    verdicts = verify("T2.15", _ring_ctx(ring))
    assert any(v.status == SKIPPED and v.witness.startswith("cap:")
               for v in verdicts) or all(v.status != VIOLATION
                                         for v in verdicts)


def test_summarize_counts_and_never_fired():
    module = ring_as_module(zmod(4), CAPS, name="z4_reg")
    verdicts = verify_all(_module_ctx(module))
    summary = summarize(verdicts)
    assert summary["total"] == len(verdicts)
    assert summary["counts"][VIOLATION] == 0
    assert sum(summary["counts"].values()) == summary["total"]
    # ids that only report hypothesis_not_met on this instance are listed
    assert isinstance(summary["never_fired"], list)


def test_wrong_kind_construction_rejected():
    from pirick.errors import PirickError
    with pytest.raises(PirickError):
        InstanceContext("x", "monoid", zmod(4), None, CAPS)


def test_ring_memos_respect_caps():
    # each memo below used to serve a build made under looser caps
    ring = zmod(2)
    loose = _ring_ctx(ring)
    tight = InstanceContext("z2", "ring", ring, None, Caps(construct=8))
    assert verify("L3.10.2", loose)[0].status == HOLDS      # 2x2 matrices
    assert verify("L3.10.2", tight)[0].witness == "cap:matrix ring over z2"
    tighter = InstanceContext("z2", "ring", ring, None, Caps(construct=2))
    assert verify("T2.15", loose)[0].status == HOLDS        # rank-2 free
    assert verify("T2.15", tighter)[0].witness == "cap:module construction"


# ---------------------------------------------------------------------------
# implications declared as data: the rule's outcomes and witness strings,
# driven by stubbed predicates (the corpus never reaches a violation)
# ---------------------------------------------------------------------------


class _StubFacts:
    def facts(self):
        return self

    def end(self):
        return None


def _run_stubbed(monkeypatch, tid, values):
    """Evaluate one entry with predicates read from `values`: name ->
    (holds, counterexample); records the names decided, in order."""
    asked = []

    def decide(facts, name):
        asked.append(name)
        return values[name]

    monkeypatch.setattr(theorems, "_decide", decide)
    return REGISTRY[tid].check(_StubFacts()), asked


def test_implication_violation_witnesses(monkeypatch):
    ok = (True, None)
    got, _ = _run_stubbed(monkeypatch, "T2.7.1", {
        "d2": ok, "dual_pi_rickart": ok, "pi_rickart": (False, 3)})
    assert got == (VIOLATION, "f=3")
    got, _ = _run_stubbed(monkeypatch, "T3.12.1", {
        "d2": ok, "dual_pi_rickart": ok, "end.pi_regular": (False, 5)})
    assert got == (VIOLATION, "a=5")
    hyps = {"morphic": ok, "indecomposable": ok, "dual_pi_rickart": ok}
    got, _ = _run_stubbed(monkeypatch, "T3.22.2", {
        **hyps, "end.local": (False, None), "end.nil_radical": (False, 7)})
    assert got == (VIOLATION, "local,nil_radical")
    got, _ = _run_stubbed(monkeypatch, "T3.22.2", {
        **hyps, "end.local": ok, "end.nil_radical": (False, 7)})
    assert got == (VIOLATION, "nil_radical")
    got, _ = _run_stubbed(monkeypatch, "T3.22.2", {
        **hyps, "end.local": ok, "end.nil_radical": ok})
    assert got == (HOLDS, "-")


def test_implication_hypotheses_stop_at_first_false(monkeypatch):
    got, asked = _run_stubbed(monkeypatch, "T3.22.2", {
        "morphic": (True, None), "indecomposable": (False, 1)})
    assert got == (NOT_MET, "-")
    assert asked == ["morphic", "indecomposable"]


def test_equivalence_witnesses(monkeypatch):
    ok = (True, None)
    got, _ = _run_stubbed(monkeypatch, "T2.7.3", {
        "quasi_projective": ok, "morphic": ok,
        "pi_rickart": ok, "dual_pi_rickart": (False, 2)})
    assert got == (VIOLATION, "pi_rickart=True,dual_pi_rickart=False")
    got, _ = _run_stubbed(monkeypatch, "C2.8", {
        "c2": ok, "d2": ok,
        "dual_pi_rickart": (False, 2), "pi_rickart": (False, 4)})
    assert got == (HOLDS, "both=False")
    got, asked = _run_stubbed(monkeypatch, "C2.8", {
        "c2": (False, None)})
    assert got == (NOT_MET, "-") and asked == ["c2"]


def test_each_dual_pi_loop_names_the_first_failure(monkeypatch):
    # z4 has the idempotents 0 and 1; only 1*R has order 4
    monkeypatch.setattr(theorems, "_dual_pi_of",
                        lambda module, caps: Verdict(module.order != 4, {}, 9))
    ctx = _ring_ctx(zmod(4))
    assert REGISTRY["C2.12"].check(ctx) == (VIOLATION, "e=1,f=9")
    assert REGISTRY["T2.15"].check(ctx) == (VIOLATION, "rank=1,f=9")


# ---------------------------------------------------------------------------
# derived objects of a ring instance: built once, whatever ran before
# ---------------------------------------------------------------------------


def _fresh_ring(name):
    """The corpus ring, parsed again: a new object with empty memos."""
    return parse_ring(CORPUS / f"{name}.ring", CAPS)


def _count_calls(monkeypatch, fn):
    """The arguments of every call of fn, wherever pirick binds it."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return fn(*args, **kwargs)

    for mod in (homs, modules, properties, rings, theorems):
        if getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counting)
    return seen


@pytest.mark.parametrize("name", ["t2z2", "z12"])
def test_each_summand_ideal_and_corner_is_built_once(monkeypatch, name):
    ring = _fresh_ring(name)
    ctx = _ring_ctx(ring)
    idems = ring_idempotents(ring).tolist()
    built = _count_calls(monkeypatch, modules.submodule_module)
    verdicts = verify_all(ctx, ["C2.12", "T2.14.1", "T2.14.2"])
    assert [v.status for v in verdicts] == [HOLDS] * 3
    ideals = {elems_mask(ring.mul_np[e], ring.order) for e in idems}
    assert sorted(sub.mask for sub, *_ in built) == sorted(ideals)
    corners = _count_calls(monkeypatch, rings.corner_ring)
    verify_all(ctx, ["C2.13", "C3.2", "L3.10.1"])
    assert sorted(e for _, e, *_ in corners) == [e for e in idems if e]


@pytest.mark.parametrize("name", ["z12", "t2z2", "m2z2", "z2xz3"])
def test_ring_entries_do_not_depend_on_what_ran_before(name):
    shared = verify_all(_ring_ctx(_fresh_ring(name)))
    alone = [v for tid in expand_ids() if REGISTRY[tid].scope == "ring"
             for v in verify_all(_ring_ctx(_fresh_ring(name)), [tid])]
    assert alone == shared
