"""Implication registry: expansion, scoping, statuses, summaries."""

import pathlib

import pytest

from pirick import homs, modules, properties, rings, theorems
from pirick.caps import Caps, caps_from_env
from pirick.cli import main
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
    # a family's gate fires after the hypotheses: t2z2 (order 8) is not
    # commutative, z5 (order 5) is
    assert verify("P3.11", _ring_ctx(ring))[0].status == NOT_MET
    for tid in ("P3.11", "T2.15"):
        assert verify(tid, _ring_ctx(zmod(5)))[0].witness == \
            "cap:rank-2 endomorphism ring"


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


def _fail_at(monkeypatch, k):
    """Stub _dual_pi_of: the k-th module asked about (from 1; never for
    k=0) is not dual pi-Rickart, with f=9.  Returns the modules asked."""
    asked = []

    def dual_pi_of(module, caps):
        asked.append(module)
        return Verdict(len(asked) != k, 9)

    monkeypatch.setattr(theorems, "_dual_pi_of", dual_pi_of)
    return asked


def _fresh_ctx(name):
    """A context on a fresh object: a corpus ring, its right regular module
    (<ring>_reg) or its rank-2 free module (<ring>_free2)."""
    ring_name, _, kind = name.partition("_")
    ring = _fresh_ring(ring_name)
    if not kind:
        return _ring_ctx(ring)
    if kind == "reg":
        return _module_ctx(ring_as_module(ring, CAPS, name=name))
    return _module_ctx(modules.free_module(ring, 2, CAPS, name=name))


# End(Z_6) = Z_6 has the nontrivial idempotents 3 and 4 and the submodules
# of sizes 1, 2, 3, 6 (rad 0, soc Z_6); Z_2^2 has two fully invariant
# submodules (0 and all) of five; End(Z_2^2) = M_2(Z_2) has the nonzero
# idempotents 2, 3, 4, 5, 6, 10, 12, where 6 is the identity; the other six
# have three images (the lines of Z_2^2), each built once.
FAMILY_CASES = [
    # entry, instance, k, verdict, submodule and free modules built
    ("P2.11", "z6_reg", 1, (VIOLATION, "e=3,f=9"), 1),
    ("P2.11", "z6_reg", 2, (VIOLATION, "e=4,f=9"), 2),
    ("P2.11", "z6_reg", 0, (HOLDS, "summands=2"), 2),
    ("C2.12", "z6", 3, (VIOLATION, "e=3,f=9"), 3),
    ("T2.14.1", "z6", 2, (VIOLATION, "e=1,f=9"), 2),
    ("T2.14.1", "z6", 0, (HOLDS, "ideals=4"), 4),
    ("T2.15", "z2", 1, (VIOLATION, "rank=1,f=9"), 0),
    ("T2.15", "z2", 2, (VIOLATION, "rank=2,f=9"), 1),
    ("T2.15", "z2", 3, (VIOLATION, "rank=2,e=2,f=9"), 2),
    ("T2.15", "z2", 0, (HOLDS, "modules=8"), 4),
    ("P3.11", "z2", 1, (VIOLATION, "e=2,f=9"), 2),
    ("P3.11", "z2", 5, (VIOLATION, "e=6,f=9"), 4),
    ("P3.11", "z2", 0, (HOLDS, "projectives=7"), 4),
    # the quasi-projective hypothesis has built every quotient already
    ("C3.15", "z2_free2", 2, (VIOLATION, "N=4,f=9"), 0),
    ("C3.15", "z2_free2", 0, (HOLDS, "quotients=2"), 0),
    ("C3.16", "z6_reg", 3, (VIOLATION, "N=3,f=9"), 0),
    ("C3.16", "z6_reg", 0, (HOLDS, "quotients=4"), 0),
    ("C3.17", "z6_reg", 1, (VIOLATION, "rad,f=9"), 0),
    ("C3.17", "z6_reg", 2, (VIOLATION, "soc,f=9"), 0),
    ("C3.17", "z6_reg", 0, (HOLDS, "|rad|=1,|soc|=6"), 0),
]


def test_each_dual_pi_loop_names_the_first_failure(monkeypatch,
                                                  fresh_intern):
    for tid, name, k, verdict, builds in FAMILY_CASES:
        fresh_intern.clear()            # nothing of the structure is known
        ctx = _fresh_ctx(name)
        with monkeypatch.context() as patch:
            asked = _fail_at(patch, k)
            inner = _count_calls(patch, modules.submodule_module)
            free = _count_calls(patch, modules.free_module)
            got = REGISTRY[tid].check(ctx)
        case = (tid, name, k)
        assert got == verdict, case
        assert len(asked) == (k or len(asked)), case
        assert len(inner) + len(free) == builds, case
    # P3.11's fifth projective is R^2 itself, not a copy of it
    ctx = _fresh_ctx("z2")
    asked = _fail_at(monkeypatch, 5)
    REGISTRY["P3.11"].check(ctx)
    assert asked[-1] is ctx.free2()


# ---------------------------------------------------------------------------
# derived objects of a ring instance: built once, whatever ran before
# ---------------------------------------------------------------------------


def _fresh_ring(name):
    """The corpus ring, parsed again: a new object."""
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
def test_each_summand_ideal_and_corner_is_built_once(monkeypatch, name,
                                                    fresh_intern):
    ring = _fresh_ring(name)
    ctx = _ring_ctx(ring)
    idems = ring_idempotents(ring).tolist()
    built = _count_calls(monkeypatch, modules.submodule_module)
    verdicts = verify_all(ctx, ["C2.12", "T2.14.1", "T2.14.2"])
    assert [v.status for v in verdicts] == [HOLDS] * 3
    ideals = {elems_mask(ring.mul_np[e], ring.order) for e in idems}
    assert sorted(sub for _, sub, *_ in built) == sorted(ideals)
    corners = _count_calls(monkeypatch, rings.corner_ring)
    verify_all(ctx, ["C2.13", "C3.2", "L3.10.1"])
    assert sorted(e for _, e, *_ in corners) == [e for e in idems if e]


@pytest.mark.parametrize("name", ["z12", "t2z2", "m2z2", "z2xz3"])
def test_ring_entries_do_not_depend_on_what_ran_before(name):
    shared = verify_all(_ring_ctx(_fresh_ring(name)))
    alone = [v for tid in expand_ids() if REGISTRY[tid].scope == "ring"
             for v in verify_all(_ring_ctx(_fresh_ring(name)), [tid])]
    assert alone == shared


def test_p2_17_builds_no_end_ring_table(misses, fresh_intern, capsys):
    """P2.17 reads 1 - e off End(M)'s maps, whose additive group and
    identity are its ring table's, and asks for no ring table."""
    assert main(["verify", str(CORPUS), "--theorems", "P2.17"]) == 0
    assert "holds=4 hypothesis_not_met=17" in capsys.readouterr().out
    assert misses.of(homs.end_ring)
    assert misses.of(homs.end_table) == []
