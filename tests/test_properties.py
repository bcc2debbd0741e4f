"""Property deciders: frozen expectations for the standard instances."""

import dataclasses

import pytest

import pirick.properties as properties
from pirick.caps import Caps, caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import ex23_module, zmod
from pirick.homs import end_ring, hom_set
from pirick.io import parse_module
from pirick.modules import ring_as_module
from pirick.properties import (DECIDERS, Facts, PROPERTY_ORDER, analyze,
                               left_singular_ideal, render_report,
                               singular_nil_jacobson, small_image_endos)

CAPS = caps_from_env()

# expected status per property, from exhaustive enumeration of the instance
Z4_REG = {
    "dual_rickart": "false", "dual_pi_rickart": "true",
    "rickart": "false", "pi_rickart": "true", "fitting": "true",
    "morphic": "true", "co_hopfian": "true", "strongly_co_hopfian": "true",
    "strongly_hopfian": "true", "c2": "true", "d2": "true",
    "abelian": "true", "duo": "true", "self_cogenerator": "true",
    "quasi_projective": "true", "indecomposable": "true",
}
EX23 = {
    "dual_rickart": "false", "dual_pi_rickart": "true",
    "rickart": "true", "pi_rickart": "true", "fitting": "true",
    "morphic": "false", "co_hopfian": "true", "strongly_co_hopfian": "true",
    "strongly_hopfian": "true", "c2": "false", "d2": "true",
    "abelian": "false", "duo": "false", "self_cogenerator": "false",
    "quasi_projective": "true", "indecomposable": "false",
}


def test_property_order_is_stable():
    assert PROPERTY_ORDER == (
        "dual_rickart", "dual_pi_rickart", "rickart", "pi_rickart",
        "fitting", "morphic", "co_hopfian", "strongly_co_hopfian",
        "strongly_hopfian", "c2", "d2", "abelian", "duo",
        "self_cogenerator", "quasi_projective", "indecomposable")


def test_z4_regular_module_statuses():
    report = analyze(ring_as_module(zmod(4), CAPS, name="z4_reg"), CAPS)
    assert report.statuses == Z4_REG
    assert report.end_order == 4
    assert report.idempotent_count == 2
    assert report.max_witness_n == 2


def test_ex23_statuses():
    report = analyze(ex23_module(CAPS), CAPS)
    assert report.statuses == EX23
    assert report.end_order == 8
    assert report.idempotent_count == 6
    assert report.max_witness_n == 2


def test_z6_everything_positive():
    report = analyze(ring_as_module(zmod(6), CAPS, name="z6_reg"), CAPS)
    negatives = {p for p, s in report.statuses.items() if s != "true"}
    assert negatives == {"indecomposable"}
    assert report.max_witness_n == 1


def test_dual_pi_rickart_witnesses_on_z4():
    module = ring_as_module(zmod(4), CAPS)
    facts = Facts(module, CAPS)
    verdict = facts.verdict("dual_pi_rickart")
    assert verdict.holds
    # the doubling map needs exponent 2 and lands on the zero idempotent
    end = facts.end()
    doubling = _doubling(end)
    assert verdict.witnesses[doubling] == (2, 0)


def _doubling(end) -> int:
    return [i for i in range(4) if end.tables[i].tolist() == [0, 2, 0, 2]][0]


def test_min_exponent(z4_reg=None):
    # the smallest n with Im f^n = e(M), and the smallest such idempotent e
    module = ring_as_module(zmod(4), CAPS)
    end = end_ring(module, CAPS)
    witnesses = DECIDERS["dual_pi_rickart"](Facts(module, CAPS)).witnesses
    assert witnesses[_doubling(end)] == (2, 0)
    assert witnesses[end.ring.one] == (1, end.ring.one)


def test_skipped_when_lattice_cap_hit():
    tight = dataclasses.replace(CAPS, lattice=2)
    report = analyze(ring_as_module(zmod(4), CAPS), tight)
    assert report.statuses["c2"] == "skipped"
    assert report.statuses["duo"] == "skipped"
    # chain/idempotent based properties never need the lattice
    assert report.statuses["dual_pi_rickart"] == "true"
    assert report.statuses["fitting"] == "true"
    assert report.witnesses["c2"].startswith("cap:")


def test_left_singular_ideal():
    assert left_singular_ideal(zmod(6), CAPS).tolist() == [0]
    assert left_singular_ideal(zmod(4), CAPS).tolist() == [0, 2]


def test_singular_nil_jacobson_on_z4():
    verdict, sing = singular_nil_jacobson(zmod(4), CAPS)
    assert verdict.holds
    assert sing.tolist() == [0, 2]
    assert verdict.witnesses[2] == 2      # 2^2 = 0


def test_small_image_endos_on_z4():
    module = ring_as_module(zmod(4), CAPS)
    facts = Facts(module, CAPS)
    rows = small_image_endos(facts)
    # maps with small image: the zero map and doubling; both nilpotent
    assert len(rows) == 2
    assert all(is_nil for _, is_nil, _ in rows)
    indices = sorted(idx for _, _, idx in rows)
    assert indices == [1, 2]


def test_render_report_formats():
    report = analyze(ring_as_module(zmod(4), CAPS, name="z4_reg"), CAPS)
    machine = render_report(report, fmt="machine")
    assert machine.startswith("instance=z4_reg;")
    assert "dual_pi_rickart=true" in machine
    assert "dual_rickart=false" in machine
    text = render_report(report, fmt="text", show_witnesses=True)
    assert "dual_pi_rickart" in text and "true" in text


def test_analyze_is_memoized_per_caps():
    module = ring_as_module(zmod(4), CAPS)
    facts_a = Facts(module, CAPS)
    facts_b = Facts(module, CAPS)
    va = facts_a.verdict("fitting")
    vb = facts_b.verdict("fitting")
    assert va is vb


def test_decider_table_holds_distinct_public_functions():
    fns = list(DECIDERS.values())
    assert len(set(fns)) == len(PROPERTY_ORDER)
    for fn in fns:
        assert not fn.__name__.startswith("_")
        assert getattr(properties, fn.__name__) is fn


def test_caps_decide_even_after_a_looser_run():
    module = ring_as_module(zmod(12), CAPS, name="z12_reg")
    tight = Caps(hom=2)
    assert analyze(module, tight).statuses["dual_pi_rickart"] == "skipped"
    assert analyze(module, CAPS).statuses["dual_pi_rickart"] == "true"
    # the End(M) built under the default caps must not leak into this run
    assert analyze(module, tight).statuses["dual_pi_rickart"] == "skipped"


def test_left_singular_ideal_respects_caps():
    ring = zmod(12)
    assert left_singular_ideal(ring, CAPS).tolist() == [0, 6]
    with pytest.raises(SizeCapExceeded):
        left_singular_ideal(ring, Caps(lattice=4))


def test_quasi_projective_names_the_first_map_that_does_not_lift(z4):
    # Z2 + Z4 over Z4: the corpus has no module that is not quasi-projective
    module = parse_module("z2xz4.mod", {"z4": z4}, CAPS, text=(
        "module z2xz4 over z4\nadd 2 4\nact 1 1 1 0\nact 1 2 0 1\nend\n"))
    facts = Facts(module, CAPS)
    v = facts.verdict("quasi_projective")
    assert (v.holds, v.counterexample) == \
        (False, (5, (0, 0, 0, 0, 2, 2, 2, 2)))
    mask, h = v.counterexample
    quot, proj = facts.quotient(mask)
    tables = end_ring(module, CAPS).tables
    lifted = {tuple(row) for row in proj.table_np[tables].tolist()}
    homs = [tuple(row) for row in hom_set(module, quot, CAPS).tolist()]
    assert h == next(g for g in homs if g not in lifted)
