"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Each criterion is checked at its stated tolerance -- exact equality or exact
counts throughout; nothing here is approximate.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest

from pirick.caps import caps_from_env
from pirick.catalog import catalog_rows, render_catalog
from pirick.cli import main
from pirick.errors import SizeCapExceeded
from pirick.homs import (end_ring, end_table, idempotent_image_masks,
                         left_annihilator, right_annihilator)
from pirick.modules import (all_submodules, elems_mask, is_direct_summand,
                            quotient_module, ring_as_module,
                            submodule_module)
from pirick.properties import (DECIDERS, Facts, singular_nil_jacobson,
                               small_image_endos)
from pirick.query import match_report, parse_query
from pirick.rings import ring_check
from pirick.theorems import (HOLDS, InstanceContext, VIOLATION, summarize,
                             verify_all)

from old_verdicts import witness_dict

CAPS = caps_from_env()
REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "reference" / "verify_corpus.out"


def _power(table, n: int):
    """The table of the n-th compositional power of an endomorphism."""
    out = np.arange(table.size)
    for _ in range(n):
        out = table[out]
    return out


@pytest.fixture
def announce(capsys):
    """Print one visible PASS/FAIL line per criterion, then assert."""
    def _line(num: int, name: str, ok: bool, detail: str = ""):
        msg = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            msg += f" [{detail}]"
        with capsys.disabled():
            print(f"\n{msg}", flush=True)
        assert ok, msg
    return _line


# ---------------------------------------------------------------------------
# 1. the eight-endomorphism case table
# ---------------------------------------------------------------------------


def test_criterion_01_case_table(instances, reports, announce):
    ex23 = next(i.module for i in instances if i.name == "ex23")
    end = end_ring(ex23, CAPS)
    group = ex23.add_group

    def param_table(a, b, c):
        # f(x, y, z) = (a*x, b*y, c*x + b*z) on coordinates of Z_2^3
        table = []
        for m in range(8):
            x, y, z = group.tuple_of(m)
            table.append(group.index_of(
                ((a * x) % 2, (b * y) % 2, (c * x + b * z) % 2)))
        return tuple(table)

    expected = {(a, b, c): param_table(a, b, c)
                for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    actual = {tuple(row) for row in end.tables.tolist()}
    ok = len(end.tables) == 8 and set(expected.values()) == actual

    by_param = {abc: t for abc, t in expected.items()}
    lower_row = frozenset({0, 1, 2, 3})

    def image_set(abc):
        return frozenset(set(by_param[abc]))

    checks = {
        "epi_111": len(image_set((1, 1, 1))) == 8,
        "square_zero_001": all(
            by_param[(0, 0, 1)][by_param[(0, 0, 1)][m]] == 0
            for m in range(8)),
        "lower_row_011": image_set((0, 1, 1)) == lower_row,
        "lower_row_010": image_set((0, 1, 0)) == lower_row,
        "order2_101": image_set((1, 0, 1)) == frozenset({0, 5}),
        "order2_100": image_set((1, 0, 0)) == frozenset({0, 4}),
        "identity_110": by_param[(1, 1, 0)] == tuple(range(8)),
        "zero_000": by_param[(0, 0, 0)] == tuple([0] * 8),
    }
    ok = ok and all(checks.values())

    # the images claimed to be summands are summands
    lattice = set(all_submodules(ex23, CAPS))
    idempotent_images = idempotent_image_masks(end)
    for abc in ((0, 1, 1), (0, 1, 0), (1, 0, 1), (1, 0, 0)):
        mask = sum(1 << m for m in image_set(abc))
        ok = ok and mask in lattice and mask in idempotent_images

    report = reports["ex23"]
    ok = ok and report.statuses["dual_pi_rickart"] == "true"
    ok = ok and report.statuses["dual_rickart"] == "false"
    # the recorded counterexample is exactly the (0,0,1) map
    facts = Facts(ex23, CAPS)
    verdict = facts.verdict("dual_rickart")
    counter = tuple(end.tables[verdict.counterexample].tolist())
    ok = ok and counter == by_param[(0, 0, 1)]

    announce(1, "endomorphism case table", ok,
          f"8 maps, {sum(checks.values())}/8 cases, "
          f"counterexample table {counter}")


# ---------------------------------------------------------------------------
# 2. ring-level equivalence on every corpus ring
# ---------------------------------------------------------------------------


def test_criterion_02_ring_equivalence(ring_instances, announce):
    mismatches = []
    for inst in ring_instances:
        reg = ring_as_module(inst.ring, CAPS, name=f"{inst.name}_as_module")
        facts = Facts(reg, CAPS)
        dual_pi = facts.verdict("dual_pi_rickart").holds
        pi_reg = ring_check(inst.ring, "pi_regular").holds
        if dual_pi != pi_reg:
            mismatches.append(inst.name)
    announce(2, "regular-module/ring equivalence", not mismatches,
          f"{len(ring_instances)} rings, {len(mismatches)} mismatches")


# ---------------------------------------------------------------------------
# 3. universal desk-scale facts
# ---------------------------------------------------------------------------


def test_criterion_03_universal_facts(module_instances, reports, announce):
    failures = []
    for inst in module_instances:
        report = reports[inst.name]
        for prop in ("fitting", "strongly_co_hopfian", "dual_pi_rickart"):
            if report.statuses[prop] != "true":
                failures.append(f"{inst.name}:{prop}")
        ring = end_table(end_ring(inst.module, CAPS))
        if not ring_check(ring, "strongly_pi_regular").holds:
            failures.append(f"{inst.name}:end_strongly_pi_regular")
        if not ring_check(ring, "gen_left_pp").holds:
            failures.append(f"{inst.name}:end_generalized_left_pp")
    announce(3, "universal module and endomorphism-ring facts", not failures,
          f"{len(module_instances)} modules, failures: {failures or 'none'}")


# ---------------------------------------------------------------------------
# 4. separation witnesses through the query engine
# ---------------------------------------------------------------------------


def test_criterion_04_separations(reports, announce):
    def matches(expr):
        query = parse_query(expr)
        return {name for name, report in reports.items()
                if match_report(query, report)[0]}

    first = matches("dual_pi_rickart & !dual_rickart")
    second = matches("pi_rickart & !rickart")
    ok = {"z4_reg", "ex23"} <= first and {"z4_reg"} <= second
    announce(4, "separation witnesses", ok,
          f"dual separation {sorted(first)}; kernel separation "
          f"{sorted(second)}")


# ---------------------------------------------------------------------------
# 5. annihilator identities at every witness
# ---------------------------------------------------------------------------


def test_criterion_05_annihilator_identities(module_instances, announce):
    checked = failures = 0
    for inst in module_instances:
        module = inst.module
        end = end_ring(module, CAPS)
        ring = end_table(end)
        neg = ring.add_group.neg_vector()
        add = ring.add_group.add_table()
        # f -> (smallest n with Im f^n = e(M), smallest such idempotent e)
        witnesses = witness_dict(
            DECIDERS["dual_pi_rickart"](Facts(module, CAPS)))
        for f in range(ring.order):
            n, e = witnesses[f]
            fn = _power(end.tables[f], n)
            fn_idx = int(np.flatnonzero((end.tables == fn).all(axis=1))[0])
            im = elems_mask(fn, module.order)
            ok1 = im == elems_mask(end.tables[e], module.order)
            left_ann = np.nonzero(ring.mul_np[:, fn_idx] == 0)[0]
            one_minus_e = int(add[ring.one, neg[e]])
            principal = np.unique(ring.mul_np[:, one_minus_e])
            ok2 = np.array_equal(left_ann, np.sort(principal))
            closure = right_annihilator(end, left_annihilator(end, im))
            ok3 = closure == im
            checked += 1
            if not (ok1 and ok2 and ok3):
                failures += 1
    announce(5, "annihilator identities at witnesses", failures == 0,
          f"{checked} endomorphisms, {failures} failures")


# ---------------------------------------------------------------------------
# 6. the two summand oracles agree on >= 500 pairs
# ---------------------------------------------------------------------------


def test_criterion_06_summand_oracle_agreement(module_instances, announce):
    pairs = disagreements = 0

    def check(module):
        nonlocal pairs, disagreements
        lattice = all_submodules(module, CAPS)
        idempotent_images = idempotent_image_masks(end_ring(module, CAPS))
        for sub in lattice:
            by_complement, _ = is_direct_summand(module, sub, CAPS)
            by_idempotent = sub in idempotent_images
            pairs += 1
            if by_complement != by_idempotent:
                disagreements += 1
        return lattice

    for inst in module_instances:
        try:
            lattice = check(inst.module)
        except SizeCapExceeded:
            continue
        for sub in lattice:
            if 1 < sub.bit_count() < inst.module.order:
                quotient, _ = quotient_module(inst.module, sub, CAPS)
                check(quotient)
                inner, _ = submodule_module(inst.module, sub, CAPS)
                check(inner)

    ok = pairs >= 500 and disagreements == 0
    announce(6, "summand oracle agreement", ok,
          f"{pairs} pairs, {disagreements} disagreements")


# ---------------------------------------------------------------------------
# 7. implication registry over the corpus
# ---------------------------------------------------------------------------


def test_criterion_07_registry_run(instances, announce):
    verdicts = []
    for inst in instances:
        kind = inst.kind
        ctx = InstanceContext(inst.name, kind, inst.ring,
                              inst.module if kind == "module" else None,
                              CAPS)
        verdicts.extend(verify_all(ctx))
    summary = summarize(verdicts)
    violations = summary["counts"][VIOLATION]
    holders = {v.theorem_id for v in verdicts if v.status == HOLDS}
    ok = violations == 0 and len(holders) >= 20
    announce(7, "registry run", ok,
          f"{summary['total']} verdicts, {violations} violations, "
          f"{len(holders)} entries held non-vacuously, never fired: "
          f"{summary['never_fired'] or 'none'}")


# ---------------------------------------------------------------------------
# 8. singular endomorphisms are nilpotent and radical
# ---------------------------------------------------------------------------


def test_criterion_08_singular_and_small(module_instances, announce):
    wide = dataclasses.replace(CAPS, lattice=256)
    sing_failures = small_failures = sing_total = small_total = 0
    for inst in module_instances:
        end = end_ring(inst.module, wide)
        verdict, sing = singular_nil_jacobson(end_table(end), wide)
        sing_total += int(sing.size)
        if not verdict.holds:
            sing_failures += 1
        facts = Facts(inst.module, wide)
        for f, is_nil, idx in small_image_endos(facts):
            small_total += 1
            table = end.tables[f]
            verified = (is_nil and set(_power(table, idx).tolist()) == {0}
                        and (idx == 1
                             or set(_power(table, idx - 1).tolist()) != {0}))
            if not verified:
                small_failures += 1
    ok = sing_failures == 0 and small_failures == 0
    announce(8, "singular and small-image endomorphisms", ok,
          f"{sing_total} singular elements, {small_total} small-image maps, "
          f"{sing_failures + small_failures} failures")


# ---------------------------------------------------------------------------
# 9. epimorphism-or-nilpotent on indecomposables
# ---------------------------------------------------------------------------


def test_criterion_09_epi_or_nilpotent(module_instances, reports, announce):
    classified = unclassified = overlap = indecomposables = 0
    for inst in module_instances:
        if reports[inst.name].statuses["indecomposable"] != "true":
            continue
        indecomposables += 1
        facts = Facts(inst.module, CAPS)
        end = facts.end()
        for f in range(end.order):
            epi = np.unique(end.tables[f]).size == inst.module.order
            # f's index, where its kernel chain ends, is at most |M|
            nilpotent = not _power(end.tables[f], inst.module.order).any()
            classified += 1
            if not (epi or nilpotent):
                unclassified += 1
            if epi and nilpotent and inst.module.order > 1:
                overlap += 1
    ok = (indecomposables > 0 and unclassified == 0 and overlap == 0)
    announce(9, "epimorphism-or-nilpotent dichotomy", ok,
          f"{indecomposables} indecomposables, {classified} maps, "
          f"{unclassified} unclassified, {overlap} overlaps")


# ---------------------------------------------------------------------------
# 10. byte-level determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(corpus_dir, instances, capsys, announce):
    first = render_catalog(catalog_rows(instances, CAPS))
    second = render_catalog(catalog_rows(instances, CAPS))
    catalog_ok = first == second

    # tests/test_golden.py pins the default run to the same reference
    main(["verify", str(corpus_dir), "--jobs", "8"])
    jobs8 = capsys.readouterr().out
    verify_ok = jobs8 == REFERENCE.read_text(encoding="utf-8") \
        and jobs8.count("\n") > 100

    ok = catalog_ok and verify_ok
    announce(10, "determinism", ok,
          f"catalog bytes {'equal' if catalog_ok else 'differ'}, "
          f"verify lines {'equal' if verify_ok else 'differ'}")
