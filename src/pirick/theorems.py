"""Registry of verifiable implications between module and ring properties.

Each entry is a directed implication (or a definitional cross-check between
two independent code paths) evaluated exactly on one instance.  Hypotheses
are decided first; the conclusion is only checked when they hold, so every
outcome is one of:

  holds               hypotheses met and conclusion verified
  hypothesis_not_met  hypotheses false on this instance (entry is vacuous)
  violation           hypotheses met but conclusion false (witness attached)
  skipped             a size cap prevented an exact decision
  reading_flag        conclusion false for an entry marked as a tentative
                      converse; reported for attention, not as a violation

Biconditional statements are split into directed sub-entries (id suffixes
.1/.2) so a failure pinpoints the direction.  Entry ids such as "P2.2" are
stable registry tokens used by the command-line interface.

Four shapes are declared as data: `_implies`/`_equiv` over named
predicates, `_every_dual_pi` ("the hypotheses => every module of a family
is dual pi-Rickart"), `_every_corner` ("pi-regular => every nonzero corner
eRe passes a ring check") and `_at_witnesses` ("the hypotheses => the
conclusions, and a test holds at every dual pi-Rickart witness f -> (n, e),
Im f^n = eM").  A named predicate is a name of `Facts.verdict`: a module
property of `properties.DECIDERS` or a map check of `homs.MAP_CHECKS`
("every f in End(M) has a power f^n with property P"); or "reg." and one,
for the ring's right regular module; or "ring.", "mat2." or "end." and a
name of `rings.RING_CHECKS`, for the ring, its 2x2 matrix ring or End(M).
Every ring check, there and below, is read through `rings.ring_check`.  An
entry marked tentative, a converse that holds only under one reading of its
statement, reports a violation as reading_flag.  A family is a generator
of (label, module) pairs taken lazily, so no module after the first
failure is built; a family over R^2 first holds |R|^4, the order of 2x2
matrices over R, to caps.matrix_check through `Caps.gate`, as `_mat2`
does.  The gate thus fires after the hypotheses, when the family is first
advanced.

Entries read End(M) through the deciders' paths: f^n as the element
End(M).powers[f, n - 1], images and kernels as End(M).images and
End(M).kernels, and the idempotents read from the maps.  End(M)'s ring
table, `homs.end_table`, is asked for only where a ring is read: the
"end." scope, a left ideal of End(M) as a row of one packed key table
(`rings.left_annihilator_keys`, `rings.principal_annihilators`), 1 - e and
the left singular ideal.  No walk reads its `rings.power_table`, which
equals End(M).powers: both end each row f at f's index, the first n with
Ker f^n == Ker f^(n+1), and both come from `rings.index_powers`.  The walks
over f^n find what depends on f^n alone (its annihilators, the maps that
kill its image) once per distinct element, image or principal left ideal,
not once per (f, n).  Each derived object is found once per
structure and caps, and each ring check once per ring structure, in the one
cache: e*R is `Facts.inner` of the right regular module, and eRe is
`InstanceContext.corner`.  The 2x2 matrix ring is built anew for each
caller, so its cap message names the caller's own ring.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .caps import Caps, DEFAULT_CAPS, StructureKey, interned
from .errors import PirickError, SizeCapExceeded, UnknownTheorem
from .groups import FinAbGroup
from .homs import (EndRing, _double_annihilator_closed,
                   central_idempotent_maps, end_table, hom_count,
                   idempotent_image_masks, idempotent_maps,
                   left_annihilator, nontrivial_idempotent_maps, power_rows,
                   right_annihilator)
from .modules import (FiniteModule, elems_mask, first_moving_map,
                      free_module, is_direct_summand, radical,
                      ring_as_module, socle)
from .properties import (Facts, largest_exponent, singular_nil_jacobson,
                         small_image_endos)
from .rings import (FiniteRing, Verdict, central_idempotent_scan, corner_ring,
                    left_annihilator_keys, matrix_ring,
                    principal_annihilators, ring_check, ring_idempotents)

HOLDS = "holds"
NOT_MET = "hypothesis_not_met"
VIOLATION = "violation"
SKIPPED = "skipped"
READING_FLAG = "reading_flag"


@dataclasses.dataclass
class TheoremVerdict:
    theorem_id: str
    instance: str
    status: str
    witness: str


class InstanceContext:
    """One corpus instance (a ring or a module) plus its evaluation caps.

    Its key is StructureKey(structure key of the ring, caps): the modules
    and corners built from the ring are found once per ring structure and
    caps.
    """

    def __init__(self, name: str, kind: str, ring: FiniteRing,
                 module: FiniteModule | None, caps: Caps = DEFAULT_CAPS):
        if kind not in ("ring", "module"):
            raise PirickError(f"unknown instance kind {kind!r}")
        self.name = name
        self.kind = kind
        self.ring = ring
        self.module = module
        self.caps = caps
        self.key = StructureKey(ring.key, caps)

    def facts(self) -> Facts:
        if self.module is None:
            raise PirickError("ring instance has no module")
        return Facts(self.module, self.caps)

    @interned
    def reg_module(self) -> FiniteModule:
        return ring_as_module(self.ring, self.caps)

    def reg_facts(self) -> Facts:
        return Facts(self.reg_module(), self.caps)

    @interned
    def free2(self) -> FiniteModule:
        return free_module(self.ring, 2, self.caps)

    @interned
    def corner(self, e: int) -> FiniteRing:
        """The corner ring e*R*e."""
        return corner_ring(self.ring, e, self.caps)[0]

    @interned
    def summand_ideal(self, e: int) -> FiniteModule:
        """e*R for an idempotent e: the submodule of the right regular
        module whose elements are row e of the multiplication table."""
        reg = self.reg_module()
        mask = elems_mask(self.ring.mul_np[e], reg.order)
        return self.reg_facts().inner(mask)[0]


# ---------------------------------------------------------------------------
# shared computations
# ---------------------------------------------------------------------------


def _one_minus(group: FinAbGroup, one: int, e: int) -> int:
    """1 - e, for the identity `one` of a ring on the additive group."""
    return int(group.add_table()[one, group.neg_vector()[e]])


def _dual_pi_of(module: FiniteModule, caps: Caps) -> Verdict:
    return Facts(module, caps).verdict("dual_pi_rickart")


def _mat2(ring: FiniteRing, caps: Caps) -> FiniteRing:
    """M2(ring), built for each call (its table is interned), so a cap
    failure names the caller's own ring."""
    caps.gate("matrix_check", "matrix ring", ring.order ** 4)
    return matrix_ring(ring, 2, caps)


# ---------------------------------------------------------------------------
# entries declared as data
# ---------------------------------------------------------------------------


def _verdict(ctx, name: str) -> Verdict:
    """The Verdict of a predicate on an instance: a name of
    `Facts.verdict` (a DECIDERS property or a `homs.MAP_CHECKS` check);
    "reg." followed by one, on the ring's right regular module; or a ring
    check (a key of `rings.RING_CHECKS`) after "end.", on End(M), after
    "ring.", on the instance's ring, or after "mat2.", on M2 of that ring."""
    scope, _, check = name.partition(".")
    if scope == "ring":
        return ring_check(ctx.ring, check)
    if scope == "mat2":
        return ring_check(_mat2(ctx.ring, ctx.caps), check)
    if scope == "end":
        return ring_check(end_table(ctx.facts().end()), check)
    if scope == "reg":
        return ctx.reg_facts().verdict(check)
    return ctx.facts().verdict(name)


def _decide(ctx, name: str):
    """(holds, counterexample) of the predicate `name` on an instance."""
    v = _verdict(ctx, name)
    return v.holds, v.counterexample


def _hypotheses_met(ctx, hypotheses: tuple) -> tuple:
    """(met, counterexample): whether every hypothesis holds, decided left
    to right and stopping at the first false one, whose counterexample
    comes with it.

    When a hypothesis reads the module, End(M) is built first, as every
    such hypothesis needs it, so a cap on it skips the entry before any
    other work.  "ring.", "mat2." and "reg." hypotheses alone never touch
    the instance's module, so a ring instance's entries never ask for its
    Facts.
    """
    if not all(h.startswith(("ring.", "mat2.", "reg.")) for h in hypotheses):
        ctx.facts().end()
    for name in hypotheses:
        holds, cex = _decide(ctx, name)
        if not holds:
            return False, cex
    return True, None


def _conclude(ctx, conclusions: tuple):
    """(status, witness) of "all conclusions hold" on an instance.

    A single failed conclusion is witnessed by its counterexample, as
    a=<element> for a ring check ("ring.", "mat2." or "end.") and f=<map>
    for any other name; with several conclusions the witness lists the
    failed names.
    """
    failed = {}
    for name in conclusions:
        holds, cex = _decide(ctx, name)
        if not holds:
            failed[name] = cex
    if not failed:
        return HOLDS, "-"
    if len(conclusions) > 1:
        return VIOLATION, ",".join(n.rpartition(".")[2] for n in failed)
    [(name, cex)] = failed.items()
    ring_scope = name.startswith(("ring.", "mat2.", "end."))
    return VIOLATION, f"{'a' if ring_scope else 'f'}={cex}"


def _implies(hypotheses: tuple, conclusions: tuple, holds=None,
             unmet: str = "-"):
    """Check for "all hypotheses => all conclusions" on an instance.  When
    the conclusions hold, the witness is holds(ctx), or "-" without it;
    when a hypothesis fails, it is unmet.format(its counterexample)."""
    def check(ctx):
        met, cex = _hypotheses_met(ctx, hypotheses)
        if not met:
            return NOT_MET, unmet.format(cex)
        status, witness = _conclude(ctx, conclusions)
        if status == HOLDS and holds is not None:
            witness = holds(ctx)
        return status, witness
    return check


def _equiv(hypotheses: tuple, a: str, b: str):
    """Check for "all hypotheses => (a iff b)" on a module."""
    def check(ctx):
        if not _hypotheses_met(ctx, hypotheses)[0]:
            return NOT_MET, "-"
        x, y = _decide(ctx, a)[0], _decide(ctx, b)[0]
        if x != y:
            return VIOLATION, f"{a}={x},{b}={y}"
        return HOLDS, f"both={x}"
    return check


def _at_witnesses(hypotheses: tuple, conclusions: tuple, test, holds=None):
    """Check for "all hypotheses => all conclusions, and test(end)(x, n, e)
    holds for x = f^n at every dual pi-Rickart witness f -> (n, e)".

    test(end) is called once, after the implication holds, and what it
    looks up serves the whole walk.  The witnesses are walked in order of
    f, off the verdict's arrays, and the first that fails is witnessed as
    f=<f>,n=<n>.  When all pass, the witness is holds(ctx), or "-".
    """
    implication = _implies(hypotheses, conclusions)

    def check(ctx):
        status, witness = implication(ctx)
        if status != HOLDS:
            return status, witness
        end = ctx.facts().end()
        at = test(end)
        v = _verdict(ctx, "dual_pi_rickart")
        witnesses = zip(v.exponent.tolist(), v.witness.tolist())
        for f, (n, e) in enumerate(witnesses):
            if not at(int(end.powers[f, n - 1]), n, e):
                return VIOLATION, f"f={f},n={n}"
        return HOLDS, "-" if holds is None else holds(ctx)
    return check


def _every_dual_pi(hypotheses: tuple, family, holds):
    """Check for "all hypotheses => every module of family(ctx) is dual
    pi-Rickart".

    The family yields (label, module) pairs and is advanced only after the
    hypotheses hold, one pair at a time: the first failure is witnessed as
    <label>,f=<map> and nothing after it is built.  When every module
    passes, the witness is <holds>=<pairs taken>, or holds(ctx) when holds
    is callable.
    """
    def check(ctx):
        if not _hypotheses_met(ctx, hypotheses)[0]:
            return NOT_MET, "-"
        taken = 0
        for label, module in family(ctx):
            taken += 1
            v = _dual_pi_of(module, ctx.caps)
            if not v.holds:
                return VIOLATION, f"{label},f={v.counterexample}"
        return HOLDS, holds(ctx) if callable(holds) else f"{holds}={taken}"
    return check


def _every_corner(kind: str, violation: str):
    """Check for "pi-regular ring => every nonzero corner eRe passes ring
    check `kind`"; a failure is witnessed by violation.format(e=, a=)."""
    def check(ctx):
        if not ring_check(ctx.ring, "pi_regular").holds:
            return NOT_MET, "-"
        idems = [e for e in ring_idempotents(ctx.ring).tolist() if e]
        for e in idems:
            v = ring_check(ctx.corner(e), kind)
            if not v.holds:
                return VIOLATION, violation.format(e=e, a=v.counterexample)
        return HOLDS, f"corners={len(idems)}"
    return check


def _largest_n(fmt: str, name: str):
    """A holds witness for _implies: fmt.format(a, n, w) for the witness
    a -> (n, w) of the predicate `name` with the largest (n, a)."""
    return lambda ctx: fmt.format(*largest_exponent(_verdict(ctx, name)))


# ---------------------------------------------------------------------------
# tests at a dual pi-Rickart witness f -> (n, e), Im f^n = eM, for
# _at_witnesses: each takes End(M) and returns the test of one witness,
# test(x, n, e), x = f^n
# ---------------------------------------------------------------------------


def _annihilators_match(end: EndRing):
    """l_M(f^n M) == l_S(f^n) == S(1 - e), S = End(M).

    l_M(N) is found once per distinct image N of an element, packed as
    `rings.left_annihilator_keys` packs l_S, and compared with it.
    """
    ring = end_table(end)
    principal = principal_annihilators(ring)
    keys = left_annihilator_keys(ring)
    on_image = {}
    for mask in set(end.images):
        member = np.zeros(end.order, dtype=bool)
        member[left_annihilator(end, mask)] = True
        on_image[mask] = np.packbits(member).tobytes()

    def test(x: int, n: int, e: int) -> bool:
        return (on_image[end.images[x]] == keys[x].tobytes()
                and _one_minus(end.group, end.one, e) in principal[x])
    return test


def _principal_annihilator(end: EndRing):
    """l_S(f^n) == S e' for an idempotent e' of S = End(M)."""
    principal = principal_annihilators(end_table(end))
    return lambda x, n, e: bool(principal[x])


def _closed_summand(end: EndRing):
    """Im f^n is double-annihilator closed and, then, a summand."""
    idem = idempotent_image_masks(end)

    def test(x: int, n: int, e: int) -> bool:
        im = end.images[x]
        return _double_annihilator_closed(end, im) and im in idem
    return test


def _maps(ctx) -> str:
    """The holds witness maps=<|End(M)|>."""
    return f"maps={ctx.facts().end().order}"


# ---------------------------------------------------------------------------
# families of derived modules, for _every_dual_pi
# ---------------------------------------------------------------------------


def _idempotent_images(facts: Facts, prefix: str = "", whole: bool = False):
    """(<prefix>e=<e>, eM) for each idempotent e of End(M) but 0 and, unless
    whole, 1; the image of 1 is M itself."""
    end = facts.end()
    for e in idempotent_maps(end).tolist():
        if e and (whole or e != end.one):
            yield f"{prefix}e={e}", (facts.module if e == end.one
                                     else facts.inner(end.images[e])[0])


def _summand_ideals(ctx):
    """(e=<e>, e*R) for each idempotent e of the ring."""
    for e in ring_idempotents(ctx.ring).tolist():
        yield f"e={e}", ctx.summand_ideal(e)


def _free_ranks_and_summands(ctx):
    """R, R^2 and the nontrivial summands of R^2, behind the rank-2 gate."""
    ctx.caps.gate("matrix_check", "rank-2 endomorphism ring",
                  ctx.ring.order ** 4)
    yield "rank=1", ctx.reg_module()
    yield "rank=2", ctx.free2()
    yield from _idempotent_images(Facts(ctx.free2(), ctx.caps), "rank=2,")


def _rank2_projectives(ctx):
    """Every nonzero summand of R^2, R^2 included, behind the rank-2 gate."""
    ctx.caps.gate("matrix_check", "rank-2 endomorphism ring",
                  ctx.ring.order ** 4)
    yield from _idempotent_images(Facts(ctx.free2(), ctx.caps), whole=True)


def _quotients(ctx, fully_invariant: bool):
    """(N=<|N|>, M/N) for each submodule N of M, or each fully invariant
    one."""
    facts = ctx.facts()
    tables = facts.end().tables
    for mask in facts.lattice():
        if not fully_invariant or first_moving_map(mask, tables) is None:
            yield f"N={mask.bit_count()}", facts.quotient(mask)[0]


def _rad_soc_quotients(ctx):
    """(rad, M/rad M) and (soc, M/soc M)."""
    facts = ctx.facts()
    for label, part in (("rad", radical), ("soc", socle)):
        yield label, facts.quotient(part(ctx.module, ctx.caps))[0]


# ---------------------------------------------------------------------------
# entry checks: each returns (status, witness string)
# ---------------------------------------------------------------------------


def _chk_l2_9(ctx):
    facts = ctx.facts()
    idem_route = set(facts.idem_masks())
    # the independent route: a complement in the submodule lattice
    complement_route = {mask for mask in facts.lattice()
                        if is_direct_summand(ctx.module, mask, ctx.caps)[0]}
    if idem_route != complement_route:
        only_a = sorted(idem_route - complement_route)
        only_b = sorted(complement_route - idem_route)
        return VIOLATION, f"idem_only={len(only_a)},complement_only={len(only_b)}"
    # the routes agree on every submodule, so on every chain term too
    checked = int((facts.end().powers >= 0).sum())
    return HOLDS, f"masks={len(idem_route)},chain_points={checked}"


def _chk_c2_13(ctx):
    ring = ctx.ring
    if not ring_check(ring, "pi_regular").holds:
        return NOT_MET, "-"
    centrals = [e for e in central_idempotent_scan(ring)[0]
                if e not in (0, ring.one)]
    if not centrals:
        return NOT_MET, "no nontrivial central idempotent"
    for c in centrals:
        for piece in (c, _one_minus(ring.add_group, ring.one, c)):
            if not ring_check(ctx.corner(piece), "pi_regular").holds:
                return VIOLATION, f"c={c},corner_at={piece}"
    return HOLDS, f"decompositions={len(centrals)}"


def _chk_t2_14_2(ctx):
    for label, ideal in _summand_ideals(ctx):
        if not _dual_pi_of(ideal, ctx.caps).holds:
            return NOT_MET, label
    return _conclude(ctx, ("ring.pi_regular",))


def _chk_l2_16(ctx):
    facts = ctx.facts()
    end = facts.end()
    central_masks = {end.images[e] for e in central_idempotent_maps(end)[0]}
    checked = 0
    for f, row in power_rows(end):
        chain = [end.images[x] for x in row]
        for n, im in enumerate(chain, start=1):
            if im not in central_masks:
                continue
            # past the end of row f, Im f^(n+1) is Im f^n
            if n < len(chain) and chain[n] != im:
                return VIOLATION, f"f={f},n={n}"
            checked += 1
    if checked == 0:
        return NOT_MET, "no central idempotent image"
    return HOLDS, f"pairs={checked}"


def _chk_p2_17(ctx):
    facts = ctx.facts()
    end = facts.end()
    fired = None
    for e in nontrivial_idempotent_maps(end):
        comp = _one_minus(end.group, end.one, e)
        m1, _ = facts.inner(end.images[e])
        m2, _ = facts.inner(end.images[comp])
        f1, f2 = Facts(m1, ctx.caps), Facts(m2, ctx.caps)
        if not (f1.verdict("abelian").holds and f2.verdict("abelian").holds):
            continue
        if not (f1.verdict("dual_pi_rickart").holds
                and f2.verdict("dual_pi_rickart").holds):
            continue
        if hom_count(m1, m2, ctx.caps) != 1:
            continue
        if hom_count(m2, m1, ctx.caps) != 1:
            continue
        fired = e
        break
    if fired is None:
        return NOT_MET, "no qualifying decomposition"
    v = facts.verdict("dual_pi_rickart")
    if not v.holds:
        return VIOLATION, f"e={fired},f={v.counterexample}"
    return HOLDS, f"e={fired}"


def _chk_p2_23(ctx):
    mat2 = _mat2(ctx.ring, ctx.caps)
    for n in (1, 2):
        mat = ctx.ring if n == 1 else mat2
        if not ring_check(mat, "strongly_pi_regular").holds:
            return NOT_MET, f"n={n}"
        mod = ctx.reg_module() if n == 1 else ctx.free2()
        v = _dual_pi_of(mod, ctx.caps)
        if not v.holds:
            return VIOLATION, f"n={n},f={v.counterexample}"
    return HOLDS, "n=1,2"


def _chk_t3_4_1(ctx):
    facts = ctx.facts()
    end = facts.end()
    ring = end_table(end)
    principal = principal_annihilators(ring)

    def first_bad(x: int, hits: tuple):
        """The first e of hits, the e with l_S(x) == S*e, for which
        r_M(l_S(x)) != (1 - e)M, or None."""
        inter = right_annihilator(end, np.flatnonzero(ring.mul_np[:, x] == 0))
        return next((e for e in hits if end.images[
            _one_minus(end.group, end.one, e)] != inter), None)

    # hits fixes l_S(x), so each left ideal S*e is checked once, at any x
    at = {hits: x for x, hits in enumerate(principal) if hits}
    bad = {hits: first_bad(x, hits) for hits, x in at.items()}
    checked = 0
    for f, row in power_rows(end):
        for n, x in enumerate(row, start=1):
            hits = principal[x]
            if hits and bad[hits] is not None:
                return VIOLATION, f"f={f},n={n},e={bad[hits]}"
            checked += len(hits)
    if checked == 0:
        return NOT_MET, "no principal annihilator"
    return HOLDS, f"triples={checked}"


def _chk_p3_18(ctx):
    facts = ctx.facts()
    if not facts.verdict("dual_pi_rickart").holds:
        return NOT_MET, "-"
    rows = small_image_endos(facts)
    for f, nilpotent, _ in rows:
        if not nilpotent:
            return VIOLATION, f"f={f}"
    return HOLDS, f"small_image={len(rows)}"


def _chk_t3_19_2(ctx):
    facts = ctx.facts()
    end = facts.end()
    ring = end_table(end)
    if not ring_check(ring, "gen_left_pp").holds:
        return NOT_MET, "gen_left_pp false"
    # for each element x: l_S(x) is S*e for an idempotent e, and Im x is
    # double-annihilator closed
    closed = [bool(hits) and _double_annihilator_closed(end, end.images[x])
              for x, hits in enumerate(principal_annihilators(ring))]
    for f, row in power_rows(end):
        if not any(closed[x] for x in row):
            return NOT_MET, f"f={f}"
    return _conclude(ctx, ("dual_pi_rickart",))


def _chk_t3_20(ctx):
    facts = ctx.facts()
    if not facts.verdict("dual_pi_rickart").holds:
        return NOT_MET, "-"
    verdict, sing = singular_nil_jacobson(end_table(facts.end()), ctx.caps)
    if not verdict.holds:
        a, reason = verdict.counterexample
        return VIOLATION, f"a={a}({reason})"
    return HOLDS, f"|Z_l|={sing.size}"


def _chk_p3_21_1(ctx):
    facts = ctx.facts()
    if not (facts.verdict("indecomposable").holds
            and facts.verdict("dual_pi_rickart").holds):
        return NOT_MET, "-"
    end = facts.end()
    everything = (1 << facts.module.order) - 1
    epis = nilps = 0
    for f, row in power_rows(end):
        epi = end.images[f] == everything
        nilp = end.images[row[-1]] == 1
        if not (epi or nilp):
            return VIOLATION, f"f={f} neither"
        if epi and nilp and facts.module.order > 1:
            return VIOLATION, f"f={f} both"
        epis += int(epi)
        nilps += int(nilp)
    return HOLDS, f"epi={epis},nilpotent={nilps}"


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Entry:
    id: str
    scope: str
    statement: str
    check: object
    # a tentative converse: its violations are reported as reading_flag
    tentative: bool = False


REGISTRY = {e.id: e for e in [
    Entry("P2.2.1", "ring",
          "regular module dual pi-Rickart => ring pi-regular",
          _implies(("reg.dual_pi_rickart",), ("ring.pi_regular",),
                   _largest_n("a={},n={},x={}", "ring.pi_regular"))),
    Entry("P2.2.2", "ring",
          "ring pi-regular => regular module dual pi-Rickart",
          _implies(("ring.pi_regular",), ("reg.dual_pi_rickart",),
                   _largest_n("f={},n={},e={}", "reg.dual_pi_rickart"))),
    Entry("P2.4.1", "module",
          "dual Rickart => dual pi-Rickart with exponent 1",
          _at_witnesses(("dual_rickart",), ("dual_pi_rickart",),
                        lambda end: lambda x, n, e: n == 1,
                        lambda ctx: "n=1 throughout")),
    Entry("P2.4.2", "module",
          "End reduced and dual pi-Rickart => dual Rickart",
          _implies(("end.reduced", "dual_pi_rickart"), ("dual_rickart",))),
    Entry("L2.5.1", "module",
          "dual pi-Rickart and End a domain => nonzero maps epi",
          _implies(("dual_pi_rickart", "end.domain"), ("nonzero_epi",),
                   lambda ctx: "nonzero_maps={}".format(
                       ctx.facts().end().order - 1))),
    Entry("L2.5.2", "module",
          "nonzero maps epi => dual pi-Rickart and End a domain",
          _implies(("nonzero_epi",), ("dual_pi_rickart", "end.domain"),
                   unmet="f={} not epi")),
    Entry("T2.7.1", "module",
          "D2 and dual pi-Rickart => pi-Rickart",
          _implies(("d2", "dual_pi_rickart"), ("pi_rickart",))),
    Entry("T2.7.2", "module",
          "C2 and pi-Rickart => dual pi-Rickart",
          _implies(("c2", "pi_rickart"), ("dual_pi_rickart",))),
    # the projectivity hypothesis is represented by quasi-projective plus
    # morphic
    Entry("T2.7.3", "module",
          "quasi-projective and morphic => pi-Rickart equiv dual pi-Rickart",
          _equiv(("quasi_projective", "morphic"), "pi_rickart",
                 "dual_pi_rickart")),
    Entry("C2.8", "module",
          "C2 and D2 => dual pi-Rickart equiv pi-Rickart",
          _equiv(("c2", "d2"), "dual_pi_rickart", "pi_rickart")),
    Entry("L2.9", "module",
          "summand via idempotent image equals summand via complement",
          _chk_l2_9),
    Entry("P2.11", "module",
          "dual pi-Rickart passes to images of idempotents",
          _every_dual_pi(("dual_pi_rickart",),
                         lambda ctx: _idempotent_images(ctx.facts()),
                         "summands")),
    Entry("C2.12", "ring",
          "pi-regular ring => cyclic ideals e*R dual pi-Rickart",
          _every_dual_pi(("ring.pi_regular",), _summand_ideals, "ideals")),
    Entry("C2.13", "ring",
          "pi-regular product => pi-regular factors", _chk_c2_13),
    Entry("T2.14.1", "ring",
          "pi-regular => every summand ideal e*R dual pi-Rickart",
          _every_dual_pi(("ring.pi_regular",), _summand_ideals, "ideals")),
    Entry("T2.14.2", "ring",
          "every summand ideal e*R dual pi-Rickart => pi-regular",
          _chk_t2_14_2),
    # partial: exercised on free ranks 1 and 2 only
    Entry("T2.15", "ring",
          "free modules and their summands are dual pi-Rickart",
          _every_dual_pi((), _free_ranks_and_summands, "modules")),
    Entry("L2.16", "module",
          "central idempotent images are stable along the power chain",
          _chk_l2_16),
    Entry("P2.17", "module",
          "sum of two abelian dual pi-Rickart pieces with no cross maps",
          _chk_p2_17),
    Entry("C2.19", "module",
          "dual pi-Rickart and abelian End => strongly co-Hopfian",
          _implies(("dual_pi_rickart", "abelian"), ("strongly_co_hopfian",),
                   _largest_n("max_stab={1}", "strongly_co_hopfian"))),
    # every finite module is Fitting, so the hypothesis always holds
    Entry("C2.21", "module",
          "Fitting => dual pi-Rickart",
          _implies(("fitting",), ("dual_pi_rickart",))),
    # The base ring is finite, hence Artinian, and every finite module is
    # finitely generated: the hypotheses hold for every instance.
    Entry("P2.22", "module",
          "finite base ring => dual pi-Rickart",
          _implies((), ("dual_pi_rickart",),
                   lambda ctx: f"|R|={ctx.ring.order}")),
    # matrix sizes 1 and 2
    Entry("P2.23", "ring",
          "strongly pi-regular matrix ring => free module dual pi-Rickart",
          _chk_p2_23),
    Entry("L3.1", "module",
          "dual pi-Rickart => End generalized left pp with matching"
          " annihilators",
          _at_witnesses(("dual_pi_rickart",), ("end.gen_left_pp",),
                        _annihilators_match, _maps)),
    Entry("C3.2", "ring",
          "pi-regular => corners generalized left pp",
          _every_corner("gen_left_pp", "e={e},a={a}")),
    Entry("C3.3", "module",
          "dual pi-Rickart => left annihilator of f^n is a principal"
          " idempotent ideal",
          _at_witnesses(("dual_pi_rickart",), (), _principal_annihilator,
                        _maps)),
    Entry("T3.4.1", "module",
          "principal annihilator S*e => kernel intersection is (1-e)M",
          _chk_t3_4_1),
    Entry("T3.4.2", "module",
          "self-cogenerator with gen left pp End => dual pi-Rickart",
          _implies(("self_cogenerator", "end.gen_left_pp"),
                   ("dual_pi_rickart",))),
    Entry("L3.6", "module",
          "pi-regular End => dual pi-Rickart",
          _implies(("end.pi_regular",), ("dual_pi_rickart",),
                   lambda ctx: f"|S|={ctx.facts().end().order}")),
    Entry("C3.7", "module",
          "strongly pi-regular End => dual pi-Rickart",
          _implies(("end.strongly_pi_regular",), ("dual_pi_rickart",))),
    Entry("L3.9.1", "module",
          "pi-regular End => some power has kernel and image summands",
          _implies(("end.pi_regular",), ("summand_pair",),
                   _largest_n("max_n={1}", "summand_pair"))),
    Entry("L3.9.2", "module",
          "kernel and image summands at some power => pi-regular End",
          _implies(("summand_pair",), ("end.pi_regular",), unmet="f={}"),
          tentative=True),
    Entry("L3.10.1", "ring",
          "pi-regular => corners pi-regular",
          _every_corner("pi_regular", "e={e}")),
    Entry("L3.10.2", "ring",
          "pi-regular 2x2 matrix ring => pi-regular base",
          _implies(("mat2.pi_regular",), ("ring.pi_regular",),
                   lambda ctx: f"|M2|={ctx.ring.order ** 4}")),
    Entry("L3.10.3", "ring",
          "commutative: pi-regular equiv pi-regular 2x2 matrices",
          _equiv(("ring.commutative",), "ring.pi_regular", "mat2.pi_regular")),
    # projectives realized as idempotent images of the rank-2 free module
    Entry("P3.11", "ring",
          "commutative pi-regular => rank-2 projectives dual pi-Rickart",
          _every_dual_pi(("ring.commutative", "ring.pi_regular"),
                         _rank2_projectives, "projectives")),
    Entry("T3.12.1", "module",
          "D2 and dual pi-Rickart => End pi-regular",
          _implies(("d2", "dual_pi_rickart"), ("end.pi_regular",))),
    Entry("T3.12.2", "module",
          "D2 and End pi-regular => dual pi-Rickart",
          _implies(("d2", "end.pi_regular"), ("dual_pi_rickart",))),
    Entry("C3.14", "module",
          "quasi-projective dual pi-Rickart => End pi-regular",
          _implies(("quasi_projective", "dual_pi_rickart"),
                   ("end.pi_regular",))),
    Entry("C3.15", "module",
          "quasi-projective dual pi-Rickart => fully invariant quotients"
          " dual pi-Rickart",
          _every_dual_pi(("quasi_projective", "dual_pi_rickart"),
                         lambda ctx: _quotients(ctx, True), "quotients")),
    Entry("C3.16", "module",
          "quasi-projective duo dual pi-Rickart => all quotients dual"
          " pi-Rickart",
          _every_dual_pi(("quasi_projective", "duo", "dual_pi_rickart"),
                         lambda ctx: _quotients(ctx, False), "quotients")),
    Entry("C3.17", "module",
          "quasi-projective dual pi-Rickart => M/rad and M/soc dual"
          " pi-Rickart",
          _every_dual_pi(("quasi_projective", "dual_pi_rickart"),
                         _rad_soc_quotients,
                         lambda ctx: "|rad|={},|soc|={}".format(
                             radical(ctx.module, ctx.caps).bit_count(),
                             socle(ctx.module, ctx.caps).bit_count()))),
    Entry("P3.18", "module",
          "dual pi-Rickart => small-image endomorphisms nilpotent",
          _chk_p3_18),
    Entry("T3.19.1", "module",
          "dual pi-Rickart => gen left pp End and double-annihilator"
          " closure of f^n M",
          _at_witnesses(("dual_pi_rickart",), ("end.gen_left_pp",),
                        lambda end: lambda x, n, e:
                        _double_annihilator_closed(end, end.images[x]),
                        _maps)),
    Entry("T3.19.2", "module",
          "gen left pp End and double-annihilator closure => dual"
          " pi-Rickart", _chk_t3_19_2),
    Entry("T3.19c.1", "module",
          "dual pi-Rickart => f^n M double-annihilator closed and a"
          " summand",
          _at_witnesses(("dual_pi_rickart",), (), _closed_summand)),
    Entry("T3.19c.2", "module",
          "f^n M double-annihilator closed and a summand => dual"
          " pi-Rickart",
          _implies(("closed_summand",), ("dual_pi_rickart",),
                   unmet="f={}")),
    Entry("T3.20", "module",
          "dual pi-Rickart => left singular ideal of End nil and inside"
          " the radical", _chk_t3_20),
    Entry("P3.21.1", "module",
          "indecomposable dual pi-Rickart => maps are epi or nilpotent",
          _chk_p3_21_1),
    Entry("P3.21.2", "module",
          "maps all epi or nilpotent => indecomposable dual pi-Rickart",
          _implies(("epi_or_nilpotent",),
                   ("indecomposable", "dual_pi_rickart"), unmet="f={}")),
    Entry("T3.22.1", "module",
          "End local with nil radical => indecomposable dual pi-Rickart",
          _implies(("end.local", "end.nil_radical"),
                   ("indecomposable", "dual_pi_rickart"))),
    Entry("T3.22.2", "module",
          "morphic indecomposable dual pi-Rickart => End local with nil"
          " radical",
          _implies(("morphic", "indecomposable", "dual_pi_rickart"),
                   ("end.local", "end.nil_radical"))),
]}


def expand_ids(requested=None) -> list:
    """Resolve registry ids; a bare prefix covers its directed sub-entries."""
    if not requested:
        return list(REGISTRY)
    out = []
    for token in requested:
        token = token.strip()
        hits = [tid for tid in REGISTRY
                if tid == token or tid.startswith(token + ".")]
        if not hits:
            raise UnknownTheorem(token)
        out.extend(hits)
    return list(dict.fromkeys(out))


def _evaluate(tid: str, ctx: InstanceContext) -> TheoremVerdict:
    entry = REGISTRY[tid]
    if entry.scope != ctx.kind:
        return TheoremVerdict(tid, ctx.name, SKIPPED,
                              f"needs a {entry.scope} instance")
    try:
        status, witness = entry.check(ctx)
    except SizeCapExceeded as exc:
        status, witness = SKIPPED, f"cap:{exc.what}"
    if status == VIOLATION and entry.tentative:
        status = READING_FLAG
    return TheoremVerdict(tid, ctx.name, status, witness)


def verify(theorem_id: str, ctx: InstanceContext) -> list:
    """Evaluate one registry id (or prefix) on an instance."""
    return [_evaluate(tid, ctx) for tid in expand_ids([theorem_id])]


def verify_all(ctx: InstanceContext, requested=None) -> list:
    """Evaluate every applicable registry entry on an instance."""
    return [_evaluate(tid, ctx) for tid in expand_ids(requested)
            if REGISTRY[tid].scope == ctx.kind]


def summarize(verdicts: list) -> dict:
    """Counts by status plus the ids whose hypotheses never fired."""
    counts = {HOLDS: 0, NOT_MET: 0, VIOLATION: 0, SKIPPED: 0, READING_FLAG: 0}
    fired = {}
    for v in verdicts:
        counts[v.status] += 1
        fired.setdefault(v.theorem_id, False)
        if v.status in (HOLDS, VIOLATION, READING_FLAG):
            fired[v.theorem_id] = True
    never = sorted(tid for tid, did in fired.items() if not did)
    return {"counts": counts, "never_fired": never,
            "total": len(verdicts)}
