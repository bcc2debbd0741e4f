"""Property deciders for finite modules.

Every decider is exact: it reads End(M), the submodule lattice or the
orders of hom groups, and returns a Verdict with explicit witnesses
(exponents, idempotents, counterexample elements).  A Facts object hands
the deciders the shared objects (End(M), the lattice, quotients,
submodules, verdicts).  Its key is StructureKey(structure key of the
module, caps), and each of those is an `interned` function of it, so every
module of one structure gets one of each, and a decider runs once per
structure and caps; the registry in `theorems` builds its submodules, e*R
among them, through the same Facts.  Every submodule is a bitmask over the
module's elements, as in `modules`: the lattice's masks, and the image and
kernel of every endomorphism, read from End(M).images and End(M).kernels;
f^n is End(M).powers[f, n - 1].  The deciders "every f has a power f^n
with property P" (the four Rickart properties, Fitting) are each one
`homs.first_chain_term` search; their witnesses f -> (n, w), and the
chain-stabilization deciders', are arrays, exponent[f] and witness[f].
co-Hopfian reads n = 1 only, as `homs.first_offender`, and keeps no
witnesses.  Morphic, C2 and D2 ask whether two submodules or quotients are
isomorphic; by the first isomorphism theorem each such question is whether
some g in End(M) has a given (Im g, Ker g), so they build no module and
search no isomorphism.
Facts.verdict also reads the map checks of `homs.MAP_CHECKS` by name,
checks of the same shapes that no report prints.  A quotient's projection
and a submodule's inclusion are tables, as `homs.check_map` returns them.
The deciders and analyze() read End(M) as maps only, its idempotents
included (`homs.idempotent_maps` and the scans beside it), and never ask
for its ring table; the left singular ideal of End(M), which the registry
reads, is read from that table.

analyze() runs the deciders in a fixed order and produces a PropertyReport;
deciders that would exceed a size cap report status "skipped" instead of
guessing.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .caps import Caps, DEFAULT_CAPS, StructureKey, interned
from .errors import SizeCapExceeded
from .homs import (MAP_CHECKS, EndRing, distinct_pairs,
                   central_idempotent_maps, end_ring, first_chain_term,
                   first_offender, hom_count, hom_set,
                   idempotent_image_masks, idempotent_maps, map_rows,
                   nontrivial_idempotent_maps, power_rows)
from .modules import (FiniteModule, all_submodules, cyclic_joins,
                      first_moving_map, mask_bits, module_generators,
                      quotient_module, radical, submodule_module)
from .rings import FiniteRing, Verdict, jacobson_radical, nilpotency


class Facts:
    """The per-module computations shared by the property deciders.

    Every Facts of one structure and caps has one key, so the methods
    marked `interned` run once per (structure, caps, arguments).  The
    modules that quotient and inner return are shared the same way: their
    names are those of the first module of the structure that asked, and
    no output reads them.
    """

    def __init__(self, module: FiniteModule, caps: Caps = DEFAULT_CAPS):
        self.module = module
        self.caps = caps
        self.key = StructureKey(module.key, caps)

    def end(self) -> EndRing:
        return end_ring(self.module, self.caps)

    def lattice(self) -> tuple:
        return all_submodules(self.module, self.caps)

    def idem_masks(self) -> dict:
        return idempotent_image_masks(self.end())

    @interned
    def quotient(self, mask: int):
        """(M/N, projection table) for the submodule with this bitmask."""
        return quotient_module(self.module, mask, self.caps)

    @interned
    def inner(self, mask: int):
        """(N as a module, inclusion table) for the submodule with this
        bitmask."""
        return submodule_module(self.module, mask, self.caps)

    @interned
    def verdict(self, prop: str) -> Verdict:
        """The verdict of the decider of property `prop`, or else of the
        map check of that name on End(M)."""
        if prop in DECIDERS:
            return DECIDERS[prop](self)
        return MAP_CHECKS[prop](self.end())


# ---------------------------------------------------------------------------
# endomorphism-image deciders
# ---------------------------------------------------------------------------


def _idempotent_generated(facts: Facts, kernels: bool,
                          any_power: bool) -> Verdict:
    """Im f (Ker f with `kernels`) is the image of an idempotent, for every
    f; with `any_power`, for some term of the power chain of f.

    Witnesses map f to (smallest exponent n, smallest idempotent realizing
    that term); without `any_power`, n is 1.
    """
    idem = facts.idem_masks()
    return first_chain_term(facts.end(),
                            lambda im, ker: idem.get(ker if kernels else im),
                            terms=None if any_power else 1)


def decide_dual_rickart(facts: Facts) -> Verdict:
    """Im f is generated by an idempotent endomorphism, for every f."""
    return _idempotent_generated(facts, kernels=False, any_power=False)


def decide_dual_pi_rickart(facts: Facts) -> Verdict:
    """Some power of every f has image generated by an idempotent."""
    return _idempotent_generated(facts, kernels=False, any_power=True)


def decide_rickart(facts: Facts) -> Verdict:
    """Ker f is generated by an idempotent endomorphism, for every f."""
    return _idempotent_generated(facts, kernels=True, any_power=False)


def decide_pi_rickart(facts: Facts) -> Verdict:
    """Some power of every f has kernel generated by an idempotent."""
    return _idempotent_generated(facts, kernels=True, any_power=True)


def decide_fitting(facts: Facts) -> Verdict:
    """For every f some power splits M as Ker f^n + Im f^n (sum direct).
    Witnesses map f to (smallest such n, 1)."""
    full = facts.module.order
    return first_chain_term(facts.end(), lambda im, ker: (
        im & ker) == 1 and im.bit_count() * ker.bit_count() == full or None)


def decide_morphic(facts: Facts) -> Verdict:
    """M/Im f and Ker f are isomorphic, for every f.

    By the first isomorphism theorem, M/Im f is isomorphic to Ker f iff
    some g has Im g = Ker f and Ker g = Im f (Nicholson and Sanchez
    Campillo, "Morphic modules", Comm. Algebra 33, 2005): given an
    isomorphism phi: M/Im f -> Ker f, take g = phi after the projection;
    given g, M/Ker g is isomorphic to Im g.  So f passes iff (Ker f, Im f)
    is the (Im g, Ker g) of some g, one lookup per distinct pair.
    """
    end = facts.end()
    present = set(distinct_pairs(end)[0])
    return first_offender(end, lambda im, ker: (ker, im) not in present)


def decide_co_hopfian(facts: Facts) -> Verdict:
    """Every injective endomorphism is surjective."""
    everything = (1 << facts.module.order) - 1
    return first_offender(facts.end(),
                          lambda im, ker: ker == 1 and im != everything)


def _chain_stabilization(facts: Facts) -> Verdict:
    """Always true for a finite module; witnesses map f to (s, 1), s the
    exponent at which the image and kernel chains of f stabilize, the
    length of row f of End(M).powers."""
    lengths = (facts.end().powers >= 0).sum(axis=1)
    return Verdict(True, None, lengths, np.ones_like(lengths))


def decide_strongly_co_hopfian(facts: Facts) -> Verdict:
    """The image chain of every endomorphism stabilizes."""
    return _chain_stabilization(facts)


def decide_strongly_hopfian(facts: Facts) -> Verdict:
    """The kernel chain of every endomorphism stabilizes."""
    return _chain_stabilization(facts)


# ---------------------------------------------------------------------------
# lattice deciders
# ---------------------------------------------------------------------------


def _summand_when_isomorphic(facts: Facts, quotients: bool) -> Verdict:
    """Every submodule N (with `quotients`, every M/N) isomorphic to a
    direct summand has N itself a summand.

    Both are read off End(M)'s (Im g, Ker g) pairs, for a summand D = eM, e
    the smallest idempotent with that image:
    - N is isomorphic to eM iff some g has Im g = N and Ker g = Ker e.
      Given an isomorphism phi: eM -> N, take g = phi e.  Given g, g
      restricted to eM is injective, as eM meets Ker e in 0, and onto N,
      as M = eM + Ker e.
    - M/N is isomorphic to eM iff some g has Im g = eM and Ker g = N, by
      the first isomorphism theorem.

    The counterexample is (N, D) for the first such N that is not a
    summand and the smallest summand D it is isomorphic to.
    """
    end = facts.end()
    idem = facts.idem_masks()
    present = set(distinct_pairs(end)[0])
    summands = [(dmask, end.kernels[idem[dmask]]) for dmask in sorted(idem)]
    for mask in facts.lattice():
        if mask in idem:
            continue
        for dmask, ker_e in summands:
            if ((dmask, mask) if quotients else (mask, ker_e)) in present:
                return Verdict(False, (mask, dmask))
    return Verdict(True)


def decide_c2(facts: Facts) -> Verdict:
    """Every submodule isomorphic to a direct summand is itself a summand."""
    return _summand_when_isomorphic(facts, quotients=False)


def decide_d2(facts: Facts) -> Verdict:
    """Whenever M/N is isomorphic to a direct summand, N is a summand."""
    return _summand_when_isomorphic(facts, quotients=True)


def decide_abelian(facts: Facts) -> Verdict:
    """Every idempotent endomorphism is central in End(M)."""
    noncentral = central_idempotent_maps(facts.end())[1]
    return Verdict(noncentral is None, noncentral)


def decide_duo(facts: Facts) -> Verdict:
    """Every submodule is stable under every endomorphism."""
    tables = facts.end().tables
    for mask in facts.lattice():
        f = first_moving_map(mask, tables)
        if f is not None:
            return Verdict(False, (f, mask))
    return Verdict(True)


def decide_self_cogenerator(facts: Facts) -> Verdict:
    """Every factor module M/N is cogenerated by M: the kernels of the
    maps M/N -> M, the g in End(M) with N <= Ker g, meet in N.

    There are c(N) = |Hom(M/N, M)| such g, and c falls as N grows.  Their
    kernels meet in more than N iff some N + mR, m outside N, lies in all
    of them, iff c(N + mR) = c(N); one m per distinct mR will do
    (`modules.cyclic_joins`).  Each c is a `hom_count`: no map is built."""
    def count(mask):
        return hom_count(facts.quotient(mask)[0], facts.module, facts.caps)

    for mask in facts.lattice():
        if any(count(mask) == count(join) for join in
               cyclic_joins(facts.module, mask) if join != mask):
            return Verdict(False, mask)
    return Verdict(True)


def decide_quasi_projective(facts: Facts) -> Verdict:
    """Every homomorphism M -> M/N lifts through the projection."""
    end = facts.end()
    on_gens = end.tables[:, end.gens]
    for mask in facts.lattice():
        quot, proj = facts.quotient(mask)
        # mark the rows of Hom(M, M/N) that some pi f fills
        lifted = np.zeros(hom_count(facts.module, quot, facts.caps), bool)
        lifted[map_rows(facts.module, quot, proj[on_gens])] = True
        if not lifted.all():
            h = hom_set(facts.module, quot, facts.caps)[np.argmin(lifted)]
            return Verdict(False, (mask, tuple(h.tolist())))
    return Verdict(True)


def decide_indecomposable(facts: Facts) -> Verdict:
    """Only 0 and the identity are idempotent endomorphisms."""
    extra = nontrivial_idempotent_maps(facts.end())
    return Verdict(not extra, extra[0] if extra else None)


DECIDERS = {
    "dual_rickart": decide_dual_rickart,
    "dual_pi_rickart": decide_dual_pi_rickart,
    "rickart": decide_rickart,
    "pi_rickart": decide_pi_rickart,
    "fitting": decide_fitting,
    "morphic": decide_morphic,
    "co_hopfian": decide_co_hopfian,
    "strongly_co_hopfian": decide_strongly_co_hopfian,
    "strongly_hopfian": decide_strongly_hopfian,
    "c2": decide_c2,
    "d2": decide_d2,
    "abelian": decide_abelian,
    "duo": decide_duo,
    "self_cogenerator": decide_self_cogenerator,
    "quasi_projective": decide_quasi_projective,
    "indecomposable": decide_indecomposable,
}
# the order of report lines and catalog columns
PROPERTY_ORDER = tuple(DECIDERS)


# ---------------------------------------------------------------------------
# auxiliary structure: singular ideal, small-image endomorphisms
# ---------------------------------------------------------------------------


@interned
def left_singular_ideal(ring: FiniteRing, caps: Caps = DEFAULT_CAPS):
    """Z_l(R), the elements f whose left annihilator {g : g*f = 0} is an
    essential left ideal, read off the ring's own table.

    A left ideal is essential iff it contains the left socle
    {x : J(R)*x = 0}, as a submodule of a module of finite length is
    essential iff it contains the socle; so f is in Z_l(R) iff s*f = 0
    for every s in that socle.  The check is gated by the lattice cap at
    the order of R, the order of the left regular module.
    """
    caps.gate("lattice", "submodule lattice", ring.order)
    mul = ring.mul_np                                 # mul[g, f] = g * f
    soc = (mul[jacobson_radical(ring)] == 0).all(axis=0)
    return np.flatnonzero((mul[soc] == 0).all(axis=0))


def singular_nil_jacobson(ring: FiniteRing, caps: Caps = DEFAULT_CAPS):
    """Check every left-singular element is nilpotent and in the Jacobson
    radical.  Returns (Verdict, singular indices); its exponent array holds
    the nilpotency index of each nilpotent singular element."""
    sing = left_singular_ideal(ring, caps)
    nil = nilpotency(ring, sing)
    not_nil = nil.exponent[sing] < 0
    bad = np.flatnonzero(not_nil | ~np.isin(sing, jacobson_radical(ring)))
    if not bad.size:
        return nil, sing
    i = bad[0]
    cex = (int(sing[i]), "not nilpotent" if not_nil[i] else "outside radical")
    return dataclasses.replace(nil, holds=False, counterexample=cex), sing


def small_image_endos(facts: Facts):
    """Endomorphisms with small (superfluous) image, with nilpotency data.

    Returns a list of (f index, is_nilpotent, nilpotency index or None).
    """
    end = facts.end()
    rad = radical(facts.module, facts.caps)
    out = []
    for f, row in power_rows(end):
        if end.images[f] | rad != rad:          # Im f is not small
            continue
        if end.images[row[-1]] == 1:
            out.append((f, True, len(row)))
        else:
            out.append((f, False, None))
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PropertyReport:
    name: str
    module_order: int
    end_order: int | None
    generators: int
    statuses: dict
    witnesses: dict
    max_witness_n: int | None
    idempotent_count: int | None


def _fmt_sub(facts: Facts, mask: int) -> str:
    elems = np.flatnonzero(mask_bits(mask, facts.module.order)).tolist()
    if len(elems) <= 8:
        return "{" + ",".join(str(e) for e in elems) + "}"
    return f"sub(size={len(elems)},min={elems[1] if len(elems) > 1 else 0})"


def largest_exponent(verdict: Verdict, key: str = None) -> tuple:
    """(a, n, w) for the witness a -> (n, w) with the largest (key[a], a),
    key the array so named, the exponent by default: one reversed argmax."""
    key = getattr(verdict, key or "exponent")
    a = len(key) - 1 - int(np.argmax(key[::-1]))
    return a, int(verdict.exponent[a]), int(verdict.witness[a])


def _witness_string(facts: Facts, prop: str, verdict: Verdict) -> str:
    if not verdict.holds:
        c = verdict.counterexample
        if prop in ("dual_rickart", "dual_pi_rickart", "rickart",
                    "pi_rickart", "fitting", "morphic", "co_hopfian"):
            return f"f={c}"
        if prop in ("c2", "d2"):
            return f"N={_fmt_sub(facts, c[0])},D={_fmt_sub(facts, c[1])}"
        if prop == "abelian":
            return f"e={c[0]},f={c[1]}"
        if prop == "duo":
            return f"f={c[0]},N={_fmt_sub(facts, c[1])}"
        if prop == "self_cogenerator":
            return f"N={_fmt_sub(facts, c)}"
        if prop == "quasi_projective":
            return f"N={_fmt_sub(facts, c[0])}"
        if prop == "indecomposable":
            return f"e={c}"
        return str(c)
    if prop in ("dual_pi_rickart", "pi_rickart"):
        return "f={},n={},e={}".format(*largest_exponent(verdict))
    if prop in ("fitting", "strongly_co_hopfian", "strongly_hopfian"):
        return "f={},n={}".format(*largest_exponent(verdict))
    if prop in ("dual_rickart", "rickart"):
        return "f={0},e={2}".format(*largest_exponent(verdict, "witness"))
    return "-"


def analyze(module: FiniteModule, caps: Caps = DEFAULT_CAPS,
            name: str | None = None) -> PropertyReport:
    """Run every property decider and collect statuses plus witnesses."""
    facts = Facts(module, caps)
    statuses, witnesses = {}, {}
    for prop in PROPERTY_ORDER:
        try:
            verdict = facts.verdict(prop)
            statuses[prop] = "true" if verdict.holds else "false"
            witnesses[prop] = _witness_string(facts, prop, verdict)
        except SizeCapExceeded as exc:
            statuses[prop] = "skipped"
            witnesses[prop] = f"cap:{exc.what}"

    end_order = None
    idem_count = None
    max_n = None
    try:
        end = facts.end()
        end_order = end.order
        idem_count = int(idempotent_maps(end).size)
        if statuses.get("dual_pi_rickart") == "true":
            max_n = int(facts.verdict("dual_pi_rickart").exponent.max())
    except SizeCapExceeded:
        pass

    return PropertyReport(
        name=name or module.name,
        module_order=module.order,
        end_order=end_order,
        generators=len(module_generators(module)),
        statuses=statuses,
        witnesses=witnesses,
        max_witness_n=max_n,
        idempotent_count=idem_count,
    )


def render_report(report: PropertyReport, fmt: str = "text",
                  show_witnesses: bool = False) -> str:
    if fmt == "machine":
        head = (f"instance={report.name};module_order={report.module_order};"
                f"end_order={report.end_order if report.end_order is not None else '-'};"
                f"generators={report.generators}")
        lines = [head]
        for prop in PROPERTY_ORDER:
            lines.append(f"{prop}={report.statuses[prop]};"
                         f"witness={report.witnesses[prop]}")
        return "\n".join(lines) + "\n"
    width = max(len(p) for p in PROPERTY_ORDER)
    lines = [f"module {report.name}: order {report.module_order}, "
             f"End order {report.end_order if report.end_order is not None else '(skipped)'}, "
             f"{report.generators} generator(s)"]
    for prop in PROPERTY_ORDER:
        line = f"  {prop:<{width}}  {report.statuses[prop]}"
        if show_witnesses and report.witnesses[prop] != "-":
            line += f"  [{report.witnesses[prop]}]"
        lines.append(line)
    return "\n".join(lines) + "\n"
