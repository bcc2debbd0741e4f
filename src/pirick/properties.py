"""Property deciders for finite modules.

Every decider is exact: it enumerates the endomorphism ring, the submodule
lattice, or a hom set outright and returns a Verdict with explicit witnesses
(exponents, idempotents, counterexample elements).  A Facts object hands
the deciders the shared objects (End(M), the lattice, quotients,
submodules, verdicts).  Its key is (structure key of the module, caps), and
each of those is memoized under it in the one cache, `caps.INTERNED`, so
every module of one structure gets one of each, and a decider runs once per
structure and caps; the registry in `theorems` builds its submodules, e*R
among them, through the same Facts.  Every submodule is a bitmask over the
module's elements, as in `modules`: the lattice's masks, and the image and
kernel chains of every endomorphism, read from End(M)'s one `powers`
result and nowhere else.  The deciders "every f has a power f^n with
property P" (the four Rickart properties, Fitting, co-Hopfian) are each one
`homs.first_chain_term` search over those chains; their witnesses, and the
chain-stabilization deciders', map f to (n, w).  Facts.verdict also
reads the map checks of `homs.MAP_CHECKS` by name, searches of the same
shape that no report prints.  A quotient's projection and a submodule's
inclusion are tables, as `homs.check_map` returns them.  The left singular
ideal of End(M) is read from End(M)'s own multiplication table.

analyze() runs the deciders in a fixed order and produces a PropertyReport;
deciders that would exceed a size cap report status "skipped" instead of
guessing.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .caps import Caps, DEFAULT_CAPS, interned
from .errors import SizeCapExceeded
from .homs import (MAP_CHECKS, EndRing, are_isomorphic, end_ring,
                   first_chain_term, hom_set, idempotent_image_masks)
from .modules import (FiniteModule, all_submodules, first_moving_map,
                      is_small, lattice_gate, mask_bits, module_generators,
                      quotient_module, submodule_module)
from .rings import (FiniteRing, Verdict, central_idempotent_scan,
                    jacobson_radical, nontrivial_idempotents, power_trail,
                    ring_idempotents)

PROPERTY_ORDER = (
    "dual_rickart",
    "dual_pi_rickart",
    "rickart",
    "pi_rickart",
    "fitting",
    "morphic",
    "co_hopfian",
    "strongly_co_hopfian",
    "strongly_hopfian",
    "c2",
    "d2",
    "abelian",
    "duo",
    "self_cogenerator",
    "quasi_projective",
    "indecomposable",
)


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
        self.key = (module.key, caps)

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
    return first_chain_term(facts.end().powers,
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
    Witnesses map f to (smallest such n, True)."""
    full = facts.module.order
    return first_chain_term(facts.end().powers, lambda im, ker: (
        im & ker) == 1 and im.bit_count() * ker.bit_count() == full or None)


def decide_morphic(facts: Facts) -> Verdict:
    """M/Im f and Ker f are isomorphic, for every f."""
    powers = facts.end().powers
    seen = {}
    for f, (imgs, kers) in enumerate(zip(powers.images, powers.kernels)):
        key = (imgs[0], kers[0])
        if key not in seen:
            quot, _ = facts.quotient(imgs[0])
            inner, _ = facts.inner(kers[0])
            seen[key] = are_isomorphic(quot, inner, facts.caps)
        if not seen[key]:
            return Verdict(False, {}, f)
    return Verdict(True, {}, None)


def decide_co_hopfian(facts: Facts) -> Verdict:
    """Every injective endomorphism is surjective."""
    everything = (1 << facts.module.order) - 1
    return first_chain_term(facts.end().powers, lambda im, ker: (
        ker != 1 or im == everything or None), terms=1)


def _chain_stabilization(facts: Facts, kernels: bool) -> Verdict:
    """Always true for a finite module; witnesses map f to (n, True), n the
    exponent at which the image (kernel) chain of f stabilizes."""
    powers = facts.end().powers
    chains = powers.kernels if kernels else powers.images
    return Verdict(True, {f: (len(c), True) for f, c in enumerate(chains)})


def decide_strongly_co_hopfian(facts: Facts) -> Verdict:
    """The image chain of every endomorphism stabilizes."""
    return _chain_stabilization(facts, kernels=False)


def decide_strongly_hopfian(facts: Facts) -> Verdict:
    """The kernel chain of every endomorphism stabilizes."""
    return _chain_stabilization(facts, kernels=True)


# ---------------------------------------------------------------------------
# lattice deciders
# ---------------------------------------------------------------------------


def _summand_when_isomorphic(facts: Facts, quotients: bool) -> Verdict:
    """Every submodule N (with `quotients`, every M/N) isomorphic to a
    direct summand has N itself a summand.

    The counterexample is (N, D) for the first such N that is not a
    summand and the smallest summand D it is isomorphic to.
    """
    idem = facts.idem_masks()
    summands = sorted(idem)
    for mask in facts.lattice():
        if mask in idem:
            continue
        shape = (facts.quotient if quotients else facts.inner)(mask)[0]
        for dmask in summands:
            if dmask.bit_count() != shape.order:
                continue
            dinner, _ = facts.inner(dmask)
            if are_isomorphic(shape, dinner, facts.caps):
                return Verdict(False, {}, (mask, dmask))
    return Verdict(True, {}, None)


def decide_c2(facts: Facts) -> Verdict:
    """Every submodule isomorphic to a direct summand is itself a summand."""
    return _summand_when_isomorphic(facts, quotients=False)


def decide_d2(facts: Facts) -> Verdict:
    """Whenever M/N is isomorphic to a direct summand, N is a summand."""
    return _summand_when_isomorphic(facts, quotients=True)


def decide_abelian(facts: Facts) -> Verdict:
    """Every idempotent endomorphism is central in End(M)."""
    noncentral = central_idempotent_scan(facts.end().ring)[1]
    return Verdict(noncentral is None, {}, noncentral)


def decide_duo(facts: Facts) -> Verdict:
    """Every submodule is stable under every endomorphism."""
    tables = facts.end().tables
    for mask in facts.lattice():
        f = first_moving_map(mask, tables)
        if f is not None:
            return Verdict(False, {}, (f, mask))
    return Verdict(True, {}, None)


def decide_self_cogenerator(facts: Facts) -> Verdict:
    """Every factor module M/N is cogenerated by M: the kernels of all
    homomorphisms M/N -> M intersect to zero."""
    for mask in facts.lattice():
        quot, _ = facts.quotient(mask)
        homs = hom_set(quot, facts.module, facts.caps)
        in_all_kernels = (homs == 0).all(axis=0)
        if int(in_all_kernels.sum()) != 1:
            return Verdict(False, {}, mask)
    return Verdict(True, {}, None)


def decide_quasi_projective(facts: Facts) -> Verdict:
    """Every homomorphism M -> M/N lifts through the projection."""
    end = facts.end()
    for mask in facts.lattice():
        quot, proj = facts.quotient(mask)
        homs = hom_set(facts.module, quot, facts.caps)
        lifted = proj[end.tables]
        # each lifted row is a map M -> M/N, so all of Hom(M, M/N) is lifted
        # iff there are as many distinct lifted rows as maps
        if len(set(map(bytes, lifted))) != len(homs):
            lifted = set(map(tuple, lifted.tolist()))
            h = next(h for h in map(tuple, homs.tolist()) if h not in lifted)
            return Verdict(False, {}, (mask, h))
    return Verdict(True, {}, None)


def decide_indecomposable(facts: Facts) -> Verdict:
    """Only 0 and the identity are idempotent endomorphisms."""
    extra = nontrivial_idempotents(facts.end().ring)
    return Verdict(not extra, {}, extra[0] if extra else None)


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


# ---------------------------------------------------------------------------
# auxiliary structure: singular ideal, small-image endomorphisms
# ---------------------------------------------------------------------------


@interned
def left_singular_ideal(ring: FiniteRing, caps: Caps = DEFAULT_CAPS):
    """Z_l(R), the elements f whose left annihilator {g : g*f = 0} is an
    essential left ideal, read off the ring's own table.

    As for `modules.is_essential` on the left regular module, a left ideal
    is essential iff it contains the left socle {x : J(R)*x = 0}, so f is
    in Z_l(R) iff s*f = 0 for every s in that socle.  The check is gated by
    the lattice cap at the order of R, the order of that module.
    """
    lattice_gate(ring.order, caps)
    mul = ring.mul_np                                 # mul[g, f] = g * f
    soc = (mul[jacobson_radical(ring)] == 0).all(axis=0)
    return np.flatnonzero((mul[soc] == 0).all(axis=0))


def singular_nil_jacobson(ring: FiniteRing, caps: Caps = DEFAULT_CAPS):
    """Check every left-singular element is nilpotent and in the Jacobson
    radical.  Returns (Verdict, singular indices); witnesses map each
    singular element to its nilpotency index."""
    sing = left_singular_ideal(ring, caps)
    rad = set(jacobson_radical(ring).tolist())
    witnesses = {}
    for a in sing.tolist():
        trail = power_trail(ring, a)
        if 0 not in trail:
            return Verdict(False, witnesses, (a, "not nilpotent")), sing
        if a not in rad:
            return Verdict(False, witnesses, (a, "outside radical")), sing
        witnesses[a] = trail.index(0) + 1
    return Verdict(True, witnesses, None), sing


def small_image_endos(facts: Facts):
    """Endomorphisms with small (superfluous) image, with nilpotency data.

    Returns a list of (f index, is_nilpotent, nilpotency index or None).
    """
    powers = facts.end().powers
    out = []
    for f, imgs in enumerate(powers.images):
        if not is_small(facts.module, imgs[0], facts.caps):
            continue
        if imgs[-1] == 1:
            out.append((f, True, len(imgs)))
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


def largest_exponent(witnesses: dict) -> tuple:
    """(a, n, w) for the witness a -> (n, w) with the largest (n, a)."""
    a = max(witnesses, key=lambda a: (witnesses[a][0], a))
    return (a, *witnesses[a])


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
    w = verdict.witnesses
    if prop in ("dual_pi_rickart", "pi_rickart") and w:
        return "f={},n={},e={}".format(*largest_exponent(w))
    if prop in ("fitting", "strongly_co_hopfian", "strongly_hopfian") and w:
        return "f={},n={}".format(*largest_exponent(w))
    if prop in ("dual_rickart", "rickart") and w:
        f_max = max(w, key=lambda f: (w[f][1], f))
        return f"f={f_max},e={w[f_max][1]}"
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
        end_order = end.ring.order
        idem_count = int(ring_idempotents(end.ring).size)
        if statuses.get("dual_pi_rickart") == "true":
            dpr = facts.verdict("dual_pi_rickart")
            max_n = largest_exponent(dpr.witnesses)[1]
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
