"""Property deciders for finite modules.

Every decider is exact: it enumerates the endomorphism ring, the submodule
lattice, or a hom set outright and returns a Verdict with explicit witnesses
(exponents, idempotents, counterexample elements).  A Facts object hands
the deciders the shared objects (End(M), the lattice, chains, quotients,
submodules, verdicts), each memoized per module and caps by `caps.cached`, so
a full analysis builds each one once.

analyze() runs the deciders in a fixed order and produces a PropertyReport;
deciders that would exceed a size cap report status "skipped" instead of
guessing.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .caps import Caps, DEFAULT_CAPS, cached
from .errors import SizeCapExceeded
from .homs import (EndRing, end_ring, hom_set, image, image_chain,
                   idempotent_image_masks, is_indecomposable, kernel,
                   kernel_chain)
from .modules import (FiniteModule, Submodule, all_submodules, are_isomorphic,
                      is_small, is_essential, module_generators,
                      quotient_module, ring_as_module, submodule_module)
from .rings import (FiniteRing, Verdict, jacobson_radical, opposite_ring,
                    power_trail, ring_idempotents)

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

    Every Facts of one module and caps shares one memo, so the methods
    marked `cached` run once per (module, caps, arguments).
    """

    def __init__(self, module: FiniteModule, caps: Caps = DEFAULT_CAPS):
        self.module = module
        self.caps = caps
        self._memo = module._memo.setdefault(("facts", caps), {})

    def end(self) -> EndRing:
        return end_ring(self.module, self.caps)

    def lattice(self) -> list:
        return all_submodules(self.module, self.caps)

    def idem_masks(self) -> dict:
        return idempotent_image_masks(self.end())

    @cached
    def chains(self, f_idx: int):
        """(image chain, stabilization exponent) for endomorphism f_idx."""
        return image_chain(self.end().maps[f_idx])

    @cached
    def ker_chains(self, f_idx: int):
        return kernel_chain(self.end().maps[f_idx])

    @cached
    def quotient(self, mask: int):
        """(M/N, projection) for the submodule with this bitmask."""
        return quotient_module(self.module, self._sub(mask), self.caps)

    @cached
    def inner(self, mask: int):
        """(N as a module, inclusion) for the submodule with this bitmask."""
        return submodule_module(self._sub(mask), self.caps)

    def _sub(self, mask: int) -> Submodule:
        elems = [e for e in range(self.module.order) if (mask >> e) & 1]
        return Submodule(self.module, elems)

    @cached
    def verdict(self, prop: str, decider) -> Verdict:
        return decider(self)


# ---------------------------------------------------------------------------
# endomorphism-image deciders
# ---------------------------------------------------------------------------


def min_exponent(module: FiniteModule, f, caps: Caps = DEFAULT_CAPS):
    """Smallest n with Im f^n equal to e(M) for an idempotent e in End(M).

    Returns (n, idempotent ring index) or None when no power works.  The
    idempotent is the smallest ring index realizing the stable image.
    """
    end = end_ring(module, caps)
    if not isinstance(f, int):
        f = end.map_index(f)
    masks = idempotent_image_masks(end)
    imgs, _ = image_chain(end.maps[f])
    for n, im in enumerate(imgs, start=1):
        if im.mask in masks:
            return n, masks[im.mask]
    return None


def _idempotent_generated(facts: Facts, kernels: bool,
                          any_power: bool) -> Verdict:
    """Im f (Ker f with `kernels`) is the image of an idempotent, for every
    f; with `any_power`, for some term of the power chain of f.

    Witnesses map f to the smallest such idempotent, or with `any_power` to
    (smallest exponent n, smallest idempotent realizing that term).
    """
    end = facts.end()
    masks = facts.idem_masks()
    witnesses = {}
    for f in range(end.ring.order):
        if any_power:
            chain, _ = facts.ker_chains(f) if kernels else facts.chains(f)
        else:
            chain = [(kernel if kernels else image)(end.maps[f])]
        found = next(((n, masks[sub.mask])
                      for n, sub in enumerate(chain, start=1)
                      if sub.mask in masks), None)
        if found is None:
            return Verdict(False, witnesses, f)
        witnesses[f] = found if any_power else found[1]
    return Verdict(True, witnesses, None)


def decide_dual_rickart(facts: Facts) -> Verdict:
    """Im f is generated by an idempotent endomorphism, for every f."""
    return _idempotent_generated(facts, kernels=False, any_power=False)


def decide_dual_pi_rickart(facts: Facts) -> Verdict:
    """Some power of every f has image generated by an idempotent.

    Witnesses map f to (smallest such exponent n, smallest idempotent whose
    image equals Im f^n).
    """
    return _idempotent_generated(facts, kernels=False, any_power=True)


def decide_rickart(facts: Facts) -> Verdict:
    """Ker f is generated by an idempotent endomorphism, for every f."""
    return _idempotent_generated(facts, kernels=True, any_power=False)


def decide_pi_rickart(facts: Facts) -> Verdict:
    """Some power of every f has kernel generated by an idempotent."""
    return _idempotent_generated(facts, kernels=True, any_power=True)


def decide_fitting(facts: Facts) -> Verdict:
    """For every f some power splits M as Ker f^n + Im f^n (sum direct)."""
    end = facts.end()
    full = facts.module.order
    witnesses = {}
    for f in range(end.ring.order):
        imgs, si = facts.chains(f)
        kers, sk = facts.ker_chains(f)
        bound = max(si, sk)
        found = None
        for n in range(1, bound + 1):
            im = imgs[min(n, si) - 1]
            ker = kers[min(n, sk) - 1]
            if (im.mask & ker.mask) == 1 and im.size * ker.size == full:
                found = n
                break
        if found is None:
            return Verdict(False, witnesses, f)
        witnesses[f] = found
    return Verdict(True, witnesses, None)


def decide_morphic(facts: Facts) -> Verdict:
    """M/Im f and Ker f are isomorphic, for every f."""
    end = facts.end()
    seen = {}
    for f in range(end.ring.order):
        im = image(end.maps[f])
        ker = kernel(end.maps[f])
        key = (im.mask, ker.mask)
        if key not in seen:
            quot, _ = facts.quotient(im.mask)
            inner, _ = facts.inner(ker.mask)
            seen[key] = are_isomorphic(quot, inner)
        if not seen[key]:
            return Verdict(False, {}, f)
    return Verdict(True, {}, None)


def decide_co_hopfian(facts: Facts) -> Verdict:
    """Every injective endomorphism is surjective."""
    end = facts.end()
    full = facts.module.order
    for f in range(end.ring.order):
        counts = np.bincount(end.maps[f].table_np, minlength=full)
        injective = bool((counts <= 1).all())
        surjective = bool((counts >= 1).all())
        if injective and not surjective:
            return Verdict(False, {}, f)
    return Verdict(True, {}, None)


def _chain_stabilization(facts: Facts, kernels: bool) -> Verdict:
    """Always true for a finite module; witnesses record the exponent at
    which the image (kernel) chain of each endomorphism stabilizes."""
    end = facts.end()
    chain_of = facts.ker_chains if kernels else facts.chains
    return Verdict(True, {f: chain_of(f)[1] for f in range(end.ring.order)},
                   None)


def decide_strongly_co_hopfian(facts: Facts) -> Verdict:
    """The image chain of every endomorphism stabilizes."""
    return _chain_stabilization(facts, kernels=False)


def decide_strongly_hopfian(facts: Facts) -> Verdict:
    """The kernel chain of every endomorphism stabilizes."""
    return _chain_stabilization(facts, kernels=True)


# ---------------------------------------------------------------------------
# lattice deciders
# ---------------------------------------------------------------------------


def decide_c2(facts: Facts) -> Verdict:
    """Every submodule isomorphic to a direct summand is itself a summand."""
    masks = facts.idem_masks()
    summands = sorted(masks)
    for sub in facts.lattice():
        if sub.mask in masks:
            continue
        inner, _ = facts.inner(sub.mask)
        for dmask in summands:
            dsub = facts._sub(dmask)
            if dsub.size != sub.size:
                continue
            dinner, _ = facts.inner(dmask)
            if are_isomorphic(inner, dinner):
                return Verdict(False, {}, (sub.mask, dmask))
    return Verdict(True, {}, None)


def decide_d2(facts: Facts) -> Verdict:
    """Whenever M/N is isomorphic to a direct summand, N is a summand."""
    masks = facts.idem_masks()
    summands = sorted(masks)
    for sub in facts.lattice():
        if sub.mask in masks:
            continue
        quot, _ = facts.quotient(sub.mask)
        for dmask in summands:
            dsub = facts._sub(dmask)
            if dsub.size != quot.order:
                continue
            dinner, _ = facts.inner(dmask)
            if are_isomorphic(quot, dinner):
                return Verdict(False, {}, (sub.mask, dmask))
    return Verdict(True, {}, None)


def decide_abelian(facts: Facts) -> Verdict:
    """Every idempotent endomorphism is central in End(M)."""
    end = facts.end()
    mul = end.ring.mul_np
    for e in ring_idempotents(end.ring).tolist():
        left = mul[e, :]
        right = mul[:, e]
        if not np.array_equal(left, right):
            f = int(np.nonzero(left != right)[0][0])
            return Verdict(False, {}, (e, f))
    return Verdict(True, {}, None)


def decide_duo(facts: Facts) -> Verdict:
    """Every submodule is stable under every endomorphism."""
    end = facts.end()
    member = np.zeros(facts.module.order, dtype=bool)
    for sub in facts.lattice():
        member[:] = False
        member[list(sub.elems)] = True
        hits = member[end.tables[:, list(sub.elems)]]
        if not hits.all():
            f = int(np.nonzero(~hits.all(axis=1))[0][0])
            return Verdict(False, {}, (f, sub.mask))
    return Verdict(True, {}, None)


def decide_self_cogenerator(facts: Facts) -> Verdict:
    """Every factor module M/N is cogenerated by M: the kernels of all
    homomorphisms M/N -> M intersect to zero."""
    for sub in facts.lattice():
        quot, _ = facts.quotient(sub.mask)
        homs = hom_set(quot, facts.module, facts.caps)
        in_all_kernels = (homs == 0).all(axis=0)
        if int(in_all_kernels.sum()) != 1:
            return Verdict(False, {}, sub.mask)
    return Verdict(True, {}, None)


def decide_quasi_projective(facts: Facts) -> Verdict:
    """Every homomorphism M -> M/N lifts through the projection."""
    end = facts.end()
    for sub in facts.lattice():
        quot, proj = facts.quotient(sub.mask)
        lifted = set(map(tuple, proj.table_np[end.tables].tolist()))
        for h in map(tuple, hom_set(facts.module, quot, facts.caps).tolist()):
            if h not in lifted:
                return Verdict(False, {}, (sub.mask, h))
    return Verdict(True, {}, None)


def decide_indecomposable(facts: Facts) -> Verdict:
    """Only 0 and the identity are idempotent endomorphisms."""
    end = facts.end()
    if is_indecomposable(end):
        return Verdict(True, {}, None)
    extra = [e for e in ring_idempotents(end.ring).tolist()
             if e not in (0, end.ring.one)]
    return Verdict(False, {}, extra[0])


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


@cached
def left_singular_ideal(ring: FiniteRing, caps: Caps = DEFAULT_CAPS):
    """Elements whose left annihilator is an essential left ideal.

    Left ideals are enumerated as submodules of the regular module of the
    opposite ring, so this is gated by the lattice cap.
    """
    opp = opposite_ring(ring, caps, name=f"{ring.name}_op")
    reg = ring_as_module(opp, caps)
    out = []
    for f in range(ring.order):
        ann = np.nonzero(ring.mul_np[:, f] == 0)[0].tolist()
        sub = Submodule(reg, ann)
        if is_essential(sub, caps):
            out.append(f)
    return np.array(out, dtype=np.int64)


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
    end = facts.end()
    facts.lattice()  # raises through the lattice cap before any work
    out = []
    for f in range(end.ring.order):
        im = image(end.maps[f])
        if not is_small(im, facts.caps):
            continue
        imgs, _ = facts.chains(f)
        if imgs[-1].is_zero():
            out.append((f, True, len(imgs)))
        else:
            out.append((f, False, None))
    return out


def is_epimorphism(table_np) -> bool:
    return np.unique(table_np).size == table_np.shape[0]


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
    timings: dict
    max_witness_n: int | None
    idempotent_count: int | None


def _fmt_sub(facts: Facts, mask: int) -> str:
    elems = [e for e in range(facts.module.order) if (mask >> e) & 1]
    if len(elems) <= 8:
        return "{" + ",".join(str(e) for e in elems) + "}"
    return f"sub(size={len(elems)},min={elems[1] if len(elems) > 1 else 0})"


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
        f_max = max(w, key=lambda f: (w[f][0], f))
        n, e = w[f_max]
        return f"f={f_max},n={n},e={e}"
    if prop in ("fitting", "strongly_co_hopfian", "strongly_hopfian") and w:
        f_max = max(w, key=lambda f: (w[f], f))
        return f"f={f_max},n={w[f_max]}"
    if prop in ("dual_rickart", "rickart") and w:
        f_max = max(w, key=lambda f: (w[f], f))
        return f"f={f_max},e={w[f_max]}"
    return "-"


def analyze(module: FiniteModule, caps: Caps = DEFAULT_CAPS,
            name: str | None = None) -> PropertyReport:
    """Run every property decider and collect statuses plus witnesses."""
    facts = Facts(module, caps)
    statuses, witnesses, timings = {}, {}, {}
    for prop in PROPERTY_ORDER:
        start = time.perf_counter()
        try:
            verdict = facts.verdict(prop, DECIDERS[prop])
            statuses[prop] = "true" if verdict.holds else "false"
            witnesses[prop] = _witness_string(facts, prop, verdict)
        except SizeCapExceeded as exc:
            statuses[prop] = "skipped"
            witnesses[prop] = f"cap:{exc.what}"
        timings[prop] = time.perf_counter() - start

    end_order = None
    idem_count = None
    max_n = None
    try:
        end = facts.end()
        end_order = end.ring.order
        idem_count = int(ring_idempotents(end.ring).size)
        if statuses.get("dual_pi_rickart") == "true":
            dpr = facts.verdict("dual_pi_rickart",
                                DECIDERS["dual_pi_rickart"])
            max_n = max((n for n, _ in dpr.witnesses.values()), default=1)
    except SizeCapExceeded:
        pass

    return PropertyReport(
        name=name or module.name,
        module_order=module.order,
        end_order=end_order,
        generators=len(module_generators(module)),
        statuses=statuses,
        witnesses=witnesses,
        timings=timings,
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
