"""Module homomorphisms, hom-sets, and endomorphism rings.

hom_set enumerates Hom(M, N) exactly: images of generators g_i of M are
expanded, a block at a time, to full tables along the relation edges
x -> x + g_i b_j (b_j the ring's additive basis), and a table is kept iff
it sends 0 to 0 and respects every edge; the result is one (count, |M|)
array.  Isomorphism is decided from the same enumeration: find_isomorphism
returns the first bijective row of hom_set, after cheap invariant checks.
end_ring re-equips Hom(M, M) with composition as a FiniteRing (via a
cyclic decomposition of its additive group), giving every ring-theoretic
tool access to End(M).

An endomorphism is a row of End(M)'s table array and nothing else:
power_chains takes a whole stack of tables and returns the image and
kernel bitmasks of every power of every row in one batch, and End(M) keeps
that result for all of its elements; chain_term reads term n of a chain,
and first_chain_term is the one search "for every f, some power f^n has
property P" over them, the module-side twin of `rings._first_power`.
ModuleMap, a table between two modules validated by the same relation
check, is only the projections and inclusions of quotients and submodules.

A hom set and End(M) are built once per structure and caps in a process,
in the intern table `caps.INTERNED`; every module object of the structure
gets the same ones, whatever its name, and a cap failure is remembered.
End(M) carries no module and no module name: a caller that prints one adds
its own.  The composition self-check of End(M) is exhaustive, on generator
columns.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .caps import Caps, DEFAULT_CAPS, INTERNED, interned
from .errors import NotAHomomorphism, PirickError, SizeCapExceeded
from .groups import elementary_divisors, group_embedding
from .modules import (FiniteModule, mask_bits, masks, module_generators,
                      same_ring)
from .rings import FiniteRing, Verdict, ring_idempotents, ring_make


class ModuleMap:
    """A homomorphism of right modules over a common ring, as one table
    array over the domain's element indices, validated on construction by
    the relation check of hom_set.  The table is read-only."""

    __slots__ = ("domain", "codomain", "table_np")

    def __init__(self, domain: FiniteModule, codomain: FiniteModule, table):
        if not same_ring(domain.ring, codomain.ring):
            raise PirickError("domain and codomain have different base rings")
        self.domain = domain
        self.codomain = codomain
        self.table_np = np.array([int(x) for x in table], dtype=np.int64)
        if len(self.table_np) != domain.order:
            raise PirickError("map table length does not match domain order")
        gens, basis, ends = edges = _relation_edges(domain)
        holds = _relations_hold(self.table_np[:, None], codomain, edges)[:, 0]
        if not holds[0]:
            raise NotAHomomorphism("zero", (0,))
        if not holds.all():
            x, i, j = np.unravel_index(np.argmin(holds) - 1, ends.shape)
            raise NotAHomomorphism("relation", (int(x), gens[i], basis[j]))
        self.table_np.flags.writeable = False

    @property
    def table(self) -> tuple:
        return tuple(self.table_np.tolist())

    def __repr__(self) -> str:
        return (f"ModuleMap({self.domain.name!r} -> {self.codomain.name!r}, "
                f"{self.table})")


# ---------------------------------------------------------------------------
# hom sets
# ---------------------------------------------------------------------------


@interned
def _relation_edges(module: FiniteModule) -> tuple:
    """The generators g_i of a module M, the additive basis b_j of its ring,
    and the (|M|, k, b) array whose entry [x, i, j] is x + g_i b_j."""
    gens = list(module_generators(module))
    group = module.ring.add_group
    basis = [group.basis_index(j) for j in range(len(group.factors))]
    steps = module.act_np[gens][:, basis]
    return gens, basis, module.add_group.add_table()[:, steps]


def _relations_hold(tables: np.ndarray, codomain: FiniteModule,
                    edges: tuple) -> np.ndarray:
    """For an (|M|, count) array whose columns are tables t: M -> codomain,
    the boolean (1 + |M| * k * b, count) array whose row 0 is t(0) == 0 and
    whose row 1 + (x * k + i) * b + j is t(x + g_i b_j) == t(x) + t(g_i) b_j.

    A table is a homomorphism iff its column is all True.  Every m = sum
    g_i r_i is a sum of terms g_i b_j, and induction on that sum gives
    t(x + m) = t(x) + sum t(g_i) r_i; with x = 0 and t(0) = 0, t(m) = sum
    t(g_i) r_i, so t is additive, and R-linear as (sum t(g_i) r_i) s = sum
    t(g_i)(r_i s).  The converse is immediate; the argument holds for any
    table, however it was derived."""
    gens, basis, ends = edges
    moved = codomain.act_np[tables[gens][:, None], np.array(basis)[:, None]]
    rhs = codomain.add_group.add_table()[tables[:, None, None], moved[None]]
    holds = (tables[ends] == rhs).reshape(-1, tables.shape[1])
    return np.concatenate([tables[:1] == 0, holds])


def _derivation_plan(module: FiniteModule, gens: list,
                     ends: np.ndarray) -> list:
    """Steps (target, source, e), target = ends[source].flat[e]: a spanning
    tree of the relation edges from zero and the generators, each source
    derived before its use, along which generator images fix a table."""
    queue = [0, *sorted(gens)]             # grows breadth first
    derived = set(queue)
    plan = []
    for src in queue:
        for e, tgt in enumerate(ends[src].ravel().tolist()):
            if tgt not in derived:
                derived.add(tgt)
                plan.append((tgt, src, e))
                queue.append(tgt)
    if len(derived) < module.order:
        raise PirickError("generators do not generate the module")
    return plan


def hom_set(domain: FiniteModule, codomain: FiniteModule,
            caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """All module homomorphisms domain -> codomain, as one int64 array of
    shape (count, |domain|) whose row i is the table of the i-th map.

    Candidate images for a generating set of the domain are enumerated in
    lexicographic order, in blocks; each block is expanded along the
    derivation plan and the tables that send 0 to 0 and satisfy t(x + g b) =
    t(x) + t(g) b for every element x, generator g and additive basis
    element b of the ring are kept, in that order.  The array is read-only.
    """
    if not same_ring(domain.ring, codomain.ring):
        raise PirickError("hom set requires a common base ring")
    return INTERNED.get_or_build(
        "hom_set", (domain.key, codomain.key), caps,
        lambda: _enumerate_homs(domain, codomain, caps))


def _enumerate_homs(domain: FiniteModule, codomain: FiniteModule,
                    caps: Caps) -> np.ndarray:
    gens, basis, ends = edges = _relation_edges(domain)
    count = codomain.order ** len(gens)
    if count > caps.hom:
        raise SizeCapExceeded("hom-set enumeration", count, caps.hom)
    plan = _derivation_plan(domain, gens, ends)
    add_c = codomain.add_group.add_table()
    radix = codomain.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    kept = []
    # t holds candidate tables as columns; the zero module has no edges.
    chunk = max(1, (1 << 16) // max(1, ends.size))
    for lo in range(0, count, chunk):
        cand = np.arange(lo, min(count, lo + chunk), dtype=np.int64)
        t = np.zeros((domain.order, cand.size), dtype=np.int64)
        t[gens] = cand // radix[:, None] % codomain.order
        moved = codomain.act_np[t[gens][:, None], np.array(basis)[:, None]] \
            .reshape(-1, cand.size)                    # t(g_i) b_j
        for tgt, src, e in plan:
            t[tgt] = add_c[t[src], moved[e]]
        kept.append(t[:, _relations_hold(t, codomain, edges).all(axis=0)].T)
    out = np.concatenate(kept)
    out.flags.writeable = False             # shared by every caller
    return out


def find_isomorphism(m1: FiniteModule, m2: FiniteModule,
                     caps: Caps = DEFAULT_CAPS):
    """A module isomorphism m1 -> m2 over the same ring, as the full index
    map tuple, or None.

    Modules over other rings, of other orders or with other elementary
    divisors are told apart before anything is enumerated.  Otherwise the
    answer is the first bijective row of hom_set(m1, m2, caps): the rows
    come in lexicographic order of the generator images, so this is the
    isomorphism with the smallest generator images.
    """
    if not same_ring(m1.ring, m2.ring) or m1.order != m2.order or \
            elementary_divisors(m1.add_group.factors) != \
            elementary_divisors(m2.add_group.factors):
        return None
    maps = hom_set(m1, m2, caps)
    bijective = (np.sort(maps, axis=1) == np.arange(m1.order)).all(axis=1)
    if not bijective.any():
        return None
    return tuple(maps[np.argmax(bijective)].tolist())


def are_isomorphic(m1: FiniteModule, m2: FiniteModule,
                   caps: Caps = DEFAULT_CAPS) -> bool:
    return find_isomorphism(m1, m2, caps) is not None


# ---------------------------------------------------------------------------
# image and kernel chains
# ---------------------------------------------------------------------------


class PowerChains(NamedTuple):
    """Image and kernel chains of a stack of endomorphisms, as bitmasks.

    For the map f in row i, images[i] is (Im f, Im f^2, ..., Im f^s), where
    s = len(images[i]) is the first n with Im f^n == Im f^(n+1), so the
    last term is the stable image; kernels[i] is the same for Ker f^n.
    """

    images: tuple
    kernels: tuple


def power_chains(tables: np.ndarray) -> PowerChains:
    """The image and kernel chains of every row of a (k, |M|) stack of
    endomorphism tables, every row and power in one batch.

    Row i of the n-th power is f^n for the map f of row i, and the (n+1)-th
    power is one gather of `tables` by it.  Once Im f^n == Im f^(n+1) every
    later term is the same (Ker likewise), so powers are taken until no
    row's image or kernel changes, and each chain is cut at its first
    repeated term.
    """
    k, n = tables.shape
    rows = np.arange(k)[:, None]
    steps = []                    # steps[p]: (image masks, kernel masks)
    power = tables
    while True:
        in_image = np.zeros((k, n), dtype=bool)
        in_image[rows, power] = True
        step = (masks(in_image), masks(power == 0))
        if steps and step == steps[-1]:
            break
        steps.append(step)
        power = np.take_along_axis(tables, power, axis=1)
    images = [_until_repeat(terms) for terms in zip(*(s[0] for s in steps))]
    kernels = [_until_repeat(terms) for terms in zip(*(s[1] for s in steps))]
    return PowerChains(tuple(images), tuple(kernels))


def chain_term(chain: tuple, n: int) -> int:
    """Term n of a power chain, Im f^n (Ker f^n) for chain images[f]
    (kernels[f]), also for n past its end, where every term is the last."""
    return chain[min(n, len(chain)) - 1]


def first_chain_term(powers: PowerChains, test, terms: int = None) -> Verdict:
    """Whether every row f has a power f^n, n among the first `terms` (by
    default to the end of its longer chain), for which test(Im f^n, Ker f^n)
    returns a witness w other than None.  Witnesses map f -> (n, w) for the
    smallest such n; the counterexample is the first f with none.
    """
    witnesses = {}
    for f, (imgs, kers) in enumerate(zip(powers.images, powers.kernels)):
        for n in range(1, (terms or max(len(imgs), len(kers))) + 1):
            w = test(chain_term(imgs, n), chain_term(kers, n))
            if w is not None:
                witnesses[f] = (n, w)
                break
        else:
            return Verdict(False, witnesses, counterexample=f)
    return Verdict(True, witnesses)


def _until_repeat(terms) -> tuple:
    """The terms before the first one equal to its predecessor."""
    out = [terms[0]]
    for term in terms[1:]:
        if term == out[-1]:
            break
        out.append(term)
    return tuple(out)


# ---------------------------------------------------------------------------
# endomorphism rings
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EndRing:
    """End(M) as a FiniteRing whose element i is the endomorphism with
    table tables[i]; multiplication is composition, (f * g)(m) = f(g(m)).

    key is (structure key of M, caps), and powers holds the image and
    kernel chains of every element.
    """

    key: tuple
    ring: FiniteRing
    tables: np.ndarray
    powers: PowerChains


@interned
def end_ring(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> EndRing:
    """Compute End(M) with composition, as a validated FiniteRing.

    Built at most once per structure and caps in a process, and every
    module object of that structure gets the same one; a build over a cap
    raises the same SizeCapExceeded again without rebuilding.  A build
    under other caps is never reused."""
    return _build_end_ring(module, caps)


def _build_end_ring(module: FiniteModule, caps: Caps) -> EndRing:
    raw = hom_set(module, module, caps)                  # (s, n)
    if len(raw) > caps.construct:
        raise SizeCapExceeded("ring construction", len(raw), caps.construct)
    # A map is determined by its generator images; read in mixed radix they
    # give its candidate number, which increases along hom_set's rows.
    gens = list(module_generators(module))
    radix = module.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    images = raw[:, gens]
    keys = images @ radix
    add_m = module.add_group.add_table()

    def raw_index(gen_images):
        """Row of raw for each map given by a (..., #gens) image stack."""
        return np.searchsorted(keys, gen_images @ radix)

    group, from_label, to_index, basis_labels = group_embedding(
        np.arange(len(raw)),
        lambda i, j: raw_index(add_m[images[i], images[j]]))
    stacked = raw[from_label]
    basis = raw[basis_labels]
    # products[i, j] is the index of basis map i after basis map j
    products = to_index[raw_index(basis[:, basis[:, gens]])]
    constants = {(i, j): int(c) for (i, j), c in np.ndenumerate(products)}
    one = int(to_index[raw_index(np.array(gens, dtype=np.int64))])
    ring = ring_make(group, constants, one, caps, "End(M)")

    # Independent check, exhaustive over all |End|^2 pairs: the map at
    # ring index mul[i, j] must be the composition of map i after map j.
    # Both are homomorphisms (rows of hom_set, and their composition), so
    # they are equal iff they agree on the generators of M.
    on_gens = stacked[:, gens]
    for i in range(group.order):
        bad = (on_gens[ring.mul_np[i]] != stacked[i][on_gens]).any(axis=1)
        if bad.any():
            raise PirickError("endomorphism ring table disagrees with "
                              f"composition at ({i}, {int(np.argmax(bad))})")
    stacked.flags.writeable = False
    return EndRing((module.key, caps), ring, stacked, power_chains(stacked))


# ---------------------------------------------------------------------------
# images, kernels, annihilators
# ---------------------------------------------------------------------------


def image(end: EndRing, f: int) -> int:
    """The bitmask of Im f for the endomorphism f of End(M)."""
    return end.powers.images[f][0]


def left_annihilator(end: EndRing, mask: int) -> np.ndarray:
    """Indices of {g in End(M) : g(x) == 0 for every x in the bitmask}."""
    bits = mask_bits(mask, end.tables.shape[1])
    return np.flatnonzero((end.tables[:, bits] == 0).all(axis=1))


def right_annihilator(end: EndRing, endo_indices) -> int:
    """The bitmask of r_M(X) = {m : g(m) == 0 for every g in X}."""
    idx = np.array([int(i) for i in endo_indices], dtype=np.int64)
    keep = (end.tables[idx] == 0).all(axis=0)
    return masks(keep[None])[0]


@interned
def idempotent_image_masks(end: EndRing) -> dict:
    """Map from image bitmask of an idempotent endomorphism to the smallest
    such idempotent's ring index; computed once per structure and caps."""
    out = {}
    for e in ring_idempotents(end.ring).tolist():
        out.setdefault(image(end, e), e)
    return out
