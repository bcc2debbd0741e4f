"""Module homomorphisms, hom-sets, and endomorphism rings.

hom_set enumerates Hom(M, N) exactly: images of generators g_i of M are
expanded, a block at a time, to full tables along the relation edges
x -> x + g_i b_j (b_j the ring's additive basis), and a table is kept iff
it sends 0 to 0 and respects every edge; the result is one (count, |M|)
array.  Isomorphism is decided from the same enumeration: find_isomorphism
returns the first bijective row of hom_set, after cheap invariant checks.

End(M) comes in two layers.  end_ring builds the maps: Hom(M, M)'s tables
numbered by a cyclic decomposition of its additive group, the power table
(row f: the indices of f, f^2, ..., f^s, s the index of f, where its image
and kernel chains end), the image and kernel mask of every element, the
identity's index and what the ring table needs later.  The idempotents,
the central idempotents (with the first noncentral pair) and the
nontrivial idempotents are read from the maps, comparing them on the
generators of M; every decider, `analyze` and the registry's map-side
entries read only this layer.  end_table re-equips End(M) with composition
as a FiniteRing, giving every ring-theoretic tool access to it; it is built
only when a caller asks for it: the registry's "end." ring checks, its
left annihilators in End(M), P2.17's 1 - e, and `module endring`.

An endomorphism is a row of End(M)'s table array and nothing else, and f^n
is the element End(M).powers[f, n - 1], so Im f^n is one mask lookup.
first_chain_term is the one search "for every f, some power f^n has
property P(Im f^n, Ker f^n)": P is tested once per distinct (image,
kernel) pair, and `rings._first_power`, the search the ring checks use,
walks the rows; first_offender is its n = 1 form.  MAP_CHECKS names the
four such checks that the registry reads as predicates on End(M).  A map
between two modules is its table too: check_map validates one by the
relation check of hom_set, for the projections and inclusions of quotients
and submodules.

A hom set, End(M) and its ring table are built once per structure and
caps in a process, in the intern table `caps.INTERNED`; every module object
of the structure gets the same ones, whatever its name, and a cap failure
is remembered.  End(M) carries no module and no module name: a caller that
prints one adds its own.  The composition self-check of the ring table is
exhaustive, on generator columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .caps import Caps, DEFAULT_CAPS, INTERNED, interned
from .errors import NotAHomomorphism, PirickError, SizeCapExceeded
from .groups import FinAbGroup, elementary_divisors, group_embedding
from .modules import (FiniteModule, mask_bits, masks, module_generators,
                      same_ring)
from .rings import (FiniteRing, Verdict, _first_power, _no_offender,
                    ring_make)


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


def check_map(domain: FiniteModule, codomain: FiniteModule,
              table) -> np.ndarray:
    """A homomorphism of right modules over a common ring, given by its
    table over the domain's element indices, validated by the relation
    check of hom_set; returned as a read-only int64 array."""
    if not same_ring(domain.ring, codomain.ring):
        raise PirickError("domain and codomain have different base rings")
    table = np.array(table, dtype=np.int64)
    if len(table) != domain.order:
        raise PirickError("map table length does not match domain order")
    gens, basis, ends = edges = _relation_edges(domain)
    holds = _relations_hold(table[:, None], codomain, edges)[:, 0]
    if not holds[0]:
        raise NotAHomomorphism("zero", (0,))
    if not holds.all():
        x, i, j = np.unravel_index(np.argmin(holds) - 1, ends.shape)
        raise NotAHomomorphism("relation", (int(x), gens[i], basis[j]))
    table.flags.writeable = False
    return table


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
# endomorphism rings
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EndRing:
    """End(M) as maps: element i is the endomorphism with table tables[i],
    the elements numbered as group_embedding numbers them in `group`, End(M)
    under addition; multiplication is composition, (f * g)(m) = f(g(m)).

    key is (structure key of M, caps).  Row f of powers holds the element
    indices of f, f^2, ..., f^s and then -1s, s being f's index, the first
    n with Ker f^n == Ker f^(n+1); images[x] and kernels[x] are the bitmasks
    of Im x and Ker x, so term n of f's image chain is images[powers[f, n -
    1]].  A map is fixed by its images of the generators `gens` of M, so
    maps are compared there.  one is the identity's index, and constants
    the products of the basis maps of `group`, which is all that
    `end_table` needs to build the ring table.
    """

    key: tuple
    tables: np.ndarray
    powers: np.ndarray
    images: tuple
    kernels: tuple
    one: int
    gens: np.ndarray
    group: FinAbGroup
    constants: dict

    @property
    def order(self) -> int:
        return len(self.tables)

    @property
    def ring(self) -> FiniteRing:
        """The ring table, `end_table(self)`, built on first request.  The
        package calls end_table; this attribute serves readers of
        `end.ring`, `perfbench/trace.py` among them, which reads
        `.ring.order` of every End(M) it sees built."""
        return end_table(self)


@interned
def end_ring(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> EndRing:
    """Compute End(M) as maps, without its ring table.

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
    gens = np.array(module_generators(module), dtype=np.int64)
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
    tables = raw[from_label]
    basis = raw[basis_labels]
    # products[i, j] is the index of basis map i after basis map j
    products = to_index[raw_index(basis[:, basis[:, gens]])]
    constants = {(i, j): int(c) for (i, j), c in np.ndenumerate(products)}
    one = int(to_index[raw_index(gens)])
    powers = _power_table(tables, gens,
                          lambda gen_images: to_index[raw_index(gen_images)])
    in_image = np.zeros(tables.shape, dtype=bool)
    in_image[np.arange(len(tables))[:, None], tables] = True
    for array in (tables, gens, powers):
        array.flags.writeable = False
    return EndRing((module.key, caps), tables, powers,
                   tuple(masks(in_image)), tuple(masks(tables == 0)), one,
                   gens, group, constants)


def _power_table(tables: np.ndarray, gens: np.ndarray, index) -> np.ndarray:
    """The (|End|, m) table whose row f holds f, f^2, ..., f^s and then
    -1s, s the first n with |Ker f^n| == |Ker f^(n+1)| and m the largest
    s; index(images) is the element with these generator images.

    Ker f^n grows with n, so it stops changing at s, and so does Im f^n,
    as |Im f^n| * |Ker f^n| = |M|: s is f's index, the first n with f^n =
    f^(n+p) for some p.  f^(n+1) is found on the generators alone, as
    f(f^n(g)), for the rows still growing.  Its type is the smallest
    signed integer type that holds -|End|, as for `rings.power_table`.
    """
    order = len(tables)
    kernel_size = (tables == 0).sum(axis=1)
    rows = power = np.arange(order)
    steps = []                            # steps[n]: rows and their f^(n+1)
    while rows.size:
        steps.append((rows, power))
        up = index(tables[rows[:, None], tables[power[:, None], gens]])
        grows = kernel_size[up] != kernel_size[power]
        rows, power = rows[grows], up[grows]
    out = np.full((order, len(steps)), -1, dtype=np.min_scalar_type(-order))
    for n, (rows, power) in enumerate(steps):
        out[rows, n] = power
    return out


@interned
def end_table(end: EndRing) -> FiniteRing:
    """End(M) as a validated FiniteRing whose element i is map i, built on
    request: the ring laws of `ring_make`, then the composition self-check.

    The check is exhaustive over all |End|^2 pairs: the map at index
    mul[i, j] must be map i after map j.  Both are homomorphisms (rows of
    hom_set, and their composition), so they are equal iff they agree on
    the generators of M.  Rows are compared a block at a time, and the
    first pair that fails, in row-major order, is named.
    """
    return _build_end_table(end)


def _build_end_table(end: EndRing) -> FiniteRing:
    ring = ring_make(end.group, end.constants, end.one, end.key[1], "End(M)")
    tables, mul = end.tables, ring.mul_np
    on_gens = tables[:, end.gens]
    block = max(1, (1 << 14) // max(1, on_gens.size))
    for lo in range(0, end.order, block):
        rows = slice(lo, lo + block)
        bad = (on_gens[mul[rows]] != tables[rows][:, on_gens]).any(axis=2)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), end.order)
            raise PirickError("endomorphism ring table disagrees with "
                              f"composition at ({lo + i}, {j})")
    return ring


# ---------------------------------------------------------------------------
# idempotents, read from the maps
# ---------------------------------------------------------------------------


@interned
def idempotent_maps(end: EndRing) -> np.ndarray:
    """Sorted indices of the idempotents e, e(e(x)) == e(x) on the
    generators of M."""
    on_gens = end.tables[:, end.gens]
    twice = np.take_along_axis(end.tables, on_gens, axis=1)
    return np.flatnonzero((twice == on_gens).all(axis=1))


@interned
def central_idempotent_maps(end: EndRing) -> tuple:
    """(central, noncentral): the idempotents e with e*g == g*e for every
    g, in ascending order, and (e, g) for the first idempotent e that is
    not, g being the first map with e*g != g*e; noncentral is None when
    every one is.  Maps are compared on the generators of M."""
    tables = end.tables
    on_gens = tables[:, end.gens]
    central, noncentral = [], None
    for e in idempotent_maps(end).tolist():
        bad = (tables[e][on_gens] != tables[:, tables[e, end.gens]]) \
            .any(axis=1)
        if not bad.any():
            central.append(e)
        elif noncentral is None:
            noncentral = (e, int(np.argmax(bad)))
    return tuple(central), noncentral


@interned
def nontrivial_idempotent_maps(end: EndRing) -> tuple:
    """The idempotents other than 0 and the identity, in ascending order."""
    return tuple(e for e in idempotent_maps(end).tolist()
                 if e not in (0, end.one))


# ---------------------------------------------------------------------------
# powers, images, kernels, annihilators
# ---------------------------------------------------------------------------


def power_rows(end: EndRing):
    """(f, [f, f^2, ..., f^s]) for each f: row f of end.powers as a list,
    without its -1s."""
    for f, row in enumerate(end.powers.tolist()):
        yield f, row[:row.index(-1)] if -1 in row else row


@interned
def _distinct_pairs(end: EndRing) -> tuple:
    """(pairs, pair_of): the distinct pairs (Im x, Ker x) of the elements
    x, in order of first appearance, and the index in pairs of each x's;
    found once per structure and caps."""
    pairs = {}
    pair_of = np.array([pairs.setdefault(pair, len(pairs))
                        for pair in zip(end.images, end.kernels)])
    return list(pairs), pair_of


def first_chain_term(end: EndRing, test, terms: int = None) -> Verdict:
    """Whether every f has a power f^n, among the first `terms` of its row
    of end.powers (all by default), for which test(Im f^n, Ker f^n)
    returns a witness w other than None.

    test runs once per distinct (Im x, Ker x) of an element x, and
    `rings._first_power` searches the rows for the elements that pass.
    Witnesses map f -> (n, w) for the smallest such n; the counterexample
    is the first f with none.
    """
    pairs, pair_of = _distinct_pairs(end)
    found = [test(im, ker) for im, ker in pairs]
    passed = np.array([-1 if w is None else p for p, w in enumerate(found)])
    v = _first_power(end.powers, lambda f, fn: passed[pair_of[fn]],
                     terms=terms)
    return Verdict(v.holds, {f: (n, found[p])
                             for f, (n, p) in v.witnesses.items()},
                   v.counterexample)


def first_offender(end: EndRing, bad) -> Verdict:
    """Holds iff bad(Im f, Ker f) is false for every f; the counterexample
    is the first f for which it is true.  bad runs once per distinct
    (Im f, Ker f)."""
    pairs, pair_of = _distinct_pairs(end)
    return _no_offender(np.array([bool(bad(im, ker))
                                  for im, ker in pairs])[pair_of])


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
    for e in idempotent_maps(end).tolist():
        out.setdefault(end.images[e], e)
    return out


# ---------------------------------------------------------------------------
# map checks: "every f has a power f^n with property P", by name
# ---------------------------------------------------------------------------


@interned
def _double_annihilator_closed(end: EndRing, mask: int) -> bool:
    """r_M(l_S(N)) == N for the submodule N with this mask, S = End(M)."""
    return right_annihilator(end, left_annihilator(end, mask)) == mask


def _summands(end: EndRing, kernels: bool) -> Verdict:
    """Every f has Im f^n a summand and, at the same n, Ker f^n a summand
    (with `kernels`) or Im f^n double-annihilator closed (without)."""
    idem = idempotent_image_masks(end)
    return first_chain_term(end, lambda im, ker: im in idem and (
        ker in idem if kernels else _double_annihilator_closed(end, im))
        or None)


def _image_trivial(end: EndRing, at_first: bool) -> Verdict:
    """Every f has Im f (with `at_first`) or some Im f^n in {0, M}."""
    trivial = (1, (1 << end.tables.shape[1]) - 1)
    if at_first:
        return first_offender(end, lambda im, ker: im not in trivial)
    return first_chain_term(end, lambda im, ker: im in trivial or None)


# Read by name through `properties.Facts.verdict`; the counterexample is
# the first f that fails, and a search's witnesses are f -> (n, True).
MAP_CHECKS = {
    # only f = 0 has Im f = 0, so this is "every nonzero f is epi"
    "nonzero_epi": lambda end: _image_trivial(end, at_first=True),
    # Im f = M, or Im f^n = 0: f nilpotent
    "epi_or_nilpotent": lambda end: _image_trivial(end, at_first=False),
    "summand_pair": lambda end: _summands(end, kernels=True),
    "closed_summand": lambda end: _summands(end, kernels=False),
}
