"""Module homomorphisms, hom-sets, and endomorphism rings.

hom_set computes Hom(M, N) exactly, as one (count, |M|) array of tables
of N's element indices, of type index_dtype(|N|) (one byte per entry up to
|N| = 256), without trying the |N|^k candidate images of the generators
g_i of M.  A table is a homomorphism iff it sends 0 to 0 and respects
every relation edge x -> x + g_i b_j (b_j the ring's additive basis), and
on the images of the g_i these checks are one additive map into a product
of copies of N, so Hom(M, N) is its kernel.  The kernel is solved exactly,
by extended gcds on integer coordinates, into generators in echelon form;
each generator's table is checked on every edge, and every map is one sum
of their multiples, built in two halves and put at the row that map_rows
reads off its generator images by arithmetic on that echelon form.
hom_count reads the order of Hom(M, N) off the same kernel without
building a map, for the callers that need only the count; the kernel is
solved once per pair of structures, since no cap bears on it.

End(M) comes in two layers.  end_ring builds the maps: Hom(M, M)'s tables,
of the hom set's type, numbered by a cyclic decomposition of its additive
group, the power table (row f: the indices of f, f^2, ..., f^s, s the
index of f, where its image and kernel chains end; `rings.index_powers`
builds it, as it builds a ring's `rings.power_table`, so End(M).powers is
the power table of End(M)'s ring table), the image and kernel
mask of every element, the identity's index and what the ring table needs
later.  The idempotents, the central idempotents (with the first
noncentral pair) and the nontrivial idempotents are read from the maps,
comparing them on the generators of M; every decider, `analyze` and the
registry's map-side entries read only this layer.  end_table re-equips
End(M) with composition as a FiniteRing, giving every ring-theoretic tool
access to it; it is built only when a caller asks for it: the registry's
"end." ring checks, its left annihilators in End(M), and `module endring`.

An endomorphism is a row of End(M)'s table array and nothing else, and f^n
is the element End(M).powers[f, n - 1], so Im f^n is one mask lookup.
first_chain_term is the one search "for every f, some power f^n has
property P(Im f^n, Ker f^n)": P is tested once per distinct (image,
kernel) pair, and `rings._first_power`, the search the ring checks use,
walks the rows; first_offender is its n = 1 form.  MAP_CHECKS names the
four such checks that the registry reads as predicates on End(M).  A map
between two modules is its table too: check_map validates one by the
relation check of hom_set, for the projections and inclusions of quotients
and submodules, narrowed to the same type once its entries are known to
be elements of the codomain.

A hom set, End(M) and its ring table are `interned` functions, built once
per structure and caps in a process, and so is the kernel of each pair of
structures.  Every module object of the structure gets the same ones,
whatever its name, as domain or as codomain, since modules compare and
hash by their structure key.  End(M) carries no module and no module
name: a caller that prints one adds its own.  The composition self-check
of the ring table is exhaustive, on generator columns.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .caps import Caps, DEFAULT_CAPS, StructureKey, interned
from .errors import NotAHomomorphism, PirickError
from .groups import FinAbGroup, group_embedding, index_dtype
from .modules import (FiniteModule, mask_bits, masks, module_generators,
                      same_ring)
from .rings import (FiniteRing, Verdict, _first_power, _no_offender,
                    _no_offending_pair, index_powers, ring_make)


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
    check of hom_set; returned as a read-only array of hom_set's type,
    index_dtype(|codomain|).  An entry that is not an element index of
    the codomain fails "range" at the first such element, before the table
    is narrowed, where it would wrap around."""
    if not same_ring(domain.ring, codomain.ring):
        raise PirickError("domain and codomain have different base rings")
    table = np.array(table, dtype=np.int64)
    if len(table) != domain.order:
        raise PirickError("map table length does not match domain order")
    outside = (table < 0) | (table >= codomain.order)
    if outside.any():
        raise NotAHomomorphism("range", (int(np.argmax(outside)),))
    table = table.astype(index_dtype(codomain.order))
    gens, basis, ends = edges = _relation_edges(domain)
    holds = _relations_hold(table[:, None], codomain, edges)[:, 0]
    if not holds[0]:
        raise NotAHomomorphism("zero", (0,))
    if not holds.all():
        x, i, j = np.unravel_index(np.argmin(holds) - 1, ends.shape)
        raise NotAHomomorphism("relation", (int(x), gens[i], basis[j]))
    table.flags.writeable = False
    return table


@interned
def hom_set(domain: FiniteModule, codomain: FiniteModule,
            caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """All module homomorphisms domain -> codomain, as one array of shape
    (count, |domain|) and type index_dtype(|codomain|) whose row i is the
    table of the i-th map.

    A map is fixed by its images of the generators of the domain, and the
    rows are in lexicographic order of those images.  They are the kernel
    of one additive map on the candidate images (`_kernel_basis`), spanned
    from checked generating tables and placed by `map_rows`; read-only.
    """
    order = hom_count(domain, codomain, caps)
    gens, _, _ = edges = _relation_edges(domain)
    maps, orders, _ = _kernel_basis(domain, codomain)
    tables = maps @ np.array(codomain.add_group.strides)
    # a sum of homomorphisms is one, so checked generators check the span
    if len(tables) and not _relations_hold(tables.T, codomain, edges).all():
        raise PirickError("a hom-set generator fails the relation check")
    out = _span(maps, orders, codomain)
    if len(out) != order:
        raise PirickError(f"hom set spans {len(out)} maps, not {order}")
    at = map_rows(domain, codomain, out[:, gens])
    if (at != np.arange(order)).any():      # digit order is not key order
        out[at] = out.copy()
    out.flags.writeable = False             # shared by every caller
    return out


def hom_count(domain: FiniteModule, codomain: FiniteModule,
              caps: Caps = DEFAULT_CAPS) -> int:
    """|Hom(domain, codomain)|, the order of `_kernel`, without building a
    map; capped as hom_set is."""
    if not same_ring(domain.ring, codomain.ring):
        raise PirickError("hom set requires a common base ring")
    caps.gate("hom", "hom-set enumeration",
              codomain.order ** len(module_generators(domain)))
    return _kernel(domain, codomain)[1]


@interned
def _presentation(module: FiniteModule) -> tuple:
    """(coef, relations) for the generators g_1, ..., g_k of M.

    Row m of coef holds ring elements r_i with m = sum g_i r_i and row 0
    is 0, found for the sums g_1 R + ... + g_i R in turn, the first r_i
    for each new element.  relations holds the nonzero rows
    coef[x + g_i b_j] - coef[x] - b_j e_i over every relation edge: each
    row r has sum g_i r_i = 0.
    """
    gens, basis, ends = _relation_edges(module)
    add_m = module.add_group.add_table()
    add_r = module.ring.add_group.add_table()
    neg_r = module.ring.add_group.neg_vector()
    reached = np.zeros(1, dtype=np.int64)
    coef = np.zeros((1, 0), dtype=np.int64)
    for g in gens:
        cyclic, r = np.unique(module.act_np[g], return_index=True)
        new, first = np.unique(add_m[reached[:, None], cyclic],
                               return_index=True)
        old, pick = np.divmod(first, len(cyclic))
        coef = np.concatenate([coef[old], r[pick, None]], axis=1)
        reached = new
    if len(reached) < module.order:
        raise PirickError("generators do not generate the module")
    rel = add_r[coef[ends], neg_r[coef][:, None, None]]    # [x, i, j, slot]
    slot = np.arange(len(gens))
    rel[:, slot, :, slot] = add_r[rel[:, slot, :, slot], neg_r[basis]]
    rel = rel.reshape(rel.size // max(len(gens), 1), len(gens))
    return coef, rel[rel.any(axis=1)]


@interned
def _kernel(domain: FiniteModule, codomain: FiniteModule) -> tuple:
    """(rows, order): tuples of coordinates that generate Hom(M, N) as the
    kernel K below, and the order of K, solved once per pair of
    structures.

    Generator images c in N^k give the table E(c)(m) = sum c_i coef[m]_i,
    additive in c, and c are the images of a homomorphism, which is then
    E(c), iff sum c_i r_i = 0 for every relation r of `_presentation`: each
    edge check of `_relations_hold` on E(c), with c_i for E(c)(g_i), is one
    such sum.  Hom(M, N) is thus the kernel K of c -> (sum c_i r_i)_r,
    an additive map from the product of N's cyclic factors, one copy per
    generator, to a product of N's; row (i, e) of the identity is the c
    with c_i the e-th basis element of N and 0 elsewhere.  The identity's
    rows generate K once `_cut` has cut them down to each target
    coordinate's kernel in turn (Cohen, GTM 138, section 2.4), and each
    cut divides the order by its step.
    """
    coef, relations = _presentation(domain)
    group = codomain.add_group
    factors = np.array(group.factors, dtype=np.int64)
    moduli = list(group.factors) * coef.shape[1]
    values = _basis_moves(codomain)[:, relations].transpose(2, 0, 1, 3) \
        .reshape(len(moduli), len(relations) * len(factors))
    rows = [[int(q == s) % m for q in range(len(moduli))]
            for s, m in enumerate(moduli)]
    order = group.order ** coef.shape[1]
    while len(relations):
        hit = (np.array(rows, dtype=np.int64) @ values) \
            .reshape(len(rows), len(relations), len(factors)) % factors
        live = np.flatnonzero(hit.any(axis=0))
        if not live.size:
            break
        r, f = divmod(int(live[0]), len(factors))
        order //= _cut(rows, hit[:, r, f].tolist(), group.factors[f],
                       moduli)[1]
    return tuple(map(tuple, rows)), order


def _kernel_basis(domain: FiniteModule, codomain: FiniteModule) -> tuple:
    """(maps, orders, cuts): homomorphisms h_t, as their tables in N's
    coordinates, [t, m, f], and numbers o_t such that every map in
    Hom(M, N) is sum j_t h_t for exactly one choice of 0 <= j_t < o_t.

    Cut down to the source's own coordinates in turn, the kernel's rows
    give it in echelon (Howell) form: the row set aside at coordinate
    s_t = cuts[t] has zeros before s_t, and its multiples below its step
    o_t differ at s_t, while what is left of the kernel has 0 there too.
    """
    rows = [list(row) for row in _kernel(domain, codomain)[0]]
    coef = _presentation(domain)[0]
    factors = codomain.add_group.factors
    moduli = list(factors) * coef.shape[1]
    pivots, orders, cuts = [], [], []
    for s, m in enumerate(moduli):
        column = [row[s] for row in rows]
        if any(column):
            pivot, step = _cut(rows, column, m, moduli)
            pivots.append(pivot)
            orders.append(step)
            cuts.append(s)
    # E of each basis candidate: [(i, e), (m, f)]
    images = _basis_moves(codomain)[:, coef].transpose(2, 0, 1, 3).reshape(
        len(moduli), domain.order * len(factors))
    sums = np.array(pivots, dtype=np.int64).reshape(
        len(pivots), len(moduli)) @ images
    return sums.reshape(len(pivots), domain.order, len(factors)) \
        % np.array(factors), orders, cuts


def map_rows(domain: FiniteModule, codomain: FiniteModule,
             images) -> np.ndarray:
    """The row in hom_set(domain, codomain) of each homomorphism given by
    its images of the domain's generators, the last axis of `images`: the
    sum of one `_row_shares` entry per generator, in int64."""
    rows = np.zeros(np.shape(images)[:-1], dtype=np.int64)
    for i, share in enumerate(_row_shares(domain, codomain)):
        rows += share[images[..., i]]
    return rows


@interned
def _row_shares(domain: FiniteModule, codomain: FiniteModule) -> np.ndarray:
    """[i, x]: what the image x of the i-th generator adds to a map's row.

    Rows are in lexicographic order of the images' coordinates v (N's
    strides are big-endian).  At each cut of `_kernel_basis`, coordinate
    s_t with step o_t and modulus m, maps that agree before s_t take
    values there in a coset of <g_t>, g_t = m / o_t, and maps that agree
    at s_0, ..., s_t agree before s_(t+1).  So the row is the mixed-radix
    number of the digits v[s_t] // g_t, radices o_t, the first most
    significant."""
    _, orders, cuts = _kernel_basis(domain, codomain)
    factors = codomain.add_group.factors
    coords = codomain.add_group.coords_matrix()
    shares = np.zeros((len(module_generators(domain)), len(coords)), np.int64)
    weight = math.prod(orders)
    for s, o in zip(cuts, orders):
        weight //= o
        i, e = divmod(s, len(factors))
        shares[i] += coords[:, e] // (factors[e] // o) * weight
    return shares


@interned
def _basis_moves(module: FiniteModule) -> np.ndarray:
    """[e, r, f]: coordinate f of the e-th additive basis element of M
    times the ring element r."""
    group = module.add_group
    basis = [group.basis_index(e) for e in range(len(group.factors))]
    return group.coords_matrix()[module.act_np[basis]]


def _cut(rows: list, values: list, n: int, moduli: list) -> tuple:
    """Cut the group spanned by rows, lists of coordinates modulo moduli,
    down to the kernel of a map into Z/n, in place; values, not all 0 mod
    n, are the rows' images there.

    Extended gcds bring every value but row p's to 0 by unimodular row
    operations, leaving p the value d = gcd(values); row p is then replaced
    by its multiple o = n / gcd(d, n), the first with value 0.  Returns
    (row p before that, o)."""
    live = [q for q, v in enumerate(values) if v % n]
    p, d = live[0], values[live[0]] % n
    for q in live[1:]:
        v = values[q] % n
        g, x, y = _ext_gcd(d, v)
        rp, rq = rows[p], rows[q]
        rows[p] = [(x * a + y * b) % m for a, b, m in zip(rp, rq, moduli)]
        rows[q] = [(v // g * a - d // g * b) % m
                   for a, b, m in zip(rp, rq, moduli)]
        d = g
    pivot = rows[p]
    step = n // math.gcd(d, n)
    rows[p] = [a * step % m for a, m in zip(pivot, moduli)]
    return pivot, step


def _ext_gcd(a: int, b: int) -> tuple:
    """(g, x, y) with g = gcd(a, b) = x a + y b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _span(maps: np.ndarray, orders: list,
          codomain: FiniteModule) -> np.ndarray:
    """The tables of sum j_t h_t over every 0 <= j_t < orders[t], h_t given
    as maps[t] in N's coordinates, as one array of the type of N's add
    table, index_dtype(|N|), in order of the digits j, the first t most
    significant.

    The sums split in two halves, over the first maps (about the square
    root of all in number) and over the rest, each found from its digits j
    by one product in N's coordinates.  Every head plus every tail is then
    one gather from N's add table, as `group_embedding` stacks its cosets.
    """
    count = math.prod(orders)
    cut = 0
    while cut < len(orders) and math.prod(orders[:cut + 1]) ** 2 <= count:
        cut += 1
    group = codomain.add_group
    factors, strides = np.array(group.factors), np.array(group.strides)
    head, tail = (_sums(maps[part], orders[part], factors, strides)
                  for part in (slice(0, cut), slice(cut, None)))
    return group.add_table()[head[:, None], tail[None]] \
        .reshape(count, maps.shape[1])


def _sums(maps: np.ndarray, orders: list, factors: np.ndarray,
          strides: np.ndarray) -> np.ndarray:
    """The tables of sum j_t h_t over every 0 <= j_t < orders[t], the first
    t most significant, for h_t given as maps[t] in the coordinates of a
    group with these factors and strides."""
    count, width = math.prod(orders), maps.shape[1]
    digits = np.indices(orders).reshape(len(orders), count).T
    sums = digits @ maps.reshape(len(orders), width * len(factors))
    return (sums.reshape(count, width, len(factors)) % factors) @ strides


# ---------------------------------------------------------------------------
# endomorphism rings
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EndRing:
    """End(M) as maps: element i is the endomorphism with table tables[i],
    the elements numbered as group_embedding numbers them in `group`, End(M)
    under addition; multiplication is composition, (f * g)(m) = f(g(m)).

    key is StructureKey(structure key of M, caps).  Row f of powers holds
    the element indices of f, f^2, ..., f^s and then -1s, s being f's
    index, the first n with Ker f^n == Ker f^(n+1); images[x] and
    kernels[x] are the bitmasks of Im x and Ker x, so term n of f's image
    chain is images[powers[f, n - 1]].  A map is fixed by its images of the generators `gens` of M, so
    maps are compared there.  one is the identity's index, and constants
    the products of the basis maps of `group`, which is all that
    `end_table` needs to build the ring table.
    """

    key: StructureKey
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
    module object of that structure gets the same one.  A build over the
    construct cap stops at the gate, on the order of Hom(M, M), before any
    map is built; a build under other caps is never reused."""
    caps.gate("construct", "ring construction",
              hom_count(module, module, caps))
    raw = hom_set(module, module, caps)                  # (s, n)
    # A map is determined by its generator images, which give its row.
    gens = np.array(module_generators(module), dtype=np.int64)
    images = raw[:, gens]
    add_m = module.add_group.add_table()
    group, from_label, to_index, basis_labels = group_embedding(
        np.arange(len(raw)),
        lambda i, j: map_rows(module, module, add_m[images[i], images[j]]))
    tables = raw[from_label]
    basis = raw[basis_labels]
    # products[i, j] is the index of basis map i after basis map j
    products = to_index[map_rows(module, module, basis[:, basis[:, gens]])]
    constants = {(i, j): c for i, row in enumerate(products.tolist())
                 for j, c in enumerate(row)}
    one = int(to_index[map_rows(module, module, gens)])
    # f^(n+1) = f(f^n(g)) on the generators g, and kernel sizes |Ker f|
    powers = index_powers(
        len(tables),
        lambda f, fn: to_index[map_rows(module, module, tables[
            f[:, None], tables[fn[:, None], gens]])],
        (tables == 0).sum(axis=1))
    in_image = np.zeros(tables.shape, dtype=bool)
    in_image[np.arange(len(tables))[:, None], tables] = True
    for array in (tables, gens, powers):
        array.flags.writeable = False
    return EndRing(StructureKey(module.key, caps), tables, powers,
                   tuple(masks(in_image)), tuple(masks(tables == 0)), one,
                   gens, group, constants)


@interned
def end_table(end: EndRing) -> FiniteRing:
    """End(M) as a validated FiniteRing whose element i is map i, built on
    request: the ring laws of `ring_make`, then the composition self-check.

    The check is exhaustive over all |End|^2 pairs: the map at index
    mul[i, j] must be map i after map j.  Both are homomorphisms (rows of
    hom_set, and their composition), so they are equal iff they agree on
    the generators of M.  Rows are compared a block at a time by
    `rings._no_offending_pair`, the scan of the commutative and domain
    checks, and the first pair that fails, in row-major order, is named.
    """
    return _build_end_table(end)


def _build_end_table(end: EndRing) -> FiniteRing:
    ring = ring_make(end.group, end.constants, end.one, end.key.parts[1],
                     "End(M)")
    tables, mul = end.tables, ring.mul_np
    on_gens = tables[:, end.gens]
    check = _no_offending_pair(
        lambda rows: (on_gens[mul[rows]] != tables[rows][:, on_gens])
        .any(axis=2), end.order)
    if not check.holds:
        raise PirickError("endomorphism ring table disagrees with "
                          f"composition at {check.counterexample}")
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
    every one is.  Maps are compared on the generators of M.  Composition
    is additive in g, so e is central iff it commutes with the basis maps
    of end.group; only the first noncentral e is held against every g."""
    tables, gens = end.tables, end.gens
    idem = idempotent_maps(end)
    basis = tables[[end.group.basis_index(j)
                    for j in range(len(end.group.factors))]]
    # [b, e, g]: e(b(g)) == b(e(g))
    commutes = (tables[idem[:, None], basis[:, None, gens]] ==
                basis[:, tables[idem[:, None], gens]]).all(axis=(0, 2))
    if commutes.all():
        return tuple(idem.tolist()), None
    e = int(idem[np.argmin(commutes)])
    bad = (tables[e][tables[:, gens]] != tables[:, tables[e, gens]]) \
        .any(axis=1)
    return tuple(idem[commutes].tolist()), (e, int(np.argmax(bad)))


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
def distinct_pairs(end: EndRing) -> tuple:
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
    returns a witness w other than None, an integer or True (read as 1).

    test runs once per distinct (Im x, Ker x) of an element x, and
    `rings._first_power` searches the rows, looking up each f^n's witness
    by its pair.  Witnesses f -> (n, w), for the smallest such n, are the
    Verdict's arrays; the counterexample is the first f with none.
    """
    pairs, pair_of = distinct_pairs(end)
    found = np.array([-1 if w is None else int(w)
                      for w in (test(im, ker) for im, ker in pairs)])
    return _first_power(end.powers, lambda f, fn: found[pair_of[fn]],
                        terms=terms)


def first_offender(end: EndRing, bad) -> Verdict:
    """Holds iff bad(Im f, Ker f) is false for every f; the counterexample
    is the first f for which it is true.  bad runs once per distinct
    (Im f, Ker f)."""
    pairs, pair_of = distinct_pairs(end)
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
# the first f that fails, and a search's witnesses are f -> (n, 1).
MAP_CHECKS = {
    # only f = 0 has Im f = 0, so this is "every nonzero f is epi"
    "nonzero_epi": lambda end: _image_trivial(end, at_first=True),
    # Im f = M, or Im f^n = 0: f nilpotent
    "epi_or_nilpotent": lambda end: _image_trivial(end, at_first=False),
    "summand_pair": lambda end: _summands(end, kernels=True),
    "closed_summand": lambda end: _summands(end, kernels=False),
}
