"""Module homomorphisms, hom-sets, and endomorphism rings.

A ModuleMap is a full table (tuple over the domain's element indices) and is
validated on construction: additivity against both addition tables and
linearity against both action tables, fully vectorized.  Maps produced by
provably-safe recipes (composition of validated maps, identity, tables
already checked by hom_set) skip re-validation.

hom_set enumerates Hom(M, N) exactly: a generating set of M is chosen, the
assignments of generator images are expanded, a block at a time, to full
tables along a fixed derivation plan, and a table is kept iff it validates;
the result is one (count, |M|) array.  end_ring re-equips Hom(M, M) with
composition as a FiniteRing (via a cyclic decomposition of its additive
group), giving every ring-theoretic tool access to End(M).

End(M) is built at most once per (structure, caps) in a process: another
module object of a cached structure gets the ring with the maps re-bound to
it, a cap failure is remembered, and the composition self-check is exhaustive.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from .caps import Caps, DEFAULT_CAPS, cached
from .errors import NotAHomomorphism, PirickError, SizeCapExceeded
from .groups import group_embedding
from .modules import FiniteModule, Submodule, module_generators, same_ring
from .rings import FiniteRing, ring_idempotents, ring_make


class ModuleMap:
    """A homomorphism of right modules over a common ring, as a full table."""

    __slots__ = ("domain", "codomain", "table", "table_np")

    def __init__(self, domain: FiniteModule, codomain: FiniteModule,
                 table, _validated: bool = False):
        if not same_ring(domain.ring, codomain.ring):
            raise PirickError("domain and codomain have different base rings")
        self.domain = domain
        self.codomain = codomain
        self.table = tuple(int(x) for x in table)
        if len(self.table) != domain.order:
            raise PirickError("map table length does not match domain order")
        self.table_np = np.array(self.table, dtype=np.int64)
        if not _validated:
            self._validate()

    def _validate(self):
        t = self.table_np
        add_d = self.domain.add_group.add_table()
        add_c = self.codomain.add_group.add_table()
        lhs_add = t[add_d]
        rhs_add = add_c[t[:, None], t[None, :]]
        if not np.array_equal(lhs_add, rhs_add):
            a, b = np.argwhere(lhs_add != rhs_add)[0]
            raise NotAHomomorphism("additivity", (int(a), int(b)))
        act_d = self.domain.act_np
        act_c = self.codomain.act_np
        lhs = t[act_d]
        rhs = act_c[t, :]
        if not np.array_equal(lhs, rhs):
            m, r = np.argwhere(lhs != rhs)[0]
            raise NotAHomomorphism("linearity", (int(m), int(r)))

    def __call__(self, m: int) -> int:
        return self.table[m]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleMap) and self.domain is other.domain
                and self.codomain is other.codomain
                and self.table == other.table)

    def __hash__(self) -> int:
        return hash((id(self.domain), id(self.codomain), self.table))

    def __repr__(self) -> str:
        return (f"ModuleMap({self.domain.name!r} -> {self.codomain.name!r}, "
                f"{self.table})")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.table)


def identity_map(module: FiniteModule) -> ModuleMap:
    return ModuleMap(module, module, range(module.order), _validated=True)


def compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f after g (domain of f must be the codomain of g)."""
    if f.domain is not g.codomain:
        raise PirickError("composition mismatch")
    return ModuleMap(g.domain, f.codomain, f.table_np[g.table_np],
                     _validated=True)


def map_power(f: ModuleMap, n: int) -> ModuleMap:
    """n-th compositional power of an endomorphism (power 0 is the identity)."""
    if f.domain is not f.codomain:
        raise PirickError("powers need an endomorphism")
    if n < 0:
        raise PirickError("power must be >= 0")
    if n == 0:
        return identity_map(f.domain)
    out = f
    for _ in range(n - 1):
        out = compose(f, out)
    return out


# ---------------------------------------------------------------------------
# hom sets
# ---------------------------------------------------------------------------


def _derivation_plan(module: FiniteModule, gens: list) -> list:
    """Steps (target, source, gen_pos, r) deriving every element of the module.

    Interpretation: target = source + gens[gen_pos] * r.  Sources are always
    derived (or zero / a generator) before they are used, and each element is
    derived exactly once; together with images for the generators this
    determines a candidate map table completely.
    """
    add = module.add_group.add_table()
    act = module.act_np
    derived = {0}
    for g in gens:
        derived.add(g)
    plan = []
    frontier = sorted(derived)
    while len(derived) < module.order:
        new = []
        for src in frontier:
            for pos, g in enumerate(gens):
                for r in range(module.ring.order):
                    tgt = int(add[src, act[g, r]])
                    if tgt not in derived:
                        derived.add(tgt)
                        plan.append((tgt, src, pos, r))
                        new.append(tgt)
        if not new and len(derived) < module.order:
            raise PirickError("generators do not generate the module")
        frontier = new
    return plan


def hom_set(domain: FiniteModule, codomain: FiniteModule,
            caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """All module homomorphisms domain -> codomain, as one int64 array of
    shape (count, |domain|) whose row i is the table of the i-th map.

    Candidate images for a generating set of the domain are enumerated in
    lexicographic order, in blocks; each block is expanded along the
    derivation plan and the rows that are additive, linear and send 0 to 0
    are kept, in that order.
    """
    if not same_ring(domain.ring, codomain.ring):
        raise PirickError("hom set requires a common base ring")
    gens = list(module_generators(domain))
    count = codomain.order ** len(gens)
    if count > caps.hom:
        raise SizeCapExceeded("hom-set enumeration", count, caps.hom)
    plan = _derivation_plan(domain, gens)
    add_c = codomain.add_group.add_table()
    act_c = codomain.act_np
    add_d = domain.add_group.add_table()
    act_d = domain.act_np
    n_d = domain.order
    radix = codomain.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    kept = []
    # Chunk candidates so the (chunk, n_d, n_d) additivity and the
    # (chunk, n_d, |R|) linearity temporaries stay small.
    chunk = max(1, (1 << 18) // (n_d * max(n_d, domain.ring.order)))
    for lo in range(0, count, chunk):
        cand = np.arange(lo, min(count, lo + chunk), dtype=np.int64)
        images = cand[:, None] // radix % codomain.order
        t = np.zeros((cand.size, n_d), dtype=np.int64)
        t[:, gens] = images
        for tgt, src, pos, r in plan:
            t[:, tgt] = add_c[t[:, src], act_c[images[:, pos], r]]
        ok = t[:, 0] == 0
        ok &= (t[:, add_d] == add_c[t[:, :, None], t[:, None, :]]) \
            .all(axis=(1, 2))
        ok &= (t[:, act_d] == act_c[t, :]).all(axis=(1, 2))
        kept.append(t[ok])
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# endomorphism rings
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EndRing:
    """End(M) as a FiniteRing whose element i is the ModuleMap maps[i].

    Multiplication is composition: (f * g)(m) = f(g(m)).  index_of maps a
    table tuple to its ring index; row i of tables is maps[i].table_np.
    EndRings of one structure and caps share tables, index_of and idem_masks.
    """

    module: FiniteModule
    ring: FiniteRing
    maps: tuple
    index_of: dict
    tables: np.ndarray
    idem_masks: dict = dataclasses.field(default_factory=dict)

    def map_index(self, f: ModuleMap) -> int:
        return self.index_of[f.table]


# (structure, caps) -> the first EndRing built, or the SizeCapExceeded
# arguments (what, size, cap) of a failed build.
_END_CACHE = {}


def _structure_key(module: FiniteModule) -> tuple:
    ring = module.ring
    return (ring.add_group.factors, ring.one,
            tuple(sorted(ring.constants.items())),
            module.add_group.factors, tuple(sorted(module.constants.items())))


def _rebind(end: EndRing, module: FiniteModule) -> EndRing:
    """end's maps and ring, bound to another module of the same structure."""
    maps = []
    for f in end.maps:
        g = ModuleMap.__new__(ModuleMap)
        g.domain = g.codomain = module
        g.table, g.table_np = f.table, f.table_np
        maps.append(g)
    ring = end.ring
    if ring.name != f"end_{module.name}":
        ring = copy.copy(ring)               # shares the tables and _memo
        ring.name = f"end_{module.name}"
    return dataclasses.replace(end, module=module, ring=ring, maps=tuple(maps))


@cached
def end_ring(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> EndRing:
    """Compute End(M) with composition, as a validated FiniteRing.

    Built at most once per structure and caps in a process: another module
    object of that structure gets the cached ring with its maps re-bound to
    it, and a build over a cap raises the same SizeCapExceeded again without
    rebuilding.  A build under other caps is never reused."""
    cache_key = (_structure_key(module), caps)
    entry = _END_CACHE.get(cache_key)
    if isinstance(entry, tuple):
        raise SizeCapExceeded(*entry)
    if entry is None:
        try:
            entry = _build_end_ring(module, caps)
        except SizeCapExceeded as err:
            _END_CACHE[cache_key] = (err.what, err.size, err.cap)
            raise
        _END_CACHE[cache_key] = entry
    return entry if entry.module is module else _rebind(entry, module)


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

    group, from_label = group_embedding(
        np.arange(len(raw)),
        lambda i, j: raw_index(add_m[images[i], images[j]]))
    stacked = raw[from_label]
    to_index = np.empty(len(raw), dtype=np.int64)
    to_index[from_label] = np.arange(len(raw))

    basis = stacked[[group.basis_index(i) for i in range(len(group.factors))]]
    # products[i, j] is the index of basis map i after basis map j
    products = to_index[raw_index(basis[:, basis[:, gens]])]
    constants = {(i, j): int(c) for (i, j), c in np.ndenumerate(products) if c}
    one = int(to_index[raw_index(np.array(gens, dtype=np.int64))])
    ring = ring_make(group, constants, one, caps, f"end_{module.name}")

    # Independent check, exhaustive over all |End|^2 pairs: the map at
    # ring index mul[i, j] must be the composition of map i after map j.
    for i in range(group.order):
        bad = (stacked[ring.mul_np[i]] != stacked[i][stacked]).any(axis=1)
        if bad.any():
            raise PirickError("endomorphism ring table disagrees with "
                              f"composition at ({i}, {int(np.argmax(bad))})")
    maps = tuple(ModuleMap(module, module, row, _validated=True)
                 for row in stacked.tolist())
    index_of = {f.table: i for i, f in enumerate(maps)}
    return EndRing(module, ring, maps, index_of, stacked)


# ---------------------------------------------------------------------------
# images, kernels, annihilators
# ---------------------------------------------------------------------------


def image(f: ModuleMap) -> Submodule:
    return Submodule(f.codomain, np.unique(f.table_np).tolist())


def kernel(f: ModuleMap) -> Submodule:
    return Submodule(f.domain, np.nonzero(f.table_np == 0)[0].tolist())


def image_chain(f: ModuleMap):
    """([Im f, Im f^2, ..., Im f^s], s) where s is the first n with
    Im f^n == Im f^(n+1) (equivalently the last entry is the stable image)."""
    if f.domain is not f.codomain:
        raise PirickError("image chain needs an endomorphism")
    imgs = [image(f)]
    cur = f
    while True:
        cur = compose(f, cur)
        im = image(cur)
        if im == imgs[-1]:
            return imgs, len(imgs)
        imgs.append(im)


def kernel_chain(f: ModuleMap):
    """([Ker f, Ker f^2, ..., Ker f^s], s) with s the first stable exponent."""
    if f.domain is not f.codomain:
        raise PirickError("kernel chain needs an endomorphism")
    kers = [kernel(f)]
    cur = f
    while True:
        cur = compose(f, cur)
        ker = kernel(cur)
        if ker == kers[-1]:
            return kers, len(kers)
        kers.append(ker)


def is_nilpotent_map(f: ModuleMap):
    """(bool, index): whether some power of f is the zero map."""
    imgs, _ = image_chain(f)
    if imgs[-1].is_zero():
        return True, len(imgs)
    return False, None


def left_annihilator(end: EndRing, elems) -> np.ndarray:
    """Indices of {g in End(M) : g(x) == 0 for every x in elems}."""
    arr = np.array(sorted(set(int(e) for e in elems)), dtype=np.int64)
    if arr.size == 0:
        return np.arange(len(end.maps), dtype=np.int64)
    mask = (end.tables[:, arr] == 0).all(axis=1)
    return np.nonzero(mask)[0].astype(np.int64)


def right_annihilator(end: EndRing, endo_indices) -> Submodule:
    """r_M(X) = {m : g(m) == 0 for every g in X}, as a Submodule of M."""
    idx = np.array([int(i) for i in endo_indices], dtype=np.int64)
    keep = (end.tables[idx] == 0).all(axis=0)
    return Submodule(end.module, np.nonzero(keep)[0].tolist())


def principal_left_ideal(end: EndRing, e: int) -> np.ndarray:
    """Indices of S*e = {g * e : g in S} (composition g after e)."""
    return np.unique(end.ring.mul_np[:, e]).astype(np.int64)


def idempotent_image_masks(end: EndRing) -> dict:
    """Map from image bitmask of an idempotent endomorphism to the smallest
    such idempotent's ring index; computed once per structure and caps."""
    out = end.idem_masks
    if not out:                 # never empty once filled: 0 is idempotent
        for e in ring_idempotents(end.ring).tolist():
            out.setdefault(image(end.maps[e]).mask, int(e))
    return out


def summand_by_idempotent(sub: Submodule, end: EndRing):
    """Decide 'is a direct summand' via idempotent endomorphisms.

    N is a summand iff N == e(M) for some idempotent e in End(M); this is an
    independent route from the complement search over the lattice.
    Returns (bool, idempotent ring index or None).
    """
    if sub.module is not end.module:
        raise PirickError("submodule does not belong to the endomorphism "
                          "ring's module")
    masks = idempotent_image_masks(end)
    if sub.mask in masks:
        return True, masks[sub.mask]
    return False, None


def is_indecomposable(end: EndRing) -> bool:
    """No idempotent endomorphisms besides 0 and the identity."""
    idem = set(ring_idempotents(end.ring).tolist())
    one = end.ring.one
    return idem <= {0, one}
