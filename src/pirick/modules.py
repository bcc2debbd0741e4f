"""Finite right modules over finite rings, with explicit action tables.

A FiniteModule is a FinAbGroup together with a right action of a FiniteRing,
given by structure constants on the two additive bases (zero values
dropped) and extended biadditively to a full (|M| x |R|) table by the
ring's own builder, `rings._bilinear_table`, then validated against the
module axioms (identity, associativity of the action, both distributive
laws) by `rings._failed_law`, the exact check that rings go through too.
The table is built and checked once per structure in a process, by
`_checked_act`, an `interned` function of the module's structure key; each
module_make call returns a new module with its own name that shares it.
Modules compare and hash by that key, so an interned function matches a
module argument by its structure.  The generating set, the lattice's masks,
the radical and the socle are interned by structure too.

A submodule of M is an int, a bitmask over M's element indices (bit e set
iff element e is in it), and the functions below take and return it beside
M: its size is mask.bit_count() and its elements are read through
mask_bits.  The lattice, the tuple of every such mask, in which direct
summands are found, is the closure of 0 under S -> S + mR.  Over a
finite, so Artinian, ring the rest needs no lattice: Rad M = M*J(R),
Soc M = ann_M(J(R)), N is small iff N <= Rad M and essential iff
Soc M <= N (Anderson and Fuller, GTM 13, sections 9, 10 and 15), and
`Caps.gate` holds all of them to caps.lattice.  Also here: quotient and
submodule modules with their canonical maps, and the generating set that
hom-set enumeration assigns images to.
"""

from __future__ import annotations

import numpy as np

from .caps import Caps, DEFAULT_CAPS, StructureKey, interned
from .errors import AxiomViolation, PirickError
from .groups import FinAbGroup, group_embedding
from .rings import (FiniteRing, _bilinear_table, _failed_law, _row_blocks,
                    jacobson_radical)


class FiniteModule:
    """A finite right module, with the action as a full (|M|, |R|) table;
    modules of one structure `key` share act_np, and are equal."""

    __slots__ = ("ring", "add_group", "constants", "key", "act_np", "name")

    def __init__(self, ring, add_group, constants, act_np, name):
        self.ring = ring
        self.add_group = add_group
        self.constants = constants
        self.key = StructureKey(ring.key, add_group.factors,
                                tuple(sorted(constants.items())))
        self.act_np = act_np
        self.name = name

    @property
    def order(self) -> int:
        return self.add_group.order

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteModule) and self.key is other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (f"FiniteModule({self.name!r}, order={self.order}, "
                f"over={self.ring.name!r})")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def module_make(ring: FiniteRing, add_group: FinAbGroup, constants: dict,
                caps: Caps = DEFAULT_CAPS, name: str = "M") -> FiniteModule:
    """Build and validate a finite right module from action constants.

    `constants` maps (ring_basis_i, module_basis_j) -> the module element
    index of module basis j acted on by ring basis i; missing pairs default
    to zero, and zero values are dropped.  The ranges of the constants are
    checked on every call; biadditivity, which depends only on the nonzero
    constants, with the table, once per structure.
    """
    caps.gate("construct", "module construction", add_group.order)
    try:
        _validate_action(ring, add_group, constants, biadditive=False)
    except PirickError:
        # a constant before the failure that is not biadditive fails first
        _validate_action(ring, add_group, constants)
        raise
    module = FiniteModule(ring, add_group,
                          {key: c for key, c in constants.items() if c},
                          None, name)
    module.act_np = _checked_act(module)
    return module


def _validate_action(ring: FiniteRing, add_group: FinAbGroup,
                     constants: dict, biadditive: bool = True):
    """Raise the error of the first action constant out of range or, with
    `biadditive`, of the first whose value has an order that does not
    divide the orders of both its basis elements."""
    k_r = len(ring.add_group.factors)
    k_m = len(add_group.factors)
    for (i, j), c in constants.items():
        if not (0 <= i < k_r and 0 <= j < k_m):
            raise PirickError(f"action constant key ({i},{j}) out of range")
        if not (0 <= c < add_group.order):
            raise PirickError(f"action constant value {c} out of range")
        if biadditive and (
                add_group.scale(c, ring.add_group.factors[i]) != 0
                or add_group.scale(c, add_group.factors[j]) != 0):
            raise AxiomViolation("biadditivity", (i, j, c))


@interned
def _checked_act(module: FiniteModule) -> np.ndarray:
    """module's action table, built from its constants and checked."""
    _validate_action(module.ring, module.add_group, module.constants)
    act = _bilinear_table(module.add_group, module.ring.add_group,
                          {(j, i): c for (i, j), c in module.constants.items()})
    failed = _failed_law(act, module.ring, module.add_group)
    if failed:
        raise AxiomViolation(*failed)
    return act


def ring_as_module(ring: FiniteRing, caps: Caps = DEFAULT_CAPS,
                   name: str = None) -> FiniteModule:
    """The right regular module R_R."""
    constants = {(i, j): c for (j, i), c in ring.constants.items()}
    if name is None:
        name = f"{ring.name}_reg"
    return module_make(ring, ring.add_group, constants, caps, name)


# ---------------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------------


def masks(bits: np.ndarray) -> list:
    """The bitmask of each row of a (k, n) boolean array, as Python ints:
    bit e of mask i is bits[i, e]."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    width = packed.shape[-1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)]


def elems_mask(elems, order: int) -> int:
    """The bitmask of an array of element indices below `order`."""
    bits = np.zeros(order, dtype=bool)
    bits[elems] = True
    return masks(bits[None])[0]


def mask_bits(mask: int, order: int) -> np.ndarray:
    """The (order,) boolean array whose entry e is bit e of mask."""
    raw = np.frombuffer(mask.to_bytes((order + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, count=order, bitorder="little").view(bool)


def cyclic_submodules(module: FiniteModule) -> list:
    """The mask of m*R for every m in order, from one `masks` pass over
    the action table, a block of rows at a time."""
    n, act = module.order, module.act_np
    out = []
    for rows in _row_blocks(n, n):
        bits = np.zeros((rows.stop - rows.start, n), dtype=bool)
        bits[np.arange(len(bits))[:, None], act[rows]] = True
        out += masks(bits)
    return out


def _additive_closure(module: FiniteModule, mask: int) -> int:
    """The mask of the subgroup generated by the elements of mask."""
    add = module.add_group.add_table()
    while True:
        elems = np.flatnonzero(mask_bits(mask, module.order))
        grown = mask | elems_mask(add[elems[:, None], elems], module.order)
        if grown == mask:
            return mask
        mask = grown


@interned
def all_submodules(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> tuple:
    """The mask of every submodule, ascending (deterministic order); one
    tuple per structure and caps in a process."""
    return _lattice_masks(module, caps)


def _lattice_masks(module: FiniteModule, caps: Caps) -> tuple:
    """The closure of {0} under S -> S + mR, one m per distinct cyclic
    submodule: every submodule is a sum of cyclic ones.  S + mR is the
    set of x whose coset x + S meets mR."""
    caps.gate("lattice", "submodule lattice", module.order)
    n = module.order
    add = module.add_group.add_table()
    reps = {}                                   # cyclic mask -> first m
    for m, cyclic in enumerate(cyclic_submodules(module)):
        reps.setdefault(cyclic, m)
    products = module.act_np[list(reps.values())]           # [m, r] -> mr
    rows = np.arange(len(reps))[:, None]
    seen = {1}
    frontier = [1]
    while frontier:
        new = []
        for mask in frontier:
            coset = add[:, np.flatnonzero(mask_bits(mask, n))].min(axis=1)
            hit = np.zeros((len(reps), n), dtype=bool)
            hit[rows, coset[products]] = True
            for grown in masks(hit[:, coset]):
                if grown not in seen:
                    seen.add(grown)
                    new.append(grown)
        frontier = new
    return tuple(sorted(seen))


def is_direct_summand(module: FiniteModule, mask: int,
                      caps: Caps = DEFAULT_CAPS):
    """Decide by complement search: N is a summand iff some submodule K has
    N meet K = 0 and |N| * |K| = |M|.  Returns (bool, complement mask or
    None), with the complement of smallest bitmask."""
    size = mask.bit_count()
    for cand in all_submodules(module, caps):
        if mask & cand == 1 and size * cand.bit_count() == module.order:
            return True, cand
    return False, None


def first_moving_map(mask: int, tables: np.ndarray):
    """The first row f of `tables` that maps some element of N out of N,
    or None: N is fully invariant iff every row keeps it in place."""
    bits = mask_bits(mask, tables.shape[1])
    stays = bits[tables[:, bits]].all(axis=1)
    return None if stays.all() else int(np.argmin(stays))


def radical(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> int:
    """The mask of Rad M, the intersection of the maximal submodules."""
    return _rad_soc_masks(module, caps)[0]


def socle(module: FiniteModule, caps: Caps = DEFAULT_CAPS) -> int:
    """The mask of Soc M, the sum of the simple submodules."""
    return _rad_soc_masks(module, caps)[1]


@interned
def _rad_soc_masks(module: FiniteModule, caps: Caps) -> tuple:
    """The masks of Rad M = M*J(R), the subgroup generated by the products
    m*j, since R is Artinian; and of Soc M, the elements that J(R) kills,
    since R/J(R) is semisimple."""
    caps.gate("lattice", "submodule lattice", module.order)
    products = module.act_np[:, jacobson_radical(module.ring)]
    rad = _additive_closure(module, elems_mask(products, module.order))
    return rad, masks((products == 0).all(axis=1)[None])[0]


# ---------------------------------------------------------------------------
# derived modules
# ---------------------------------------------------------------------------


def quotient_module(module: FiniteModule, mask: int,
                    caps: Caps = DEFAULT_CAPS):
    """M/N for the submodule N with this mask, with its projection.
    Returns (quotient, projection table)."""
    from .homs import check_map
    add = module.add_group.add_table()
    arr = np.flatnonzero(mask_bits(mask, module.order))
    # coset label = least element index in m + N
    labels = add[:, arr].min(axis=1)
    group, _, to_index, basis = group_embedding(
        np.flatnonzero(np.bincount(labels)), lambda x, y: labels[add[x, y]])
    table = to_index[labels]
    quotient = module_make(module.ring, group,
                           _action_constants(module, basis, table),
                           caps, f"{module.name}/{mask.bit_count()}")
    return quotient, check_map(module, quotient, table)


def submodule_module(parent: FiniteModule, mask: int,
                     caps: Caps = DEFAULT_CAPS):
    """The submodule N of parent with this mask as a module in its own
    right, on its own cyclic decomposition.  Returns (module, inclusion
    table); element i of the module is element from_label[i] of parent."""
    from .homs import check_map
    add = parent.add_group.add_table()
    group, from_label, to_index, basis = group_embedding(
        np.flatnonzero(mask_bits(mask, parent.order)), lambda x, y: add[x, y])
    inner = module_make(parent.ring, group,
                        _action_constants(parent, basis, to_index), caps,
                        f"{parent.name}|{mask.bit_count()}")
    return inner, check_map(inner, parent, from_label)


def _action_constants(module: FiniteModule, reps, index) -> dict:
    """Structure constants of the module on a group whose basis element j
    is reps[j] in `module`; index[m] is the index in that group of the
    element m of `module`."""
    ring_group = module.ring.add_group
    basis_r = [ring_group.basis_index(i) for i in range(len(ring_group.factors))]
    acted = index[module.act_np[reps[:, None], basis_r]]     # [j, i]
    return {(i, j): c for j, row in enumerate(acted.tolist())
            for i, c in enumerate(row)}


def free_module(ring: FiniteRing, rank: int, caps: Caps = DEFAULT_CAPS,
                name: str | None = None) -> FiniteModule:
    """Direct sum of `rank` copies of the right regular module."""
    if rank < 1:
        raise PirickError("free rank must be >= 1")
    k = len(ring.add_group.factors)
    group = FinAbGroup(ring.add_group.factors * rank)
    constants = {}
    for c in range(rank):
        for (j, i), prod in ring.constants.items():
            coords = [0] * (k * rank)
            coords[c * k:(c + 1) * k] = ring.add_group.tuple_of(prod)
            constants[(i, c * k + j)] = group.index_of(tuple(coords))
    return module_make(ring, group, constants, caps,
                       name or f"{ring.name}_free{rank}")


# ---------------------------------------------------------------------------
# generators and rings
# ---------------------------------------------------------------------------


@interned
def module_generators(module: FiniteModule) -> tuple:
    """A small generating set: greedy cover by cyclic submodules.

    Deterministically picks the element whose cyclic submodule adds the most
    new elements (ties: smallest index) until everything is covered.  The
    indices depend only on the structure, so they are found once per
    structure in a process.
    """
    n = module.order
    cyclics = cyclic_submodules(module)
    covered = 1
    gens = []
    while covered != (1 << n) - 1:
        gains = [(c & ~covered).bit_count() for c in cyclics]
        best = gains.index(max(gains))
        gens.append(best)
        covered = _additive_closure(module, covered | cyclics[best])
    return tuple(gens)


def same_ring(r1: FiniteRing, r2: FiniteRing) -> bool:
    """True when two ring objects are interchangeable: one structure key,
    so element indices mean the same thing in both."""
    return r1.key == r2.key
