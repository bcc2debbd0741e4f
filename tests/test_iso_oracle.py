"""Module isomorphism, searched two ways, kept here as test oracles.

The package asks no isomorphism question of two modules: morphic, C2 and D2
are read off End(M)'s (Im g, Ker g) pairs.  The search those deciders used
before lives on here, for `test_pair_deciders_oracle.py` and the module
tests: `find_isomorphism` is the first bijective row of `hom_set`, after
the invariant checks (same ring, order and `elementary_divisors`).  It is
itself checked against the backtracking search it replaced, kept unchanged
except that element orders come from a local helper instead of the deleted
`FinAbGroup.element_order`.

Hypothesis draws pairs of equal order among the submodules and quotients of
the regular and rank-2 free modules over Z/n (n <= 6), and of the regular
t2z2 module and ex23 over t2z2; both routines must return the same tuple
(or both None).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pirick import homs
from pirick.caps import DEFAULT_CAPS, Caps, caps_from_env
from pirick.errors import SizeCapExceeded
from pirick.families import ex23_module, ex23_ring, zmod
from pirick.modules import (FiniteModule, all_submodules, cyclic_submodules,
                            free_module, mask_bits, module_generators,
                            quotient_module, ring_as_module, same_ring,
                            submodule_module)

CAPS = caps_from_env()


def elementary_divisors(factors) -> tuple:
    """Invariant factors d1 | d2 | ... | dm (each > 1) of prod Z_{n_i}.

    Two finite abelian groups are isomorphic iff these tuples agree, so this
    is the canonical isomorphism-class key.  The trivial group gives ().
    """
    prime_powers: dict[int, list[int]] = {}
    for n in factors:
        n = int(n)
        d = 2
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                prime_powers.setdefault(d, []).append(d ** e)
            d += 1
        if n > 1:
            prime_powers.setdefault(n, []).append(n)
    for p in prime_powers:
        prime_powers[p].sort(reverse=True)
    depth = max((len(v) for v in prime_powers.values()), default=0)
    out = []
    for i in range(depth):
        d = 1
        for p in prime_powers:
            if i < len(prime_powers[p]):
                d *= prime_powers[p][i]
        out.append(d)
    return tuple(sorted(out))


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
    maps = homs.hom_set(m1, m2, caps)
    bijective = (np.sort(maps, axis=1) == np.arange(m1.order)).all(axis=1)
    if not bijective.any():
        return None
    return tuple(maps[np.argmax(bijective)].tolist())


def are_isomorphic(m1: FiniteModule, m2: FiniteModule,
                   caps: Caps = DEFAULT_CAPS) -> bool:
    return find_isomorphism(m1, m2, caps) is not None


def _element_order(group, i: int) -> int:
    """Additive order of element i of a FinAbGroup (1 for zero)."""
    out = 1
    for c, n in zip(group.tuple_of(i), group.factors):
        if c:
            out = math.lcm(out, n // math.gcd(n, c))
    return out


def oracle_find_isomorphism(m1: FiniteModule, m2: FiniteModule):
    """Search for a module isomorphism m1 -> m2 over the same ring.

    Returns the full index map as a tuple, or None.  Deterministic: images
    are tried in increasing element order; the first isomorphism found wins.
    """
    if not same_ring(m1.ring, m2.ring):
        return None
    if m1.order != m2.order:
        return None
    if elementary_divisors(m1.add_group.factors) != \
            elementary_divisors(m2.add_group.factors):
        return None
    n = m1.order
    n_r = m1.ring.order
    add1 = m1.add_group.add_table()
    add2 = m2.add_group.add_table()
    act1, act2 = m1.act_np, m2.act_np
    gens = module_generators(m1)

    orders2 = {}
    for x in range(n):
        orders2.setdefault(_element_order(m2.add_group, x), []).append(x)

    def propagate(fwd, bwd, queue):
        """Close the partial map under addition and the ring action."""
        while queue:
            x = queue.pop()
            u = fwd[x]
            for r in range(n_r):
                xr, ur = int(act1[x, r]), int(act2[u, r])
                if xr in fwd:
                    if fwd[xr] != ur:
                        return False
                elif ur in bwd:
                    return False
                else:
                    fwd[xr] = ur
                    bwd[ur] = xr
                    queue.append(xr)
            for y in list(fwd):
                v = fwd[y]
                xy, uv = int(add1[x, y]), int(add2[u, v])
                if xy in fwd:
                    if fwd[xy] != uv:
                        return False
                elif uv in bwd:
                    return False
                else:
                    fwd[xy] = uv
                    bwd[uv] = xy
                    queue.append(xy)
        return True

    def extend(i, fwd, bwd):
        if len(fwd) == n:
            return tuple(fwd[x] for x in range(n))
        if i == len(gens):
            return None
        g = gens[i]
        if g in fwd:
            return extend(i + 1, fwd, bwd)
        for img in orders2.get(_element_order(m1.add_group, g), []):
            if img in bwd:
                continue
            new_fwd = dict(fwd)
            new_bwd = dict(bwd)
            new_fwd[g] = img
            new_bwd[img] = g
            if propagate(new_fwd, new_bwd, [g]):
                result = extend(i + 1, new_fwd, new_bwd)
                if result is not None:
                    return result
        return None

    return extend(0, {0: 0}, {0: 0})


def _derived(module: FiniteModule) -> list:
    """Every submodule and every quotient of module, as modules."""
    out = []
    for sub in all_submodules(module, CAPS):
        out.append(submodule_module(module, sub, CAPS)[0])
        out.append(quotient_module(module, sub, CAPS)[0])
    return out


@functools.lru_cache(maxsize=None)
def _pools() -> tuple:
    """One pool of derived modules per base ring."""
    pools = []
    for n in range(2, 7):
        ring = zmod(n, CAPS)
        pools.append(_derived(ring_as_module(ring, CAPS))
                     + _derived(free_module(ring, 2, CAPS)))
    t2z2 = ex23_ring(CAPS)
    pools.append(_derived(ring_as_module(t2z2, CAPS))
                 + _derived(ex23_module(CAPS, ring=t2z2)))
    return tuple(pools)


@st.composite
def same_order_pairs(draw):
    """A base ring's pool, then an order above 1 (each equally likely, so
    the few large modules are drawn as often as the many small ones), then
    two modules of that order."""
    pool = draw(st.sampled_from(_pools()))
    order = draw(st.sampled_from(sorted({m.order for m in pool} - {1})))
    of_order = [m for m in pool if m.order == order]
    return draw(st.sampled_from(of_order)), draw(st.sampled_from(of_order))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(same_order_pairs())
def test_find_isomorphism_matches_the_backtracking_oracle(pair):
    m1, m2 = pair
    assert find_isomorphism(m1, m2, CAPS) == oracle_find_isomorphism(m1, m2)


def _z4_squared_halves():
    """Two order-4 submodules of Z4^2 over Z4, as modules: the cyclic one
    of element 1 (additively Z4) and 2(Z4^2) (additively Z2 x Z2)."""
    free = free_module(zmod(4, CAPS), 2, CAPS)
    cyclic = submodule_module(free, cyclic_submodules(free)[1], CAPS)[0]
    doubled = [sub for sub in all_submodules(free, CAPS)
               if sub.bit_count() == 4
               and not free.act_np[mask_bits(sub, free.order), 2].any()]
    klein = submodule_module(free, doubled[0], CAPS)[0]
    return cyclic, klein


def test_find_isomorphism_reaches_the_hom_cap():
    cyclic, _ = _z4_squared_halves()
    with pytest.raises(SizeCapExceeded):
        find_isomorphism(cyclic, cyclic, Caps(hom=1))


def test_other_invariants_are_told_apart_before_any_hom_set(monkeypatch,
                                                             fresh_intern):
    cyclic, klein = _z4_squared_halves()
    assert cyclic.order == klein.order == 4

    def no_hom_set(*args):
        raise AssertionError("hom_set called")

    monkeypatch.setattr(homs, "hom_set", no_hom_set)
    assert find_isomorphism(cyclic, klein, Caps(hom=1)) is None
