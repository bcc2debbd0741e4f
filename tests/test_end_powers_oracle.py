"""Differential test: End(M)'s power table and its per-element image and
kernel masks (`EndRing.powers`, `EndRing.images`, `EndRing.kernels`)
against two oracles.

- `power_chains`, the image and kernel chains of every power of every map
  that End(M) kept before the table, kept here unchanged: the masks read
  along row f of the table must be its chains of f.
- `first_repeat` of `test_ring_checks_oracle.py` on End(M)'s ring table,
  the powers of f up to the first repeated one: row f of End(M).powers
  must be its first s terms, where s is the first n with Im f^n ==
  Im f^(n+1) and also the first n with Ker f^n == Ker f^(n+1), both read
  off the map tables of f^n and f^(n+1) = f^n * f.

The comparison runs on the 21 corpus modules, on the zero module and, with
Hypothesis, on the module pools of `test_iso_oracle.py`.  On the same
inputs End(M) has one power table: `rings.power_table` of its ring table
is End(M).powers, in values and type.  Three corrupted tables must be
caught: one a column short, one a column long wherever f^(s+1) is not f^s,
and one that runs on to the first repeated power (index + period - 1
terms, as `rings.power_table` once did).
"""

from typing import NamedTuple

import numpy as np
from hypothesis import given, settings, strategies as st

from pirick.caps import caps_from_env
from pirick.families import zmod
from pirick.homs import end_ring, end_table
from pirick.modules import masks, ring_as_module, submodule_module
from pirick.rings import power_table

from test_iso_oracle import _pools
from test_ring_checks_oracle import first_repeat

CAPS = caps_from_env()


# ---------------------------------------------------------------------------
# the oracle: the chains as End(M) kept them before the table
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


def _until_repeat(terms) -> tuple:
    """The terms before the first one equal to its predecessor."""
    out = [terms[0]]
    for term in terms[1:]:
        if term == out[-1]:
            break
        out.append(term)
    return tuple(out)


def chain_term(chain: tuple, n: int) -> int:
    """Term n of a power chain, Im f^n (Ker f^n) for chain images[f]
    (kernels[f]), also for n past its end, where every term is the last."""
    return chain[min(n, len(chain)) - 1]


def _last_one(chains):
    """chains(end), kept for the End(M) structure and caps of the last
    call only, so that a test's calls on one End(M) share it and no large
    End(M) outlives its test."""
    kept = {}

    def cached(end) -> PowerChains:
        if end.key not in kept:
            kept.clear()
            kept[end.key] = chains(end)
        return kept[end.key]
    return cached


@_last_one
def oracle_chains(end) -> PowerChains:
    """power_chains of End(M)'s tables."""
    return power_chains(np.asarray(end.tables))


@_last_one
def row_chains(end) -> PowerChains:
    """The chains read along the rows of end.powers: term n of f's image
    chain is end.images[end.powers[f, n - 1]], and so for kernels."""
    rows = [[x for x in row if x >= 0] for row in end.powers.tolist()]
    return PowerChains(
        tuple(tuple(end.images[x] for x in row) for row in rows),
        tuple(tuple(end.kernels[x] for x in row) for row in rows))


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _mask(elements) -> int:
    return sum(1 << int(x) for x in set(np.asarray(elements).tolist()))


def first_repeat_table(ring) -> np.ndarray:
    """The (order, m) table whose row a is `first_repeat(ring, a)`, then
    -1s."""
    rows = [first_repeat(ring, a) for a in range(ring.order)]
    out = np.full((ring.order, max(map(len, rows))), -1)
    for a, row in enumerate(rows):
        out[a, :len(row)] = row
    return out


def table_faults(end, powers=None) -> list:
    """What is wrong with a power table of End(M), by default its own:
    (f, reason) for each row f that disagrees with an oracle."""
    powers = end.powers if powers is None else powers
    ring = end_table(end)
    full = first_repeat_table(ring).tolist()
    chains = oracle_chains(end)
    faults = []
    for f, row in enumerate(np.asarray(powers).tolist()):
        s = row.index(-1) if -1 in row else len(row)
        if not s or any(x != -1 for x in row[s:]):
            faults.append((f, "no powers, or a power after -1"))
            continue
        if row[:s] != full[f][:s]:
            faults.append((f, "not the powers of f"))
            continue
        # f^n's tables for n = 1 .. s + 1
        table = [end.tables[x] for x in row[:s]]
        table.append(end.tables[ring.mul_np[row[s - 1], f]])
        for name, of in (("image", _mask),
                         ("kernel", lambda t: _mask(np.flatnonzero(t == 0)))):
            terms = [of(t) for t in table]
            if [terms[n] == terms[n + 1] for n in range(s)] != \
                    [False] * (s - 1) + [True]:
                faults.append((f, f"{name} chain not stable first at s"))
        if [end.images[x] for x in row[:s]] != list(chains.images[f]) or \
                [end.kernels[x] for x in row[:s]] != list(chains.kernels[f]):
            faults.append((f, "masks differ from power_chains"))
    return faults


def _zero_module():
    return submodule_module(ring_as_module(zmod(2, CAPS), CAPS), 1, CAPS)[0]


def test_the_table_matches_the_oracles_on_the_corpus(module_instances):
    for inst in module_instances:
        end = end_ring(inst.module, CAPS)
        assert table_faults(end) == [], inst.name
        assert row_chains(end) == oracle_chains(end), inst.name


def test_the_zero_module_has_one_row_of_one_term():
    end = end_ring(_zero_module(), CAPS)
    assert end.powers.tolist() == [[0]]
    assert (end.images, end.kernels) == ((1,), (1,))
    assert table_faults(end) == []


@st.composite
def pool_modules(draw):
    """A base ring's pool, then one of its modules."""
    return draw(st.sampled_from(draw(st.sampled_from(_pools()))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pool_modules())
def test_the_table_matches_the_oracles_on_the_pools(module):
    end = end_ring(module, CAPS)
    assert table_faults(end) == []
    assert row_chains(end) == oracle_chains(end)


def _one_column_short(end) -> np.ndarray:
    """Each row without its last power."""
    out = np.array(end.powers)
    lengths = (out >= 0).sum(axis=1)
    out[np.arange(len(out)), lengths - 1] = -1
    return out


def _one_column_long(end) -> np.ndarray:
    """Each row run on to f^(s+1) = f^s * f, where that is not f^s."""
    mul = end_table(end).mul_np
    out = np.pad(end.powers, ((0, 0), (0, 1)), constant_values=-1)
    f = np.arange(len(out))
    s = (out >= 0).sum(axis=1)
    last = out[f, s - 1]
    up = mul[last, f]
    on = up != last
    out[f[on], s[on]] = up[on]
    return out


def _to_first_repeat(end) -> np.ndarray:
    """Each row run on to the first repeated power."""
    return first_repeat_table(end_table(end))


def _periodic(end) -> bool:
    """Whether some f has period above 1: the power after its first-repeat
    trail is not the trail's last term."""
    ring = end_table(end)
    trails = [first_repeat(ring, f) for f in range(ring.order)]
    return any(ring.mul_np[t[-1], f] != t[-1] for f, t in enumerate(trails))


def test_end_m_has_one_power_table_on_the_corpus(module_instances):
    for inst in module_instances:
        end = end_ring(inst.module, CAPS)
        ring_powers = power_table(end_table(end))
        assert ring_powers.dtype == end.powers.dtype, inst.name
        assert np.array_equal(ring_powers, end.powers), inst.name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pool_modules())
def test_end_m_has_one_power_table_on_the_pools(module):
    end = end_ring(module, CAPS)
    ring_powers = power_table(end_table(end))
    assert ring_powers.dtype == end.powers.dtype
    assert np.array_equal(ring_powers, end.powers)


def test_corrupted_tables_are_caught(module_instances):
    ends = {inst.name: end_ring(inst.module, CAPS) for inst in module_instances}
    # every row of a table one column short loses a power
    assert [name for name, end in ends.items()
            if table_faults(end, _one_column_short(end))] == list(ends)
    # a row a column long, or run on to the first repeated power, goes
    # past s wherever f^s is not f^(s+1)
    periodic = [name for name, end in ends.items() if _periodic(end)]
    assert periodic
    for corrupt in (_one_column_long, _to_first_repeat):
        assert [name for name, end in ends.items()
                if table_faults(end, corrupt(end))] == periodic
    # Z/3: 2 has index 1 and period 2, so its row is one term too long
    end = end_ring(ring_as_module(zmod(3, CAPS), CAPS), CAPS)
    assert table_faults(end, _to_first_repeat(end)) == [
        (2, "image chain not stable first at s"),
        (2, "kernel chain not stable first at s"),
        (2, "masks differ from power_chains")]
