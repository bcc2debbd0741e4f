"""Tables of element indices are stored in `index_dtype(order)`, the
smallest unsigned type that holds order - 1.

At the boundary, the regular modules of Z_256 (uint8) and Z_257 (uint16):
the add table and negation, the ring's multiplication, the module's action,
hom_set, End(M)'s tables and check_map's output each have the helper's type
and the values of an int64 formula.  A memory guard pins the bytes of one
hom set, and check_map rejects entries that are not element indices before
it narrows them, where 257 would wrap to 1 in uint8.
"""

import numpy as np
import pytest

from pirick.caps import Caps
from pirick.errors import NotAHomomorphism
from pirick.families import zmod
from pirick.groups import index_dtype
from pirick.homs import check_map, end_ring, hom_set
from pirick.modules import free_module, module_generators, ring_as_module

CAPS = Caps()


def _same(table: np.ndarray, oracle: np.ndarray, order: int) -> bool:
    """table has index_dtype(order) and the int64 oracle's values."""
    return (table.dtype == index_dtype(order)
            and table.tobytes() == oracle.astype(table.dtype).tobytes())


def test_the_helper_names_the_smallest_unsigned_type():
    assert [index_dtype(n) for n in (1, 2, 256, 257, 65_536, 65_537)] == \
        [np.uint8] * 3 + [np.uint16] * 2 + [np.uint32]


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_every_table_of_zn_regular_has_the_helpers_type(n, dtype):
    assert index_dtype(n) == dtype
    ring = zmod(n, CAPS)
    module = ring_as_module(ring, CAPS)
    x = np.arange(n, dtype=np.int64)
    sums, products = (x[:, None] + x) % n, x[:, None] * x % n
    group = ring.add_group
    assert _same(group.add_table(), sums, n)
    assert _same(group.neg_vector(), -x % n, n)
    assert _same(ring.mul_np, products, n)
    assert _same(module.act_np, products, n)
    # the generator is 1, so map a is x -> a x, in order of a; End(M) is
    # cyclic, generated by the identity, and numbered the same way
    assert module_generators(module) == (1,)
    assert _same(hom_set(module, module, CAPS), products, n)
    assert _same(end_ring(module, CAPS).tables, products, n)
    assert _same(check_map(module, module, products[3].tolist()),
                 products[3], n)


def test_a_hom_set_takes_one_byte_per_entry():
    module = free_module(zmod(3, CAPS), 3, CAPS)
    maps = hom_set(module, module, CAPS)
    assert maps.shape == (19_683, 27)
    assert maps.nbytes == 19_683 * 27


@pytest.mark.parametrize("table, at", [
    ([0, 1, 2, 7], 3),
    (np.array([0, 257, 2, 3], dtype=np.int64), 1),
    ([0, -1, 2, 3], 1),
])
def test_an_entry_outside_the_codomain_is_rejected(table, at):
    """Z4 -> Z4: 7 is no element index, and 257 would be 1 in uint8,
    making the table the identity."""
    z4 = ring_as_module(zmod(4, CAPS), CAPS)
    with pytest.raises(NotAHomomorphism) as err:
        check_map(z4, z4, table)
    assert (err.value.law, err.value.witness) == ("range", (at,))
