"""Standard instance builders and the shipped corpus.

Every family is deterministic: the same family and parameters always produce
the same object and hence a byte-identical file.  Ring-valued parameters
accept either the shorthand z<n> (the integers mod n) or a path to a ring
file.
"""

from __future__ import annotations

import pathlib

from .caps import Caps, DEFAULT_CAPS
from .errors import PirickError, UnknownFamily
from .groups import FinAbGroup
from .io import parse_ring, write_module, write_ring
from .modules import FiniteModule, free_module, module_make, ring_as_module
from .rings import (FiniteRing, corner_ring, matrix_ring, product_ring,
                    ring_idempotents, ring_make, triangular_ring)

FAMILIES = ("zmod", "matrix", "triangular", "product", "free_module",
            "regular_module", "ex23")


def zmod(n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise PirickError("zmod needs n >= 1")
    group = FinAbGroup((n,))
    return ring_make(group, {(0, 0): 1 % n}, 1 % n, caps, f"z{n}")


def _resolve_ring(token: str, caps: Caps) -> FiniteRing:
    if token.startswith("z") and token[1:].isdigit():
        return zmod(int(token[1:]), caps)
    path = pathlib.Path(token)
    if path.suffix == ".ring" and path.exists():
        return parse_ring(path, caps)
    raise PirickError(f"cannot resolve ring parameter {token!r} "
                      "(use z<n> or a path to a .ring file)")


def ex23_ring(caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Upper triangular 2x2 matrices over the integers mod 2."""
    return triangular_ring(zmod(2, caps), 2, caps, name="t2z2")


def ex23_module(caps: Caps = DEFAULT_CAPS,
                ring: FiniteRing | None = None) -> FiniteModule:
    """The standard bimodule-style module over t2z2.

    Elements are triples (x, y, z) in Z_2^3; the module basis is m1 =
    (1,0,0), m2 = (0,1,0), m3 = (0,0,1), and the ring basis is e11, e12,
    e22, in the order of `triangular_ring(z2, 2)`.  The action has exactly
    four nonzero products of basis elements: m1*e22 = m1, m2*e11 = m2,
    m2*e12 = m3 and m3*e22 = m3.
    """
    ring = ring or ex23_ring(caps)
    group = FinAbGroup((2, 2, 2))
    constants = {(2, 0): 4, (0, 1): 2, (1, 1): 1, (2, 2): 1}
    return module_make(ring, group, constants, caps, "ex23")


def build_instance(family: str, params: list, caps: Caps = DEFAULT_CAPS):
    """Construct a family member; returns ("ring"|"module", object)."""
    if family == "zmod":
        if len(params) != 1 or not params[0].isdigit():
            raise PirickError("zmod takes one integer parameter")
        return "ring", zmod(int(params[0]), caps)
    if family == "matrix":
        if len(params) != 2 or not params[1].isdigit():
            raise PirickError("matrix takes a ring and a size")
        base = _resolve_ring(params[0], caps)
        k = int(params[1])
        return "ring", matrix_ring(base, k, caps, name=f"m{k}{base.name}")
    if family == "triangular":
        if len(params) != 2 or not params[1].isdigit():
            raise PirickError("triangular takes a ring and a size")
        base = _resolve_ring(params[0], caps)
        k = int(params[1])
        return "ring", triangular_ring(base, k, caps, name=f"t{k}{base.name}")
    if family == "product":
        if len(params) != 2:
            raise PirickError("product takes two rings")
        r1 = _resolve_ring(params[0], caps)
        r2 = _resolve_ring(params[1], caps)
        return "ring", product_ring(r1, r2, caps, name=f"{r1.name}x{r2.name}")
    if family == "free_module":
        if len(params) != 2 or not params[1].isdigit():
            raise PirickError("free_module takes a ring and a rank")
        base = _resolve_ring(params[0], caps)
        return "module", free_module(base, int(params[1]), caps)
    if family == "regular_module":
        if len(params) != 1:
            raise PirickError("regular_module takes one ring")
        base = _resolve_ring(params[0], caps)
        return "module", ring_as_module(base, caps, name=f"{base.name}_reg")
    if family == "ex23":
        if params:
            raise PirickError("ex23 takes no parameters")
        return "module", ex23_module(caps)
    raise UnknownFamily(family)


def smallest_corner(ring: FiniteRing, caps: Caps = DEFAULT_CAPS):
    """Corner ring at the smallest nontrivial idempotent, or None."""
    for e in ring_idempotents(ring).tolist():
        if e in (0, ring.one):
            continue
        corner, _ = corner_ring(ring, int(e), caps,
                                name=f"{ring.name}_c{e}")
        return corner
    return None


def build_corpus(directory, caps: Caps = DEFAULT_CAPS) -> list:
    """Write the shipped corpus into a directory; returns the file names.

    Contents: the integers mod 2..12 with their regular modules, the rank-2
    free modules over z2, z3 and z4, upper triangular and full 2x2 matrix
    rings over z2 and z3 with their regular modules, the 3x3 triangular ring
    over z2, the product z2xz3, the ex23 module, and the corner ring of
    every listed ring at its smallest nontrivial idempotent.
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    rings = [zmod(n, caps) for n in range(2, 13)]
    z2, z3 = rings[0], rings[1]
    rings.append(triangular_ring(z2, 2, caps, name="t2z2"))
    rings.append(matrix_ring(z2, 2, caps, name="m2z2"))
    rings.append(triangular_ring(z3, 2, caps, name="t2z3"))
    rings.append(matrix_ring(z3, 2, caps, name="m2z3"))
    rings.append(triangular_ring(z2, 3, caps, name="t3z2"))
    rings.append(product_ring(z2, z3, caps, name="z2xz3"))

    corners = []
    for ring in rings:
        corner = smallest_corner(ring, caps)
        if corner is not None:
            corners.append(corner)

    modules = [ring_as_module(r, caps, name=f"{r.name}_reg") for r in rings]
    modules.append(free_module(z2, 2, caps))
    modules.append(free_module(z3, 2, caps))
    modules.append(free_module(rings[2], 2, caps))   # z4
    modules.append(ex23_module(caps, ring=rings[11]))  # over t2z2

    written = []
    for ring in rings + corners:
        path = root / f"{ring.name}.ring"
        write_ring(ring, path)
        written.append(path.name)
    for module in modules:
        path = root / f"{module.name}.mod"
        write_module(module, path)
        written.append(path.name)
    return sorted(written)
