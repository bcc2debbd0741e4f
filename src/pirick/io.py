"""Text-file input/output for rings and modules.

Both formats are UTF-8, line-oriented, with `#` starting a comment that runs
to end of line.  Elements are written as coordinate tuples with respect to
the invariant factors declared on the `add` line; basis positions in `mul`
and `act` lines are 1-based.  Products and actions omitted from the file are
zero.  Serialization is deterministic, so identical objects produce
byte-identical files.

Ring format:
    ring <name>
    add <n1> ... <nk>
    one <c1> ... <ck>
    mul <i> <j> <c1> ... <ck>
    end

Module format:
    module <name> over <ring-name>
    add <m1> ... <ml>
    act <i> <j> <c1> ... <cl>
    end
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from .caps import Caps, DEFAULT_CAPS
from .errors import FileSyntaxError, PirickError, UnknownRing
from .groups import FinAbGroup
from .modules import FiniteModule, module_make
from .rings import FiniteRing, ring_make

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")


def _read_text(source) -> str:
    """The file's text; a byte that is not UTF-8 is a FileSyntaxError."""
    try:
        return pathlib.Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FileSyntaxError(err.object.count(b"\n", 0, err.start) + 1,
                              f"{source}: not UTF-8 text") from None


def _logical_lines(text: str, path: str):
    """(line number, tokens) for every non-empty line, comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        out.append((lineno, body.split()))
    if not out:
        raise FileSyntaxError(0, f"{path}: empty file")
    return out


def _ints(tokens, lineno, path, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FileSyntaxError(lineno, f"{path}: {what} must be integers")


def _check_name(name: str, lineno: int, path: str) -> str:
    if not _NAME_RE.match(name):
        raise FileSyntaxError(lineno, f"{path}: invalid name {name!r} "
                                      "(allowed: A-Za-z0-9_-)")
    return name


def _parse_coords(group: FinAbGroup, tokens, lineno, path) -> int:
    coords = _ints(tokens, lineno, path, "coordinates")
    if len(coords) != len(group.factors):
        raise FileSyntaxError(lineno, f"{path}: expected "
                                      f"{len(group.factors)} coordinates, "
                                      f"got {len(coords)}")
    for c, n in zip(coords, group.factors):
        if not 0 <= c < n:
            raise FileSyntaxError(lineno, f"{path}: coordinate {c} out of "
                                          f"range for factor {n}")
    return group.index_of(tuple(coords))


def _parse_add(lines, path) -> FinAbGroup:
    """The group of the `add <factors>` line, the second line of a ring or
    module file."""
    if len(lines) < 2 or lines[1][1][0] != "add":
        raise FileSyntaxError(lines[min(1, len(lines) - 1)][0],
                              f"{path}: expected 'add <factors>'")
    lineno, add_tokens = lines[1]
    factors = _ints(add_tokens[1:], lineno, path, "factors")
    if not factors or any(n < 1 for n in factors):
        raise FileSyntaxError(lineno, f"{path}: factors must be >= 1")
    return FinAbGroup(tuple(factors))


def _parse_body(lines, start, path, kind):
    """Read `mul`/`act` rows and the closing `end`.

    Returns {(i, j, line number): coordinate tokens} with 0-based positions;
    range checks against the relevant basis sizes are the caller's job.
    """
    rows = {}
    seen = set()
    closed = False
    for lineno, tokens in lines[start:]:
        if tokens[0] == "end":
            if len(tokens) != 1:
                raise FileSyntaxError(lineno, f"{path}: junk after 'end'")
            closed = True
            continue
        if closed:
            raise FileSyntaxError(lineno, f"{path}: content after 'end'")
        if tokens[0] != kind:
            raise FileSyntaxError(lineno, f"{path}: expected {kind!r} or "
                                          f"'end', got {tokens[0]!r}")
        if len(tokens) < 3:
            raise FileSyntaxError(lineno, f"{path}: {kind} row needs two "
                                          "positions and coordinates")
        i, j = _ints(tokens[1:3], lineno, path, "basis positions")
        if (i, j) in seen:
            raise FileSyntaxError(lineno, f"{path}: duplicate {kind} row "
                                          f"for ({i}, {j})")
        seen.add((i, j))
        rows[(i - 1, j - 1, lineno)] = tokens[3:]
    if not closed:
        raise FileSyntaxError(lines[-1][0], f"{path}: missing 'end'")
    return rows


def parse_ring(source: str | pathlib.Path,
               caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Parse a ring file into a validated FiniteRing."""
    path = str(source)
    lines = _logical_lines(_read_text(source), path)

    lineno, head = lines[0]
    if len(head) != 2 or head[0] != "ring":
        raise FileSyntaxError(lineno, f"{path}: expected 'ring <name>'")
    name = _check_name(head[1], lineno, path)

    group = _parse_add(lines, path)
    k = len(group.factors)

    if len(lines) < 3 or lines[2][1][0] != "one":
        raise FileSyntaxError(lines[min(2, len(lines) - 1)][0],
                              f"{path}: expected 'one <coords>'")
    lineno, one_tokens = lines[2]
    one = _parse_coords(group, one_tokens[1:], lineno, path)

    constants = {}
    for (i, j, lineno), coord_tokens in _parse_body(
            lines, 3, path, "mul").items():
        if not (0 <= i < k and 0 <= j < k):
            raise FileSyntaxError(lineno, f"{path}: basis index out of "
                                          f"range 1..{k}")
        constants[(i, j)] = _parse_coords(group, coord_tokens, lineno, path)
    return ring_make(group, constants, one, caps, name)


def _module_head(lines, path) -> tuple:
    """(module name, ring name) from the `module <name> over <ring>` line."""
    lineno, head = lines[0]
    if len(head) != 4 or head[0] != "module" or head[2] != "over":
        raise FileSyntaxError(lineno,
                              f"{path}: expected 'module <name> over <ring>'")
    return _check_name(head[1], lineno, path), head[3]


def module_ring_name(source: str | pathlib.Path) -> str:
    """The ring that a module file's `module <name> over <ring>` line
    names; the file's other lines are not checked."""
    path = str(source)
    text = _read_text(source)
    return _module_head(_logical_lines(text, path), path)[1]


def ring_file_name(source: str | pathlib.Path) -> str | None:
    """The name on a ring file's first line, `ring <name>`, or None when
    the file does not start with such a line; no later line is read."""
    with open(source, encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            head = raw.split("#", 1)[0].split()
            if head:
                return head[1] if len(head) == 2 and head[0] == "ring" \
                    else None
    return None


def parse_module(source: str | pathlib.Path, ring_registry: dict,
                 caps: Caps = DEFAULT_CAPS) -> FiniteModule:
    """Parse a module file against a {name: FiniteRing} registry."""
    path = str(source)
    lines = _logical_lines(_read_text(source), path)
    name, ring_name = _module_head(lines, path)
    if ring_name not in ring_registry:
        raise UnknownRing(ring_name)
    ring = ring_registry[ring_name]
    k_ring = len(ring.add_group.factors)

    group = _parse_add(lines, path)
    k_mod = len(group.factors)

    constants = {}
    for (i, j, lineno), coord_tokens in _parse_body(
            lines, 2, path, "act").items():
        if not 0 <= i < k_ring:
            raise FileSyntaxError(lineno, f"{path}: ring basis index "
                                          f"{i + 1} out of range 1..{k_ring}")
        if not 0 <= j < k_mod:
            raise FileSyntaxError(lineno, f"{path}: module basis index "
                                          f"{j + 1} out of range 1..{k_mod}")
        constants[(i, j)] = _parse_coords(group, coord_tokens, lineno, path)
    return module_make(ring, group, constants, caps, name)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _coords_str(group: FinAbGroup, index: int) -> str:
    return " ".join(str(c) for c in group.tuple_of(index))


def serialize_ring(ring: FiniteRing, name: str | None = None) -> str:
    """The ring file of `ring`, under `name` when given."""
    group = ring.add_group
    lines = [f"ring {name or ring.name}",
             "add " + " ".join(str(n) for n in group.factors),
             "one " + _coords_str(group, ring.one)]
    for (i, j), value in sorted(ring.constants.items()):
        lines.append(f"mul {i + 1} {j + 1} {_coords_str(group, value)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_module(module: FiniteModule) -> str:
    group = module.add_group
    lines = [f"module {module.name} over {module.ring.name}",
             "add " + " ".join(str(n) for n in group.factors)]
    for (i, j), value in sorted(module.constants.items()):
        lines.append(f"act {i + 1} {j + 1} {_coords_str(group, value)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_ring(ring: FiniteRing, path) -> None:
    pathlib.Path(path).write_text(serialize_ring(ring), encoding="utf-8")


def write_module(module: FiniteModule, path) -> None:
    pathlib.Path(path).write_text(serialize_module(module), encoding="utf-8")


def export_endring(end, path, name: str) -> None:
    """Write End(M), a `homs.EndRing`, of the module called `name` as a
    ring file named end_<name>, plus a `.maps` sidecar with the tables."""
    from .homs import end_table
    out = pathlib.Path(path)
    header = f"# endring-of: {name}\n"
    out.write_text(header + serialize_ring(end_table(end), f"end_{name}"),
                   encoding="utf-8")
    sidecar = out.with_name(out.name + ".maps")
    rows = [f"{i}: " + " ".join(map(str, row))
            for i, row in enumerate(end.tables.tolist())]
    sidecar.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# instance discovery
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Instance:
    name: str
    kind: str                     # "ring" | "module"
    path: str
    ring: FiniteRing
    module: FiniteModule | None


def load_dir(directory, caps: Caps = DEFAULT_CAPS) -> list:
    """Parse every .ring then .mod file in a directory.

    Returns instances sorted by name; module files may reference any ring
    defined in the same directory.
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        raise PirickError(f"not a directory: {directory}")
    instances = []
    registry = {}
    for path in sorted(root.glob("*.ring")):
        ring = parse_ring(path, caps)
        if ring.name in registry:
            raise PirickError(f"duplicate ring name {ring.name!r} in "
                              f"{path}")
        registry[ring.name] = ring
        instances.append(Instance(ring.name, "ring", str(path), ring, None))
    names = {i.name for i in instances}
    for path in sorted(root.glob("*.mod")):
        module = parse_module(path, registry, caps)
        if module.name in names:
            raise PirickError(f"duplicate instance name {module.name!r} in "
                              f"{path}")
        names.add(module.name)
        instances.append(Instance(module.name, "module", str(path),
                                  module.ring, module))
    instances.sort(key=lambda inst: inst.name)
    return instances
