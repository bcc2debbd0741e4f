"""Size caps that gate expensive constructions and scans.

All potentially explosive operations (building multiplication tables,
enumerating submodule lattices, enumerating hom-sets, matrix rings inside
verification entries) consult a Caps instance.  Deciders that would exceed
a cap report the affected property as "skipped" rather than silently
computing a wrong or partial answer.  No cap samples a law check.

Defaults can be overridden process-wide with the PIRICK_CAPS environment
variable (e.g. ``PIRICK_CAPS=lattice=128,hom=1048576``) or per-call by
passing an explicit Caps.

Also here: the one cache, `INTERNED`, and its one entry point, the
`interned` decorator.  Every cached build in the package, a group's
tables, a ring or module table, a generating set, a lattice, submodule
coordinates, a kernel, a hom set, End(M) and every derived result, is an
`interned` function of an object with a `.key`, stored once per
(function, structure key, arguments) in a process.  It stores values
only.  A value depends only on the structure and the arguments, the caps
among them, so objects of one structure share it whatever their names; a
name reaches output only from the caller's own object.  A hit is one
subscript of the table in `interned`'s wrapper, which builds no closure
and calls no helper; only a miss calls the function.

Structure keys are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): `StructureKey(*parts)` returns the one
key of those parts in the process, whose hash is taken once, when it is
first made.  A ring's key holds its table of constants and a module's
holds its ring's key, but either hashes in constant time and compares by
identity, and so does every key built on them: a Facts, an End(M) or an
InstanceContext has the key StructureKey(structure key, caps).  A group's
key is its tuple of factors.  A copy or an unpickled key is made from its
parts again, so it is that process's key of the structure.  A key's hash
is its parts' hash and no id is handed out, so nothing depends on the
order in which keys were made.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os

import numpy as np

from .errors import PirickError, SizeCapExceeded


@dataclasses.dataclass(frozen=True)
class Caps:
    """Limits for table constructions and exhaustive enumerations.

    construct:    largest ring/module order for which full tables are built
                  (and checked, exactly, whatever their size).
    lattice:      largest module order for which the submodule lattice is
                  enumerated, or the radical and socle are computed.
    hom:          largest number |N|^k of candidate generator-image
                  assignments of a hom set Hom(M, N), M with k generators.
                  The hom set is solved as a kernel and no candidate is
                  enumerated; the cap stays where it was so that no
                  verdict moves.
    matrix_check: largest order |R|^4 of the 2x2 matrix ring M2(R) that
                  verification entries build.
    """

    construct: int = 4096
    lattice: int = 64
    hom: int = 2 ** 24
    matrix_check: int = 256
    # every interned call hashes its caps: the hash is taken once
    _hash: int = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, name) for name in _FIELDS)))

    def __hash__(self) -> int:
        return self._hash

    def gate(self, field: str, what: str, size: int) -> None:
        """Raise SizeCapExceeded(what, size, cap) if size is over cap field."""
        cap = getattr(self, field)
        if size > cap:
            raise SizeCapExceeded(what, size, cap)


_FIELDS = tuple(f.name for f in dataclasses.fields(Caps) if f.init)


def caps_from_env(env=None):
    """Build the default Caps, honoring the PIRICK_CAPS environment variable.

    The variable holds comma-separated ``key=value`` pairs; unknown keys and
    malformed pairs raise PirickError so typos do not silently do nothing.
    """
    if env is None:
        env = os.environ
    raw = env.get("PIRICK_CAPS", "")
    values = {}
    if raw.strip():
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise PirickError(f"PIRICK_CAPS entry {part!r} is not key=value")
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise PirickError(f"PIRICK_CAPS has unknown cap {key!r} "
                                  f"(known: {', '.join(sorted(_FIELDS))})")
            try:
                values[key] = int(val.strip())
            except ValueError:
                raise PirickError(f"PIRICK_CAPS value for {key!r} is not an "
                                  f"integer: {val!r}") from None
    return Caps(**values)


try:
    DEFAULT_CAPS = caps_from_env()
except PirickError:
    # A malformed PIRICK_CAPS must not stop the import: the command line
    # reads the variable again and reports the error.
    DEFAULT_CAPS = Caps()


class StructureKey:
    """The key of one structure: StructureKey(*parts) is the same object
    for equal parts, so two keys are equal iff they are one object, and
    its hash is computed once."""

    __slots__ = ("parts", "_hash")

    def __new__(cls, *parts):
        key = _KEYS.get(parts)
        if key is None:
            key = _KEYS[parts] = super().__new__(cls)
            key.parts, key._hash = parts, hash(parts)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):                    # copies and pickles intern too
        return StructureKey, self.parts

    def __repr__(self) -> str:
        return f"StructureKey{self.parts!r}"


_KEYS = {}                                   # parts -> their StructureKey


class InternTable(dict):
    """(function, key, arguments) -> the value that `interned` stored.

    Only values are stored: a build that raises stores nothing, and one
    over a cap is refused again by its own gate, which runs before the
    work it bounds.  The arrays stored are read-only, since every object
    of the structure shares them.  Every lookup is one subscript of the
    table, in `interned`'s wrapper.
    """


INTERNED = InternTable()


def interned(fn):
    """Memoize ``fn(obj, *args)`` in INTERNED under (fn, obj.key, args).

    obj.key is a structure key (with the caps, for a Facts, an End(M) or
    an InstanceContext; a group's factors), and missing args get their
    defaults, so ``f(m)`` and ``f(m, DEFAULT_CAPS)`` share an entry and no
    call is served a value built under other caps.  A module among the
    args is matched by its structure, as it compares and hashes by its
    key.  A hit is one lookup in the wrapper's own frame; a miss calls fn
    there and stores what it returns, an array, alone or in a tuple, made
    read-only.  A KeyError raised by fn is its own error, not a miss.
    """
    defaults = tuple(p.default for p in
                     list(inspect.signature(fn).parameters.values())[1:])
    arity = len(defaults)

    @functools.wraps(fn)
    def memoized(obj, *args):
        if len(args) < arity:
            args += defaults[len(args):]
        full = (fn, obj.key, args)
        try:
            return INTERNED[full]
        except KeyError:
            pass
        value = fn(obj, *args)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        INTERNED[full] = value
        return value

    return memoized
