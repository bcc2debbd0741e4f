"""Size caps that gate expensive constructions and scans.

All potentially explosive operations (building multiplication tables,
enumerating submodule lattices, enumerating hom-sets, full associativity
scans) consult a Caps instance.  Deciders that would exceed a cap report
the affected property as "skipped" rather than silently computing a wrong
or partial answer.

Defaults can be overridden process-wide with the PIRICK_CAPS environment
variable (e.g. ``PIRICK_CAPS=lattice=128,hom=1048576``) or per-call by
passing an explicit Caps.

Also here: the one cache, `INTERNED`, keyed by structure and caps.  It
builds each group, ring table, module table, module generating set,
submodule lattice, submodule coordinates and hom set once per (kind,
structure key, caps) in a process, and `interned` memoizes every derived
result in it the same way, End(M) among them.  A value depends only on the
structure and the caps, so objects of one structure share it whatever
their names; a name reaches output only from the caller's own object.
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
    """Limits for table constructions and exhaustive scans.

    construct:    largest ring/module order for which full tables are built.
    scan:         one rule for every ring and module law: a law is checked
                  on all its triples while they number at most scan**3 (for
                  a ring, |R| <= scan); above that on seeded random triples,
                  and associativity first on all basis triples.
    lattice:      largest module order for which the submodule lattice is
                  enumerated, or the radical and socle are computed.
    hom:          largest number of candidate generator-image assignments
                  enumerated when computing a hom-set.
    matrix_check: largest ring order for which matrix-ring constructions are
                  attempted inside verification entries.
    """

    construct: int = 4096
    scan: int = 64
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


class InternTable(dict):
    """(kind, structure key, caps) -> what was built for that structure.

    Under `interned` the kind is a function and caps its other arguments.
    A build that raised SizeCapExceeded is stored as that error, unraised;
    any other error is not stored.  The arrays stored are read-only, since
    every object of the structure shares them.
    """

    def get_or_build(self, kind, key, caps, build):
        """The value stored for (kind, key, caps), from build() on the first
        call; a stored cap failure is raised again without rebuilding."""
        full = (kind, key, caps)
        try:
            value = self[full]
        except KeyError:
            try:
                value = self[full] = build()
            except SizeCapExceeded as err:
                value = self[full] = SizeCapExceeded(err.what, err.size,
                                                     err.cap)
        if isinstance(value, SizeCapExceeded):
            raise SizeCapExceeded(value.what, value.size, value.cap)
        return value


INTERNED = InternTable()


def interned(fn):
    """Memoize ``fn(obj, *args)`` in INTERNED under (fn, obj.key, args).

    obj.key is a structure key (with the caps, for a Facts or an
    InstanceContext), and the args have their defaults filled in, so
    ``f(m)`` and ``f(m, DEFAULT_CAPS)`` share an entry and no call is
    served a value built under other caps.  An array returned, alone or in
    a tuple, is made read-only.
    """
    defaults = tuple(p.default for p in
                     list(inspect.signature(fn).parameters.values())[1:])

    def build(obj, args):
        value = fn(obj, *args)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        return value

    @functools.wraps(fn)
    def memoized(obj, *args):
        args = (*args, *defaults[len(args):])
        return INTERNED.get_or_build(fn, obj.key, args,
                                     lambda: build(obj, args))

    return memoized
