"""Size caps that gate expensive constructions and scans.

All potentially explosive operations (building multiplication tables,
enumerating submodule lattices, enumerating hom-sets, full associativity
scans) consult a Caps instance.  Deciders that would exceed a cap report
the affected property as "skipped" rather than silently computing a wrong
or partial answer.

Defaults can be overridden process-wide with the PIRICK_CAPS environment
variable (e.g. ``PIRICK_CAPS=lattice=128,hom=1048576``) or per-call by
passing an explicit Caps.

Also here: the two caches, both keyed by caps.  `INTERNED`, the one table
of structures, builds each group, ring table, module table, module
generating set, submodule lattice, submodule coordinates, hom set and End(M)
once per (kind, structure key, caps) in a process; `cached` memoizes
derived results per object, because those carry the object's name.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os

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
                  enumerated.
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


_FIELDS = {f.name for f in dataclasses.fields(Caps)}


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


DEFAULT_CAPS = caps_from_env()


def cached(fn):
    """Memoize ``fn(obj, *args)`` in ``obj._memo``.

    The key is fn itself plus the positional arguments with defaults filled
    in, so ``f(m)`` and ``f(m, DEFAULT_CAPS)`` share an entry and a result
    is never served to a call under other caps.  Exceptions are not stored:
    a cap check at the top of fn runs again on every call that misses.
    """
    defaults = tuple(p.default for p in
                     list(inspect.signature(fn).parameters.values())[1:])

    @functools.wraps(fn)
    def memoized(obj, *args):
        key = (fn, *args, *defaults[len(args):])
        memo = obj._memo
        if key not in memo:
            memo[key] = fn(obj, *args)
        return memo[key]

    return memoized


class InternTable(dict):
    """(kind, structure key, caps) -> what was built for that structure.

    A build that raised SizeCapExceeded is stored as that error, unraised;
    any other error is not stored.  Builders make the arrays they store
    read-only, since every object of the structure shares them.
    """

    def get_or_build(self, kind: str, key, caps, build):
        """The value stored for (kind, key, caps), from build() on the first
        call; a stored cap failure is raised again without rebuilding."""
        full = (kind, key, caps)
        if full not in self:
            try:
                self[full] = build()
            except SizeCapExceeded as err:
                self[full] = SizeCapExceeded(err.what, err.size, err.cap)
        value = self[full]
        if isinstance(value, SizeCapExceeded):
            raise SizeCapExceeded(value.what, value.size, value.cap)
        return value


INTERNED = InternTable()
