"""Exception hierarchy for the pirick package.

Every error raised deliberately by this package derives from PirickError,
so callers (and the CLI) can distinguish "bad input / bad data" from
programming bugs.
"""

from __future__ import annotations


class PirickError(Exception):
    """Base class for all errors raised by pirick."""


class EmptyFactorList(PirickError):
    """An additive group was given an empty list of cyclic factors."""


class ZeroFactor(PirickError):
    """An additive group factor was < 1 (each factor must be a positive integer)."""


class NonAssociative(PirickError):
    """Multiplication table fails associativity; carries a witness triple."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        super().__init__(f"multiplication is not associative at {self.triple}: "
                         f"(a*b)*c != a*(b*c)")


class BadIdentity(PirickError):
    """Declared identity element fails 1*a == a or a*1 == a; carries the element."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"declared identity fails on element {element}")


class NotDistributive(PirickError):
    """Multiplication fails a distributive law; carries a witness triple."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        super().__init__(f"multiplication is not distributive at {self.triple}")


class NotIdempotent(PirickError):
    """An element expected to satisfy e*e == e does not."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not idempotent")


class SizeCapExceeded(PirickError):
    """A construction or scan would exceed a configured size cap."""

    def __init__(self, what, size, cap):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what}: size {size} exceeds cap {cap}")


class AxiomViolation(PirickError):
    """A module action fails one of the module axioms; carries a witness."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"module axiom '{axiom}' fails at {self.witness}")


class NotAHomomorphism(PirickError):
    """A map table moves 0 or breaks a relation; carries the witness."""

    def __init__(self, law, witness):
        self.law = law
        self.witness = tuple(witness)
        super().__init__(f"map fails {law} at {self.witness}")


class UnknownTheorem(PirickError):
    """A verification run referenced a registry id that does not exist."""


class UnknownFamily(PirickError):
    """A generator was asked for a family name it does not know."""


class FileSyntaxError(PirickError):
    """A ring/module text file is malformed; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownRing(FileSyntaxError):
    """A module file's `over` clause names a ring that was not loaded."""


class QueryParseError(PirickError):
    """A property query expression is malformed; carries position and expectation."""

    def __init__(self, position, expected, detail=""):
        self.position = position
        self.expected = tuple(expected)
        self.detail = detail
        tail = f" ({detail})" if detail else ""
        super().__init__(
            f"query parse error at position {position}: expected one of "
            f"{', '.join(self.expected)}{tail}")
