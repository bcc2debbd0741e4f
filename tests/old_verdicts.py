"""The dict-shaped verdict that the oracles build, and the one helper that
reads a package Verdict in that shape.

A power search's `rings.Verdict` carries its witnesses a -> (n, w) as two
arrays indexed by a, exponent and witness, -1 where a is unresolved or not
searched.  Before, it carried them as a dict holding the entries before
the counterexample.  `witness_dict` rebuilds that dict from the arrays, so
the oracles, which still build it, compare with the package field by
field: `==` on two Verdicts is ambiguous once they hold arrays.
"""

import dataclasses


@dataclasses.dataclass
class OldVerdict:
    """A verdict as the oracles build it: witnesses a -> (n, w) in a dict."""

    holds: bool
    witnesses: dict = dataclasses.field(default_factory=dict)
    counterexample: object = None


def witness_dict(verdict) -> dict:
    """The witnesses a -> (n, w) of a Verdict's arrays with n >= 1, before
    its counterexample (the element of an (element, reason) pair); {} for
    a verdict with no arrays."""
    if verdict.exponent is None:
        return {}
    cex = verdict.counterexample
    stop = (len(verdict.exponent) if cex is None
            else cex[0] if isinstance(cex, tuple) else cex)
    n, w = verdict.exponent.tolist(), verdict.witness.tolist()
    return {a: (n[a], w[a]) for a in range(stop) if n[a] >= 1}


def old_shape(verdict) -> OldVerdict:
    """A Verdict as the oracles build it, for a field-by-field comparison."""
    return OldVerdict(verdict.holds, witness_dict(verdict),
                      verdict.counterexample)
