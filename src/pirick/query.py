"""Boolean query expressions over property reports.

Grammar (usual precedence: ``!`` binds tighter than ``&``, which binds
tighter than ``|``)::

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '!' factor | '(' expr ')' | IDENT

Identifiers must be property names known to the property engine.  Parse
errors carry a 1-based character position and the set of tokens that would
have been accepted there.
"""

from __future__ import annotations

import re

from .errors import QueryParseError
from .properties import PROPERTY_ORDER, PropertyReport

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[&|!()]))")

_FACTOR_STARTS = ("identifier", "'!'", "'('")


def _tokenize(text: str) -> list:
    """Return [(kind, value, 1-based position)] for the expression."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            # only whitespace may remain unmatched
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip()) + 1
            raise QueryParseError(bad, _FACTOR_STARTS,
                                  f"unexpected character {text[bad - 1]!r}")
        if match.group("ident"):
            start = match.start("ident") + 1
            tokens.append(("ident", match.group("ident"), start))
        else:
            start = match.start("op") + 1
            tokens.append((match.group("op"), match.group("op"), start))
        pos = match.end()
    return tokens


class Query:
    """A parsed expression: referenced property names plus an evaluator."""

    __slots__ = ("text", "ast", "names")

    def __init__(self, text: str, ast, names: set):
        self.text = text
        self.ast = ast
        self.names = names

    def evaluate(self, values: dict) -> bool:
        """Evaluate against a {property name: bool} assignment."""
        return _eval(self.ast, values)

    def __repr__(self) -> str:
        return f"Query({self.text!r})"


def _eval(node, values: dict) -> bool:
    op = node[0]
    if op == "var":
        return values[node[1]]
    if op == "not":
        return not _eval(node[1], values)
    if op == "and":
        return _eval(node[1], values) and _eval(node[2], values)
    return _eval(node[1], values) or _eval(node[2], values)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = set()

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _anchor(self) -> int:
        """Error position: the current token, else the last one consumed."""
        tok = self._peek()
        if tok is not None:
            return tok[2]
        if self.tokens:
            return self.tokens[-1][2]
        return 1

    def _fail(self, expected, detail: str):
        raise QueryParseError(self._anchor(), expected, detail)

    def parse(self):
        if not self.tokens:
            self._fail(_FACTOR_STARTS, "empty expression")
        ast = self._expr()
        tok = self._peek()
        if tok is not None:
            self._fail(("'&'", "'|'", "end of input"),
                       f"unexpected {tok[1]!r}")
        return ast

    def _expr(self):
        node = self._term()
        while (tok := self._peek()) is not None and tok[0] == "|":
            self.i += 1
            node = ("or", node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while (tok := self._peek()) is not None and tok[0] == "&":
            self.i += 1
            node = ("and", node, self._factor())
        return node

    def _factor(self):
        tok = self._peek()
        if tok is None:
            self._fail(_FACTOR_STARTS, "expression ended early")
        kind, value, pos = tok
        if kind == "!":
            self.i += 1
            return ("not", self._factor())
        if kind == "(":
            self.i += 1
            node = self._expr()
            closing = self._peek()
            if closing is None or closing[0] != ")":
                self._fail(("')'",), "unclosed '('")
            self.i += 1
            return node
        if kind == "ident":
            if value not in PROPERTY_ORDER:
                raise QueryParseError(
                    pos, ("a property name",),
                    f"unknown property {value!r}")
            self.i += 1
            self.names.add(value)
            return ("var", value)
        self._fail(_FACTOR_STARTS, f"unexpected {value!r}")


def parse_query(text: str) -> Query:
    """Parse an expression; raises QueryParseError with a 1-based position."""
    parser = _Parser(text)
    ast = parser.parse()
    return Query(text, ast, parser.names)


def match_report(query: Query, report: PropertyReport):
    """Evaluate a query against one report.

    Returns (matched, note).  A property the report skipped makes the
    instance non-matching, with a note naming the skipped properties.
    """
    skipped = sorted(n for n in query.names
                     if report.statuses.get(n) == "skipped")
    if skipped:
        return False, "skipped: " + ",".join(skipped)
    values = {n: report.statuses.get(n) == "true" for n in query.names}
    return query.evaluate(values), ""
