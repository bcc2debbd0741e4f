"""Independent re-check of the witnesses that `module check` prints.

For every corpus module, each `f=`/`n=`/`e=` witness of `pirick module check
--witnesses --format machine` is re-verified from the End(M) tables that
`pirick module endring` writes to its `.maps` sidecar, and from nothing
else: rows are composed as tables, the idempotents are the rows e with
t[e][t[e]] == t[e], and images and kernels are plain sets.  This file
imports nothing from `pirick.homs`, `pirick.properties` or
`pirick.theorems`, the code that found the witnesses.

The rules checked are the documented ones: a positive witness names the
map with the largest (exponent or idempotent, index), its smallest
sufficient exponent n and the smallest-index idempotent e realizing it; a
negative `f=` witness is the first map for which no idempotent realizes
any term.

The `P2.2.1` witnesses `a=,n=,x=` of the `verify corpus` reference are
re-verified the same way, from the multiplication table alone, rebuilt in
plain Python from the `.ring` text.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import pathlib
import re

import pytest

from pirick.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
VERIFY_REFERENCE = ROOT / "perfbench" / "reference" / "verify_corpus.out"
MODULES = sorted(CORPUS.glob("*.mod"))
IDEMPOTENT_GENERATED = ("dual_rickart", "dual_pi_rickart", "rickart",
                        "pi_rickart")


def _pirick(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in args]) == 0
    return out.getvalue()


class End:
    """End(M) read back from the `.maps` rows alone."""

    def __init__(self, rows: list):
        self.rows = rows
        self.order = len(rows[0])
        self.idempotents = [e for e, t in enumerate(rows)
                            if self.compose(e, e) == t]
        self.idempotent_of = {}          # image -> smallest idempotent
        for e in self.idempotents:
            self.idempotent_of.setdefault(frozenset(rows[e]), e)
        # powers[f]: tables of f, f^2, ..., f^(|M|+1); every chain is
        # stable by then
        self.powers = []
        for t in rows:
            chain = [t]
            for _ in range(self.order):
                chain.append(tuple(t[x] for x in chain[-1]))
            self.powers.append(chain)

    def compose(self, f: int, g: int) -> tuple:
        """The table of f after g."""
        return tuple(self.rows[f][x] for x in self.rows[g])

    def images(self, f: int) -> list:
        return [frozenset(p) for p in self.powers[f]]

    def kernels(self, f: int) -> list:
        return [frozenset(x for x, y in enumerate(p) if y == 0)
                for p in self.powers[f]]


def _first(terms, holds) -> int | None:
    """The smallest 1-based n with holds(terms[n - 1]), or None."""
    return next((n for n, t in enumerate(terms, 1) if holds(t)), None)


def _stable(chain: list) -> int:
    return _first(range(1, len(chain)), lambda n: chain[n] == chain[n - 1])


def _splits(end: End, f: int) -> int | None:
    """The smallest n with M = Ker f^n (+) Im f^n."""
    pairs = list(zip(end.kernels(f), end.images(f)))
    return _first(pairs, lambda p: p[0] & p[1] == {0}
                  and len(p[0]) * len(p[1]) == end.order)


def _argmax(values: list) -> int:
    """The index f with the largest (values[f], f)."""
    return max(range(len(values)), key=lambda f: (values[f], f))


def _check_idempotent_generated(end, prop, status, w) -> list:
    chains = end.images if prop.startswith("dual") else end.kernels
    any_power = prop.endswith("pi_rickart")

    def terms(f):
        return chains(f) if any_power else chains(f)[:1]

    exponents = [_first(terms(f), lambda t: t in end.idempotent_of)
                 for f in range(len(end.rows))]
    if status == "false":
        c = w["f"]
        out = []
        if exponents[c] is not None:
            out.append(f"term {exponents[c]} of f={c} is an idempotent image")
        if None in exponents[:c]:
            out.append(f"f={exponents.index(None)} fails before f={c}")
        return out
    if None in exponents:
        return [f"f={exponents.index(None)} has no idempotent term"]
    f, e = w["f"], w["e"]
    n = w["n"] if any_power else 1
    out = []
    if e not in end.idempotents:
        return [f"e={e} is not idempotent"]
    term = terms(f)[n - 1]
    if frozenset(end.rows[e]) != term:
        out.append(f"Im e={e} differs from term {n} of f={f}")
    elif end.idempotent_of[term] != e:
        out.append(f"e={end.idempotent_of[term]} < e={e} realizes it too")
    if exponents[f] != n:
        out.append(f"smallest exponent of f={f} is {exponents[f]}, not {n}")
    chosen = [exponents[g] if any_power else end.idempotent_of[terms(g)[0]]
              for g in range(len(end.rows))]
    if _argmax(chosen) != f:
        out.append(f"f={_argmax(chosen)} is the largest, not f={f}")
    return out


def _check_exponent(end, prop, status, w) -> list:
    if prop == "fitting":
        exponents = [_splits(end, f) for f in range(len(end.rows))]
    else:
        chains = end.images if prop == "strongly_co_hopfian" else end.kernels
        exponents = [_stable(chains(f)) for f in range(len(end.rows))]
    if status == "false":
        c = w["f"]
        ok = exponents[c] is None and None not in exponents[:c]
        return [] if ok else [f"f={c} is not the first map without n"]
    if None in exponents:
        return [f"f={exponents.index(None)} has no exponent"]
    f, n = w["f"], w["n"]
    out = []
    if exponents[f] != n:
        out.append(f"exponent of f={f} is {exponents[f]}, not {n}")
    if _argmax(exponents) != f:
        out.append(f"f={_argmax(exponents)} is the largest, not f={f}")
    return out


def _check_abelian(end, status, w) -> list:
    commuting = {(e, f): end.compose(e, f) == end.compose(f, e)
                 for e in end.idempotents for f in range(len(end.rows))}
    failing = [pair for pair, ok in commuting.items() if not ok]
    if status == "true":
        return [f"{failing[0]} do not commute"] if failing else []
    pair = (w["e"], w["f"])
    return [] if failing[:1] == [pair] else [f"{pair} is not {failing[:1]}"]


def _check_indecomposable(end, status, w) -> list:
    trivial = {tuple([0] * end.order), tuple(range(end.order))}
    extra = [e for e in end.idempotents if end.rows[e] not in trivial]
    if status == "true":
        return [f"e={extra[0]} is a nontrivial idempotent"] if extra else []
    return [] if extra[:1] == [w["e"]] else [f"e={w['e']} is not {extra[:1]}"]


def _check_duo(end, status, w) -> list:
    if status == "true" or not w["N"].startswith("{"):
        return []                        # no witness, or N is abbreviated
    sub = {int(x) for x in w["N"][1:-1].split(",")}
    moved = {end.rows[w["f"]][x] for x in sub}
    return [] if not moved <= sub else [f"f={w['f']} maps N into N"]


def check(end: End, prop: str, status: str, witness: str) -> list:
    """Problems found with one machine-format property line; [] if none."""
    if status == "skipped":
        return []
    w = {k: int(v) if v.isdigit() else v
         for k, v in re.findall(r"(\w+)=(\{[^}]*\}|[^,]+)", witness)}
    if prop in IDEMPOTENT_GENERATED:
        return _check_idempotent_generated(end, prop, status, w)
    if prop in ("fitting", "strongly_co_hopfian", "strongly_hopfian"):
        return _check_exponent(end, prop, status, w)
    if prop == "abelian":
        return _check_abelian(end, status, w)
    if prop == "indecomposable":
        return _check_indecomposable(end, status, w)
    if prop == "duo":
        return _check_duo(end, status, w)
    return []


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("endring")
    return {path.stem: _load(path, out) for path in MODULES}


def _load(path: pathlib.Path, tmp_path: pathlib.Path):
    """(End(M) from the .maps sidecar, {prop: (status, witness)})."""
    out = tmp_path / f"{path.stem}.ring"
    _pirick("module", "endring", path, "--out", out)
    maps = out.with_name(out.name + ".maps").read_text().splitlines()
    rows = [tuple(int(x) for x in line.split(":")[1].split()) for line in maps]
    report = {}
    for line in _pirick("module", "check", path, "--witnesses",
                        "--format", "machine").splitlines()[1:]:
        prop, rest = line.split("=", 1)
        status, witness = rest.split(";witness=")
        report[prop] = (status, witness)
    return End(rows), report


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_witnesses_recheck_from_the_maps(path, loaded):
    end, report = loaded[path.stem]
    problems = [f"{prop}: {p}" for prop, (status, w) in report.items()
                for p in check(end, prop, status, w)]
    assert not problems
    assert all(report[p][0] != "skipped" for p in IDEMPOTENT_GENERATED)


def test_witness_with_the_next_idempotent_is_rejected(loaded):
    assert len(loaded) == 21
    mutated = 0
    for name, (end, report) in loaded.items():
        for prop in IDEMPOTENT_GENERATED:
            status, witness = report[prop]
            if status != "true":
                continue
            e = re.search(r"e=(\d+)", witness)
            later = [x for x in end.idempotents if x > int(e.group(1))]
            if not later:
                continue
            bad = witness.replace(e.group(0), f"e={later[0]}")
            assert check(end, prop, status, bad), (name, prop, bad)
            mutated += 1
    assert mutated == 43


# ---------------------------------------------------------------------------
# P2.2.1: a dual pi-Rickart regular module makes the ring pi-regular
# ---------------------------------------------------------------------------


def ring_table(text: str) -> list:
    """The multiplication table of a `.ring` file: elements are coordinate
    tuples in lexicographic order, and products of basis elements extend
    bilinearly."""
    rows = [line.split("#")[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row]
    factors = [int(n) for n in rows[1][1:]]
    products = {(int(i) - 1, int(j) - 1): [int(c) for c in coords]
                for _, i, j, *coords in (r for r in rows if r[0] == "mul")}
    elems = list(itertools.product(*map(range, factors)))
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        out = [0] * len(factors)
        for (i, j), coords in products.items():
            for t, c in enumerate(coords):
                out[t] += x[i] * y[j] * c
        return index[tuple(v % n for v, n in zip(out, factors))]

    return [[mul(x, y) for y in elems] for x in elems]


def pi_regular_witness(mul: list, a: int):
    """(smallest n, smallest x) with a^n x a^n == a^n, or None; every power
    of a is one of its distinct powers a, a^2, ..."""
    power, seen = a, []
    while power not in seen:
        seen.append(power)
        x = next((x for x in range(len(mul))
                  if mul[mul[power][x]][power] == power), None)
        if x is not None:
            return len(seen), x
        power = mul[power][a]
    return None


def check_p2_2_1(mul: list, a: int, n: int, x: int) -> list:
    """Problems with the witness a=,n=,x= of a pi-regular ring; [] if none."""
    power = a
    for _ in range(n - 1):
        power = mul[power][a]
    out = []
    if mul[mul[power][x]][power] != power:
        out.append(f"a^n x a^n != a^n for a={a},n={n},x={x}")
    best = pi_regular_witness(mul, a)
    if best is not None and best[0] != n:
        out.append(f"smallest exponent of a={a} is {best[0]}, not {n}")
    elif best is not None and best[1] != x:
        out.append(f"x={best[1]} < x={x} works too")
    exponents = [pi_regular_witness(mul, b) for b in range(len(mul))]
    if None in exponents:
        return out + [f"a={exponents.index(None)} has no exponent"]
    largest = max(range(len(mul)), key=lambda b: (exponents[b][0], b))
    if largest != a:
        out.append(f"a={largest} is the largest, not a={a}")
    return out


def test_p2_2_1_witnesses_recheck_from_the_ring_tables():
    lines = [line.split("\t") for line in
             VERIFY_REFERENCE.read_text(encoding="utf-8").splitlines()]
    witnesses = {name: w for name, tid, status, w in
                 (line for line in lines if len(line) == 4)
                 if tid == "P2.2.1" and status == "holds"}
    assert len(witnesses) == len(list(CORPUS.glob("*.ring"))) == 26
    for name, w in witnesses.items():
        mul = ring_table((CORPUS / f"{name}.ring").read_text())
        a, n, x = (int(v) for v in re.fullmatch(r"a=(\d+),n=(\d+),x=(\d+)",
                                                 w).groups())
        assert check_p2_2_1(mul, a, n, x) == [], name
        shifted = (x + 1) % len(mul)
        assert check_p2_2_1(mul, a, n, shifted), (name, shifted)
