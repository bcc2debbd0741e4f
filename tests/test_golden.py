"""Byte-level goldens: whole-corpus `verify` (at the default caps, both
edges of the lattice cap and matrix_check=1296), `catalog`, `module endring`,
`module check --witnesses` and `ring check` output, the corpus itself as
`build_corpus` writes it, and the error (or none) that `ring_make` and
`module_make` give on a fixed sweep of small constant tables."""

import hashlib
import itertools
import pathlib

import pytest

from pirick.caps import Caps
from pirick.cli import main
from pirick.errors import PirickError
from pirick.families import build_corpus, zmod
from pirick.groups import FinAbGroup
from pirick.modules import module_make
from pirick.rings import product_ring, ring_make, triangular_ring

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def test_verify_corpus_matches_benchmark_reference(capsys):
    # the benchmark checks every sample against this same file
    expected = (ROOT / "perfbench" / "reference" / "verify_corpus.out") \
        .read_text(encoding="utf-8")
    assert main(["verify", str(CORPUS)]) == 0
    assert capsys.readouterr().out == expected


def test_verify_corpus_at_matrix_check_1296_matches_golden(monkeypatch,
                                                          capsys):
    # at 1296 the "mat2." entries and the rank-2 families run on Z5, Z6
    # and Z2 x Z3 too, whose 2x2 matrix rings have order 625 and 1296
    monkeypatch.setenv("PIRICK_CAPS", "matrix_check=1296")
    assert main(["verify", str(CORPUS)]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "verify_corpus_matrix1296.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("lattice, digest", [
    (8, "216c39aa34aa6c3681f71355ca3287841dfcd331b1437c45d553f18079c27be5"),
    (128, "b4c49d7c9e6b896156b0d4fc6b6a7314ae76ba3910acad6173bc41ada8ce52b4"),
])
def test_verify_corpus_at_both_edges_of_the_lattice_cap(monkeypatch, capsys,
                                                        lattice, digest):
    # At 8 the lattice-gated entries run on modules of order <= 8 only, at
    # 128 on every corpus module.  Both digests were recorded with the
    # pairwise lattice and the lattice scans for radical, socle, small and
    # essential submodules.
    monkeypatch.setenv("PIRICK_CAPS", f"lattice={lattice}")
    assert main(["verify", str(CORPUS)]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def test_catalog_corpus_matches_golden(tmp_path, capsys):
    out_csv = tmp_path / "catalog.csv"
    assert main(["catalog", str(CORPUS), "--out", str(out_csv)]) == 0
    assert out_csv.read_bytes() == \
        (GOLDEN / "catalog_corpus.csv").read_bytes()


def test_endring_corpus_matches_golden(tmp_path, capsys):
    # End(M)'s numbering is what every f= and e= witness refers to
    lines = []
    for mod in sorted(CORPUS.glob("*.mod")):
        out = tmp_path / f"{mod.stem}.ring"
        assert main(["module", "endring", str(mod), "--out", str(out)]) == 0
        for path in (out, out.with_name(out.name + ".maps")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.name}\n")
    assert "".join(lines) == \
        (GOLDEN / "endring_corpus.sha256").read_text(encoding="utf-8")


def test_module_check_corpus_matches_golden(capsys):
    # the c2, d2 and morphic witnesses come from the isomorphism step
    out = []
    for mod in sorted(CORPUS.glob("*.mod")):
        assert main(["module", "check", str(mod), "--witnesses",
                     "--format", "machine"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == \
        (GOLDEN / "module_check_corpus.txt").read_text(encoding="utf-8")


def test_ring_check_corpus_matches_golden(capsys):
    out = []
    for ring in sorted(CORPUS.glob("*.ring")):
        assert main(["ring", "check", str(ring), "--format", "machine"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == \
        (GOLDEN / "ring_check_corpus.txt").read_text(encoding="utf-8")


def _tables(keys, order, step=1):
    """Every step-th map from `keys` to values below `order`, in
    lexicographic order of the value tuples."""
    values = itertools.product(range(order), repeat=len(keys))
    for row in itertools.islice(values, 0, None, step):
        yield dict(zip(keys, row))


def _outcome(build) -> str:
    try:
        build()
    except PirickError as err:
        return f"{type(err).__name__}: {err}"
    return "ok"


def _validation_sweep() -> str:
    """One line per case: the constants given and what construction did.

    `fixed` constants are added to every swept table, so that sweeps with
    the identity pinned reach the laws checked after it."""
    lines = []

    def ring_case(factors, constants, one):
        group = FinAbGroup(factors)
        text = " ".join(f"{i}{j}:{c}" for (i, j), c in constants.items())
        got = _outcome(lambda: ring_make(group, constants, one, Caps()))
        lines.append(f"ring {factors} one={one} [{text}] -> {got}\n")

    def ring_sweep(factors, step=1, one=None, fixed=None):
        fixed = fixed or {}
        group = FinAbGroup(factors)
        keys = [key for key in itertools.product(range(len(factors)),
                                                 repeat=2) if key not in fixed]
        ones = range(group.order) if one is None else (one,)
        cases = itertools.product(_tables(keys, group.order), ones)
        for constants, one in itertools.islice(cases, 0, None, step):
            ring_case(factors, {**fixed, **constants}, one)

    for factors in ((1,), (2,), (3,), (4,), (6,)):
        ring_sweep(factors)
    ring_sweep((2, 2), step=3)
    ring_sweep((2, 4), step=64)
    # basis element 0 of Z_2^3 is the identity: only products of the other
    # two basis elements are swept
    unit = {(0, 0): 4, (0, 1): 2, (1, 0): 2, (0, 2): 1, (2, 0): 1}
    ring_sweep((2, 2, 2), step=8, one=4, fixed=unit)
    ring_case((2,), {(0, 0): 2}, 1)
    ring_case((2,), {(1, 0): 1}, 1)
    ring_case((2, 2), {(0, 2): 1}, 1)

    def module_sweep(ring, factors, step=1, fixed=None):
        fixed = fixed or {}
        group = FinAbGroup(factors)
        keys = [key for key in itertools.product(
            range(len(ring.add_group.factors)), range(len(factors)))
            if key not in fixed]
        for constants in _tables(keys, group.order, step):
            constants = {**fixed, **constants}
            text = " ".join(f"{i}{j}:{c}" for (i, j), c in constants.items())
            got = _outcome(lambda: module_make(ring, group, constants,
                                               Caps()))
            lines.append(f"module {ring.name} {factors} [{text}] -> {got}\n")

    z2, z4 = zmod(2), zmod(4)
    z2xz2 = product_ring(z2, z2, name="z2xz2")
    t2z2 = triangular_ring(z2, 2, name="t2z2")
    for ring, all_factors in ((z2, ((2,), (4,), (2, 2))),
                              (z4, ((2,), (4,), (2, 2), (2, 4))),
                              (z2xz2, ((2,),)),
                              (t2z2, ((2,),))):
        for factors in all_factors:
            module_sweep(ring, factors)
    module_sweep(z2xz2, (2, 2), step=3)
    module_sweep(t2z2, (2, 2), step=20)
    # Z_2[x]/(x^2) with basis (1, x): 1 acts as the identity and only the
    # action of x is swept
    dual = ring_make(FinAbGroup((2, 2)), {(0, 0): 2, (0, 1): 1, (1, 0): 1},
                     2, name="z2x")
    for factors, step in (((2, 2), 1), ((2, 2, 2), 2), ((2, 4), 1)):
        group = FinAbGroup(factors)
        unit = {(0, j): group.basis_index(j) for j in range(len(factors))}
        module_sweep(dual, factors, step, fixed=unit)
    return "".join(lines)


def test_validation_errors_match_golden():
    assert _validation_sweep() == \
        (GOLDEN / "validation_errors.txt").read_text(encoding="utf-8")


def test_build_corpus_reproduces_the_shipped_corpus(tmp_path):
    written = build_corpus(tmp_path)
    assert written == sorted(p.name for p in CORPUS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes()
