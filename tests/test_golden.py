"""Byte-level goldens: whole-corpus `verify`, `catalog`, `module endring`
and `module check --witnesses` output, and the corpus itself as
`build_corpus` writes it."""

import hashlib
import pathlib

from pirick.cli import main
from pirick.families import build_corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def test_verify_corpus_matches_benchmark_reference(capsys):
    # the benchmark checks every sample against this same file
    expected = (ROOT / "perfbench" / "reference" / "verify_corpus.out") \
        .read_text(encoding="utf-8")
    assert main(["verify", str(CORPUS)]) == 0
    assert capsys.readouterr().out == expected


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


def test_build_corpus_reproduces_the_shipped_corpus(tmp_path):
    written = build_corpus(tmp_path)
    assert written == sorted(p.name for p in CORPUS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes()
