"""Byte-level goldens: whole-corpus `verify` and `catalog` output."""

import pathlib

from pirick.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def test_verify_corpus_matches_benchmark_reference(capsys):
    # the benchmark checks every sample against this same file
    expected = (ROOT / "perfbench" / "reference" / "verify_corpus.out") \
        .read_text(encoding="utf-8")
    assert main(["verify", str(CORPUS)]) == 0
    assert capsys.readouterr().out == expected


def test_catalog_corpus_matches_golden(tmp_path, capsys):
    out_csv = tmp_path / "catalog.csv"
    assert main(["catalog", str(CORPUS), "--out", str(out_csv)]) == 0
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    assert out_csv.read_bytes() == \
        (golden / "catalog_corpus.csv").read_bytes()
