"""File formats, corpus loading, and the command-line surface."""

import pathlib
import subprocess
import sys

import pytest

from pirick.caps import caps_from_env
from pirick.catalog import CATALOG_VERSION, HEADER_COLUMNS
from pirick.cli import RING_ROWS, main
from pirick.errors import FileSyntaxError, UnknownRing
from pirick.families import build_instance, ex23_module, ex23_ring, zmod
from pirick.io import (load_dir, parse_module, parse_ring, serialize_module,
                       serialize_ring, write_module, write_ring)
from pirick.modules import same_ring
from pirick.rings import (RING_CHECKS, corner_ring, matrix_ring,
                          triangular_ring)

CAPS = caps_from_env()
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("builder", [
    lambda: zmod(4),
    lambda: ex23_ring(CAPS),
    lambda: build_instance("matrix", ["z2", "2"], CAPS)[1],
    lambda: build_instance("product", ["z2", "z3"], CAPS)[1],
    # corners whose products include zero: a zero product is no constant
    lambda: corner_ring(matrix_ring(zmod(2), 2, CAPS), 9, CAPS)[0],
    lambda: corner_ring(triangular_ring(zmod(2), 3, CAPS), 5, CAPS)[0],
    lambda: corner_ring(triangular_ring(zmod(3), 2, CAPS), 10, CAPS)[0],
])
def test_ring_round_trip(tmp_path, builder):
    ring = builder()
    path = tmp_path / f"{ring.name}.ring"
    write_ring(ring, path)
    back = parse_ring(path, CAPS)
    assert back.name == ring.name
    assert back.add_group.factors == ring.add_group.factors
    assert back.one == ring.one
    assert back.constants == ring.constants
    assert same_ring(back, ring)
    assert serialize_ring(back) == serialize_ring(ring)


def test_module_round_trip(tmp_path):
    ring = ex23_ring(CAPS)
    module = ex23_module(CAPS, ring=ring)
    path = tmp_path / "ex23.mod"
    write_module(module, path)
    back = parse_module(path, {ring.name: ring}, CAPS)
    assert back.constants == module.constants
    assert serialize_module(back) == serialize_module(module)


def test_shipped_corpus_round_trips():
    instances = load_dir(CORPUS, CAPS)
    assert len(instances) == 47
    for inst in instances:
        raw = pathlib.Path(inst.path).read_text(encoding="utf-8")
        if inst.kind == "ring":
            assert serialize_ring(inst.ring) == raw
        else:
            assert serialize_module(inst.module) == raw


def _syntax_line(tmp_path, text, name="bad.ring", parse=parse_ring, **kw):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FileSyntaxError) as exc_info:
        parse(path, CAPS, **kw) if parse is parse_ring else None
    return exc_info.value.line


def test_parse_errors_carry_line_numbers(tmp_path):
    head = "ring bad\nadd 3\none 1\n"
    assert _syntax_line(tmp_path, head + "mul 9 1 1\nend\n") == 4
    assert _syntax_line(tmp_path, head + "mul 1 1 1\n") == 4
    assert _syntax_line(tmp_path, head + "mul 1 1 1\nmul 1 1 2\nend\n") == 5
    assert _syntax_line(tmp_path, head + "mul 1 1 1\nend\nx\n") == 6
    assert _syntax_line(tmp_path, head + "mul 1 1 5\nend\n") == 4
    assert _syntax_line(tmp_path, "") == 0


def test_unknown_ring_reference(tmp_path):
    path = tmp_path / "m.mod"
    path.write_text("module m over ghost\nadd 2\nend\n")
    with pytest.raises(UnknownRing):
        parse_module(path, {}, CAPS)


def test_module_act_bounds(tmp_path):
    ring = zmod(2)
    path = tmp_path / "m.mod"
    path.write_text("module m over z2\nadd 2\nact 2 1 1\nend\n")
    with pytest.raises(FileSyntaxError):
        parse_module(path, {"z2": ring}, CAPS)


# A ring and a module file whose `add` line is missing or has a 0 factor;
# the error is on the line where `add` was due, counted with comments.
ADD_LINE_CASES = [
    ("bad.ring", "ring bad\none 1\nend\n", 2, "expected 'add <factors>'"),
    ("bad.ring", "# c\nring bad\n\nadd 2 0\none 1 0\nend\n", 4,
     "factors must be >= 1"),
    ("bad.mod", "module bad over z2\nact 1 1 1\nend\n", 2,
     "expected 'add <factors>'"),
    ("bad.mod", "module bad over z2\n# c\nadd 0\nend\n", 3,
     "factors must be >= 1"),
]


@pytest.mark.parametrize("name, text, line, message", ADD_LINE_CASES)
def test_a_bad_add_line_is_a_syntax_error(tmp_path, capsys, name, text,
                                          line, message):
    write_ring(zmod(2), tmp_path / "z2.ring")
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FileSyntaxError, match=message) as exc_info:
        if name.endswith(".ring"):
            parse_ring(path, CAPS)
        else:
            parse_module(path, {"z2": zmod(2)}, CAPS)
    assert exc_info.value.line == line
    kind = "ring" if name.endswith(".ring") else "module"
    assert main([kind, "check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pirick: error:") and message in err


def test_missing_rows_default_to_zero(tmp_path):
    # a module file with no act rows fails unitality, but the zero ring
    # (no mul rows at all) parses: the empty product table is the zero map
    path = tmp_path / "z1.ring"
    path.write_text("ring z1\nadd 1\none 0\nend\n")
    ring = parse_ring(path, CAPS)
    assert ring.order == 1


def test_load_dir_orders_and_duplicates(tmp_path):
    write_ring(zmod(2), tmp_path / "z2.ring")
    write_ring(zmod(3), tmp_path / "z3.ring")
    instances = load_dir(tmp_path, CAPS)
    assert [i.name for i in instances] == ["z2", "z3"]
    # duplicate names across files are rejected
    from pirick.errors import PirickError
    write_ring(zmod(2), tmp_path / "again.ring")
    with pytest.raises(PirickError):
        load_dir(tmp_path, CAPS)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_ring_check(capsys):
    assert main(["ring", "check", str(CORPUS / "z4.ring")]) == 0
    out = capsys.readouterr().out
    assert "ring z4: valid" in out
    assert "pi_regular" in out


def test_cli_ring_check_machine(capsys):
    assert main(["ring", "check", str(CORPUS / "z6.ring"),
                 "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "name=z6" in out and "regular=true" in out


def test_cli_ring_rows_are_the_ring_checks():
    """`ring check` prints every ring check but nil_radical, which holds on
    every finite ring, each once."""
    assert len(set(RING_ROWS)) == len(RING_ROWS)
    assert set(RING_ROWS) | {"nil_radical"} == set(RING_CHECKS)
    assert "nil_radical" not in RING_ROWS


def test_cli_module_check(capsys):
    assert main(["module", "check", str(CORPUS / "ex23.mod"),
                 "--witnesses"]) == 0
    out = capsys.readouterr().out
    assert "dual_rickart" in out and "false" in out


def test_cli_module_check_machine(capsys):
    assert main(["module", "check", str(CORPUS / "z4_reg.mod"),
                 "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "dual_pi_rickart=true" in out
    assert "rickart=false" in out


def test_cli_endring(tmp_path, capsys):
    out_path = tmp_path / "end.ring"
    assert main(["module", "endring", str(CORPUS / "ex23.mod"),
                 "--out", str(out_path)]) == 0
    ring = parse_ring(out_path, CAPS)
    assert ring.order == 8
    maps = (tmp_path / "end.ring.maps").read_text().strip().splitlines()
    assert len(maps) == 8


def test_cli_gen_golden(tmp_path, capsys):
    out = tmp_path / "t.ring"
    assert main(["gen", "triangular", "z2,2", "--out", str(out)]) == 0
    assert out.read_bytes() == (CORPUS / "t2z2.ring").read_bytes()
    out2 = tmp_path / "f.mod"
    assert main(["gen", "free_module", "z2", "2", "--out", str(out2)]) == 0
    assert out2.read_bytes() == (CORPUS / "z2_free2.mod").read_bytes()


def test_cli_gen_rejects_bad_params(capsys):
    assert main(["gen", "zmod", "--out", "/tmp/x.ring"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_search(capsys, tmp_path):
    write_ring(zmod(4), tmp_path / "z4.ring")
    write_ring(zmod(6), tmp_path / "z6.ring")
    for n in (4, 6):
        main(["gen", "regular_module", f"z{n}",
              "--out", str(tmp_path / f"z{n}_reg.mod")])
    capsys.readouterr()
    assert main(["search", "dual_pi_rickart & !dual_rickart",
                 str(tmp_path)]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["z4_reg"]


def test_cli_search_parse_error(capsys):
    assert main(["search", "(", str(CORPUS)]) == 3
    assert "position 1" in capsys.readouterr().err


def test_cli_verify_exit_codes(tmp_path, capsys):
    write_ring(zmod(4), tmp_path / "z4.ring")
    assert main(["verify", str(tmp_path), "--theorems", "P2.2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["z4\tP2.2.1\tholds\ta=2,n=2,x=0",
                     "z4\tP2.2.2\tholds\tf=2,n=2,e=0"]
    assert "# summary:" in out
    assert main(["verify", str(tmp_path), "--theorems", "NOPE"]) == 3


def test_cli_verify_empty_dir(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "# summary:" in out and "total=0" in out


def test_cli_catalog(tmp_path, capsys):
    write_ring(zmod(4), tmp_path / "z4.ring")
    main(["gen", "regular_module", "z4",
          "--out", str(tmp_path / "z4_reg.mod")])
    out_csv = tmp_path / "cat.csv"
    assert main(["catalog", str(tmp_path), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == f"# {CATALOG_VERSION}"
    assert lines[1] == ",".join(HEADER_COLUMNS)
    assert lines[2].startswith("z4_reg,4,4,1,false,true,false,true,")


def test_cli_cap_flags(tmp_path, capsys):
    write_ring(zmod(4), tmp_path / "z4.ring")
    main(["gen", "regular_module", "z4",
          "--out", str(tmp_path / "z4_reg.mod")])
    capsys.readouterr()
    assert main(["module", "check", str(tmp_path / "z4_reg.mod"),
                 "--cap-lattice", "2", "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "c2=skipped" in out
    assert "dual_pi_rickart=true" in out


def test_cli_missing_file(capsys):
    assert main(["ring", "check", "/does/not/exist.ring"]) == 3


@pytest.mark.parametrize("value, message", [
    ("bogus=1", "unknown cap 'bogus'"),
    ("scan=64", "unknown cap 'scan'"),   # every table is checked exactly
    ("lattice=eight", "not an integer"),
])
def test_malformed_pirick_caps_is_an_error_not_a_traceback(value, message):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "pirick", "verify", str(CORPUS)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
             "PIRICK_CAPS": value})
    assert run.returncode == 3
    assert run.stderr.startswith("pirick: error: PIRICK_CAPS")
    assert message in run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout == ""


def test_an_end_ring_over_the_construct_cap_allocates_no_map(tmp_path,
                                                            capsys,
                                                            fresh_intern):
    """t3z2_free2, (T3(Z/2))^2 with 4,096 elements, at the default caps:
    the hom gate admits its 2^24 candidates, but End(M) is refused by the
    construct gate on |Hom(M, M)| before any map is built, so a child
    limited to 1 GiB of address space reports 16 skips, not a NumPy
    MemoryError traceback."""
    (tmp_path / "t3z2.ring").write_text((CORPUS / "t3z2.ring").read_text())
    path = tmp_path / "t3z2_free2.mod"
    assert main(["gen", "free_module", str(tmp_path / "t3z2.ring"), "2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from pirick.cli import main; "
             "sys.exit(main(['module', 'check', '--witnesses', "
             f"{str(path)!r}]))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={"PYTHONPATH": str(src),
                                         "OPENBLAS_NUM_THREADS": "1"})
    assert (run.returncode, run.stderr) == (0, "")
    head, *rows = run.stdout.splitlines()
    assert "End order (skipped)" in head
    assert [row.split()[1] for row in rows] == ["skipped"] * 16
    assert [row.partition("[")[2] for row in rows] == (
        ["cap:ring construction]"] * 13 + ["cap:submodule lattice]"]
        + ["cap:ring construction]"] * 2)


def test_a_run_does_not_load_numpy_ma(tmp_path):
    """`module check` and `verify` in a fresh process, quotients and corner
    rings included, never import numpy.ma (about 0.03 s of start-up)."""
    for name in ("z4.ring", "z4_free2.mod", "t2z2.ring", "t2z2_reg.mod"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; from pirick.cli import main; "
             f"main(['module', 'check', {str(CORPUS / 'ex23.mod')!r}]); "
             f"main(['verify', {str(tmp_path)!r}]); "
             "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(src),
                              "OPENBLAS_NUM_THREADS": "1"})
    assert "violation=0" in run.stdout
    assert run.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command, unloaded", [
    (["module", "check", str(CORPUS / "ex23.mod")],
     ["pirick.theorems", "pirick.query"]),
    (["catalog", str(CORPUS), "--out", "{tmp}/catalog.csv"],
     ["pirick.theorems", "pirick.query"]),
    (["verify", str(CORPUS)], ["pirick.query"]),
])
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, command,
                                                     unloaded):
    """A fresh process that runs one subcommand never imports the package
    modules of the others: each one is compiled on every run of a checkout
    without bytecode."""
    command = [part.format(tmp=tmp_path) for part in command]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; from pirick.cli import main; "
             f"code = main({command!r}); "
             f"print(code, [m for m in {unloaded!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(src),
                              "OPENBLAS_NUM_THREADS": "1"})
    assert run.stdout.splitlines()[-1] == "0 []"


# M2(Z8), order 4096: basis E11, E12, E21, E22 and E_ab E_cd = [b = c] E_ad.
M2Z8_TEXT = """ring m2z8
add 8 8 8 8
one 1 0 0 1
mul 1 1 1 0 0 0
mul 1 2 0 1 0 0
mul 2 3 1 0 0 0
mul 2 4 0 1 0 0
mul 3 1 0 0 1 0
mul 3 2 0 0 0 1
mul 4 3 0 0 1 0
mul 4 4 0 0 0 1
end
"""


@pytest.mark.parametrize("command, name, data, line", [
    ("ring", "bad.ring", b"\xff\xfering z2\n", 1),
    ("module", "bad.mod", b"module bad over z2\nadd 2\n\xe9\nend\n", 3),
    ("verify", "bad.ring", b"ring bad\n# caf\xe9\nadd 2\none 1\nend\n", 2),
    ("verify", "bad.mod", b"module bad over z2\nadd 2\n\xff\nend\n", 3),
])
def test_a_file_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys, command,
                                                   name, data, line):
    write_ring(zmod(2), tmp_path / "z2.ring")
    (tmp_path / name).write_bytes(data)
    target = tmp_path if command == "verify" else tmp_path / name
    argv = [command, str(target)] if command == "verify" \
        else [command, "check", str(target)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"pirick: error: line {line}: ")
    assert "not UTF-8 text" in err


def _module_dir(folder: pathlib.Path, ring_file: str = "z4.ring"):
    """A folder holding Z4, in `ring_file`, and its regular module."""
    folder.mkdir()
    write_ring(zmod(4), folder / ring_file)
    (folder / "z4_reg.mod").write_text(
        (CORPUS / "z4_reg.mod").read_text())
    return folder / "z4_reg.mod"


def test_module_commands_parse_only_the_ring_they_are_over(
        tmp_path, monkeypatch, capsys):
    """A malformed ring file, one that is not text and an unrelated M2(Z8)
    beside a module change nothing: only the ring its `over` line names is
    parsed."""
    from pirick import cli
    alone = _module_dir(tmp_path / "alone")
    crowded = _module_dir(tmp_path / "crowded")
    (crowded.parent / "bad.ring").write_text("ring bad\nadd 2\none 5\nend\n")
    (crowded.parent / "m2z8.ring").write_text(M2Z8_TEXT)
    (crowded.parent / "blob.ring").write_bytes(b"\xff\xfe\x00 ring z4\n")
    parsed = []
    real = cli.parse_ring

    def recorded(path, caps):
        parsed.append(path.name)
        return real(path, caps)

    monkeypatch.setattr(cli, "parse_ring", recorded)
    outputs = []
    for mod in (alone, crowded):
        assert main(["module", "check", str(mod), "--witnesses"]) == 0
        assert main(["module", "endring", str(mod), "--out",
                     str(mod.parent / "end.ring")]) == 0
        outputs.append(capsys.readouterr().out.replace(str(mod.parent), ""))
    assert outputs[0] == outputs[1]
    assert parsed == ["z4.ring"] * 4
    assert main(["verify", str(crowded.parent)]) == 3      # reads every file
    assert "bad.ring" in capsys.readouterr().err


def test_a_ring_is_found_by_the_name_on_its_ring_line(tmp_path, capsys):
    mod = _module_dir(tmp_path / "renamed", ring_file="integers_mod_4.ring")
    (tmp_path / "renamed" / "z4.ring").write_text(
        "ring not_z4\nadd 2\none 1\nend\n")
    assert main(["module", "check", str(mod), "--format", "machine"]) == 0
    assert "module_order=4;end_order=4" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "endring"])
def test_module_commands_refuse_two_rings_of_one_name(tmp_path, capsys,
                                                      command):
    """Two files beside a module that both declare `ring z4`: the module
    commands exit 3 and name the second file, as `verify` does."""
    mod = _module_dir(tmp_path / "two", ring_file="a.ring")
    write_ring(zmod(4), tmp_path / "two" / "b.ring")
    message = f"duplicate ring name 'z4' in {tmp_path / 'two' / 'b.ring'}"
    out = ["--out", str(tmp_path / "end.ring")] if command == "endring" \
        else []
    assert main(["module", command, str(mod), *out]) == 3
    assert message in capsys.readouterr().err
    assert main(["verify", str(mod.parent)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("ring_text, message", [
    ("ring z4\nadd 4\none 9\nend\n", "coordinate 9 out of range"),
    ("ring z5\nadd 5\none 1\nmul 1 1 1\nend\n", "error: z4\n"),
], ids=["malformed", "missing"])
def test_the_ring_a_module_is_over_must_parse(tmp_path, capsys, ring_text,
                                              message):
    folder = tmp_path / "d"
    folder.mkdir()
    (folder / "r.ring").write_text(ring_text)
    (folder / "z4_reg.mod").write_text((CORPUS / "z4_reg.mod").read_text())
    assert main(["module", "check", str(folder / "z4_reg.mod")]) == 3
    assert message in capsys.readouterr().err
