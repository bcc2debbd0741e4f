"""Command-line interface.

Subcommands::

    pirick ring check FILE
    pirick module check FILE [--witnesses]
    pirick module endring FILE --out OUT
    pirick verify DIR [--theorems LIST] [--jobs N]
    pirick search EXPR DIR
    pirick catalog DIR --out FILE
    pirick gen FAMILY [PARAMS ...] --out FILE

Common flags (per subcommand): ``--cap-lattice N``, ``--cap-hom N``,
``--format text|machine``.  The PIRICK_CAPS environment variable supplies
process-wide cap overrides; explicit flags win over it.

Exit codes: 0 success, 2 verify violations, 3 usage/parse/validation errors.

Each subcommand imports the package modules it runs in its own handler, so
a process compiles and loads only those: `module check` never loads the
registry (`theorems`) or the query parser, and `ring check` never loads the
hom sets (`homs`).
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from .caps import caps_from_env
from .errors import PirickError
from .families import FAMILIES, build_instance
from .io import (export_endring, load_dir, module_ring_name, parse_module,
                 parse_ring, ring_file_name, write_module, write_ring)

VIOLATION_EXIT = 2
ERROR_EXIT = 3

# The ring checks that `ring check` prints, in row order, and the labels
# that differ from the check's name.  nil_radical holds on every finite
# ring, so it has no row.
RING_ROWS = ("commutative", "reduced", "abelian", "domain", "local",
             "division", "regular", "pi_regular", "strongly_pi_regular",
             "gen_left_pp")
RING_ROW_LABELS = {"gen_left_pp": "generalized_left_pp"}


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--cap-lattice", type=int, metavar="N",
                        help="largest module order for the submodule "
                             "lattice, the radical, the socle and the small "
                             "and essential tests, and largest |End(M)| for "
                             "its left singular ideal")
    parser.add_argument("--cap-hom", type=int, metavar="N",
                        help="largest candidate space |N|^k of a hom set "
                             "Hom(M, N), M with k generators")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="output style")


def _caps_for(args) -> object:
    caps = caps_from_env()
    overrides = {}
    if getattr(args, "cap_lattice", None) is not None:
        overrides["lattice"] = args.cap_lattice
    if getattr(args, "cap_hom", None) is not None:
        overrides["hom"] = args.cap_hom
    return dataclasses.replace(caps, **overrides) if overrides else caps


def _registry_for(path: pathlib.Path, caps) -> dict:
    """{name: ring} for the ring that a module file's `over` line names,
    parsed from the .ring file beside it whose `ring <name>` line declares
    that name; a second such file is an error, as for `io.load_dir`.  No
    other ring file is read past its first line."""
    wanted = module_ring_name(path)
    named = [ring_path for ring_path in sorted(path.parent.glob("*.ring"))
             if ring_file_name(ring_path) == wanted]
    if len(named) > 1:
        raise PirickError(f"duplicate ring name {wanted!r} in {named[1]}")
    return {wanted: parse_ring(named[0], caps)} if named else {}


def _cmd_ring_check(args) -> int:
    from .rings import ring_check
    caps = _caps_for(args)
    ring = parse_ring(pathlib.Path(args.file), caps)
    rows = [("name", ring.name), ("order", ring.order),
            ("basis", len(ring.add_group.factors))]
    rows += [(RING_ROW_LABELS.get(name, name), ring_check(ring, name).holds)
             for name in RING_ROWS]
    if args.format == "machine":
        print(";".join(f"{k}={str(v).lower()}" for k, v in rows))
    else:
        print(f"ring {ring.name}: valid")
        for key, value in rows[1:]:
            print(f"  {key:<22} {str(value).lower()}")
    return 0


def _load_module(args, caps):
    path = pathlib.Path(args.file)
    registry = _registry_for(path, caps)
    return parse_module(path, registry, caps)


def _cmd_module_check(args) -> int:
    from .properties import analyze, render_report
    caps = _caps_for(args)
    module = _load_module(args, caps)
    report = analyze(module, caps)
    print(render_report(report, fmt=args.format,
                        show_witnesses=args.witnesses), end="")
    return 0


def _cmd_module_endring(args) -> int:
    from .homs import end_ring
    caps = _caps_for(args)
    module = _load_module(args, caps)
    end = end_ring(module, caps)
    export_endring(end, pathlib.Path(args.out), module.name)
    print(f"endring of {module.name}: order {end.order}, "
          f"written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from .theorems import InstanceContext, expand_ids, summarize, verify_all
    caps = _caps_for(args)
    requested = None
    if args.theorems:
        requested = [t for t in args.theorems.split(",") if t.strip()]
        expand_ids(requested)  # fail fast on unknown ids
    instances = load_dir(pathlib.Path(args.dir), caps)
    verdicts = []
    for inst in instances:
        ctx = InstanceContext(inst.name, inst.kind, inst.ring, inst.module,
                              caps)
        verdicts.extend(verify_all(ctx, requested))
    for v in verdicts:
        witness = v.witness if v.witness else "-"
        print(f"{v.instance}\t{v.theorem_id}\t{v.status}\t{witness}")
    summary = summarize(verdicts)
    counts = summary["counts"]
    print("# summary: " + " ".join(f"{k}={counts[k]}" for k in counts)
          + f" total={summary['total']}")
    print("# never_fired: " + (",".join(summary["never_fired"])
                               if summary["never_fired"] else "-"))
    return VIOLATION_EXIT if counts["violation"] else 0


def _cmd_search(args) -> int:
    from .properties import analyze
    from .query import match_report, parse_query
    caps = _caps_for(args)
    query = parse_query(args.expr)
    instances = load_dir(pathlib.Path(args.dir), caps)
    notes = []
    for inst in instances:
        if inst.kind != "module":
            continue
        report = analyze(inst.module, caps, name=inst.name)
        matched, note = match_report(query, report)
        if matched:
            print(inst.name)
        elif note:
            notes.append(f"# {inst.name} not evaluated: {note}")
    for line in notes:
        print(line)
    return 0


def _cmd_catalog(args) -> int:
    from .catalog import write_catalog
    caps = _caps_for(args)
    count = write_catalog(pathlib.Path(args.dir), pathlib.Path(args.out),
                          caps)
    print(f"catalog: {count} rows written to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    caps = _caps_for(args)
    params = []
    for token in args.params:
        params.extend(p for p in token.split(",") if p)
    kind, obj = build_instance(args.family, params, caps)
    out = pathlib.Path(args.out)
    if kind == "ring":
        write_ring(obj, out)
    else:
        write_module(obj, out)
    print(f"gen: wrote {kind} {obj.name} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pirick",
        description="Exact computation over finite rings and modules: "
                    "properties, witnesses, and verified implications.")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring file operations")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    ring_check = ring_sub.add_parser("check",
                                     help="validate a ring file and report "
                                          "its predicates")
    ring_check.add_argument("file")
    _common_flags(ring_check)
    ring_check.set_defaults(func=_cmd_ring_check)

    module = sub.add_parser("module", help="module file operations")
    module_sub = module.add_subparsers(dest="module_command", required=True)
    module_check = module_sub.add_parser("check",
                                         help="validate a module file and "
                                              "report every property")
    module_check.add_argument("file")
    module_check.add_argument("--witnesses", action="store_true",
                              help="include witness details")
    _common_flags(module_check)
    module_check.set_defaults(func=_cmd_module_check)
    endring = module_sub.add_parser("endring",
                                    help="compute the endomorphism ring and "
                                         "write it as a ring file")
    endring.add_argument("file")
    endring.add_argument("--out", required=True)
    _common_flags(endring)
    endring.set_defaults(func=_cmd_module_endring)

    verify = sub.add_parser("verify",
                            help="run the implication registry over a "
                                 "corpus directory")
    verify.add_argument("dir")
    verify.add_argument("--theorems", metavar="LIST",
                        help="comma-separated registry ids (prefixes allowed)")
    verify.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility; instances are "
                             "always verified serially")
    _common_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    search = sub.add_parser("search",
                            help="list corpus modules matching a boolean "
                                 "property expression")
    search.add_argument("expr")
    search.add_argument("dir")
    _common_flags(search)
    search.set_defaults(func=_cmd_search)

    cat = sub.add_parser("catalog",
                         help="write a CSV property catalog for a corpus "
                              "directory")
    cat.add_argument("dir")
    cat.add_argument("--out", required=True)
    _common_flags(cat)
    cat.set_defaults(func=_cmd_catalog)

    gen = sub.add_parser("gen", help="generate a standard instance file")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("params", nargs="*",
                     help="family parameters (space or comma separated; "
                          "rings as z<n> or a .ring path)")
    gen.add_argument("--out", required=True)
    _common_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:                 # --help exits 0, a usage error 2
        return ERROR_EXIT if exc.code else 0
    try:
        return args.func(args)
    except PirickError as exc:
        print(f"pirick: error: {exc}", file=sys.stderr)
        return ERROR_EXIT
    except OSError as exc:
        print(f"pirick: i/o error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
