"""Workloads of the pirick benchmark: commands, input bands and output checks.

This file imports nothing from `pirick`: `run.py` only starts
`pirick` processes and reads what they print.  Inputs for the seeded
workloads are written by `gen.py`; reference outputs live in `reference/`
and are rewritten by `make_reference.py`.

Input bands (the seed never moves work outside them):

- `verify_corpus`: the shipped `corpus/` (47 files).  It is fixed, so the
  seed has no effect.
- `catalog_stretch`: z2_free3, z5_free2 and z4_free2 (|End(M)| = 512, 625,
  256; Sigma |End|^2 = 718,305 self-check pairs), plus one regular module
  Z_p with p a prime in 67..97 (|End(M)| = p, p^2 more pairs).  Its order
  exceeds the default `lattice` cap (64), so five cells of its row are
  `skipped`.
- `cap_bound`: z3_free3 (|Hom(M, M)| = 27^3 = 19,683 > `construct` 4096).
"""

from __future__ import annotations

import json
import pathlib

WORKLOADS = ("verify_corpus", "catalog_stretch", "cap_bound")
CATALOG_POOL = ("z2_free3", "z5_free2", "z4_free2")
LATTICE_CAPPED_PRIMES = (67, 71, 73, 79, 83, 89, 97)
CAP_POOL = ("z3_free3",)

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_FILES = {
    "verify_corpus": "verify_corpus.out",
    "catalog_stretch": "catalog_pool.csv",
    "cap_bound": "cap_bound_pool.out",
}

VERIFY_STATUSES = ("holds", "hypothesis_not_met", "violation", "skipped",
                   "reading_flag")
CAPS = ("construct", "lattice", "hom", "matrix_check")


def spec() -> dict:
    """`BENCHMARK.json`: the one place that holds each workload's `why`."""
    path = BENCH_DIR.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def command(workload: str, inputs: pathlib.Path, out_csv: pathlib.Path):
    """The `pirick` arguments of one sample."""
    if workload == "verify_corpus":
        return ["verify", str(inputs)]
    if workload == "catalog_stretch":
        return ["catalog", str(inputs), "--out", str(out_csv)]
    mods = sorted(inputs.glob("*.mod"))
    return ["module", "check", str(mods[0])]


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> str:
    path = REFERENCE_DIR / REFERENCE_FILES[workload]
    return path.read_text(encoding="utf-8")


def property_order() -> tuple:
    """The 16 property columns, read from the catalog reference header."""
    header = load_reference("catalog_stretch").splitlines()[1].split(",")
    return tuple(header[4:-2])


def registry_ids() -> tuple:
    """The registry ids in verify order, read from the verify reference."""
    ids = []
    for line in load_reference("verify_corpus").splitlines():
        if not line.startswith("#"):
            tid = line.split("\t")[1]
            if tid not in ids:
                ids.append(tid)
    return tuple(ids)


def _rename_catalog(ref: str, manifest: dict) -> str:
    """The reference catalog for the manifest's instance names."""
    lines = ref.splitlines()
    rows = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in lines[2:]}
    body = sorted(f"{name},{rows[key]}" for name, key in manifest.items())
    return "\n".join(lines[:2] + body) + "\n"


def expected_output(workload: str, manifest: dict) -> str:
    """What the program should print (catalog: write) for these inputs."""
    ref = load_reference(workload)
    if workload == "verify_corpus":
        return ref
    if workload == "catalog_stretch":
        return _rename_catalog(ref, manifest)
    (name, key), = manifest.items()
    head, rest = ref.split("\n", 1)
    return head.replace(f"module {key}:", f"module {name}:", 1) + "\n" + rest


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Check:
    """Operations attempted and failed, plus skipped cells, for one sample."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.skipped = 0
        self.problems = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)

    def status(self, got, ref, decided, what):
        """A status cell: equals the reference, or decides a reference skip."""
        self.cells += 1
        self.skipped += got == "skipped"
        self.op(got == ref or (ref == "skipped" and got in decided), what)


def _verify_rows(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            parts = line.split("\t")
            rows[(parts[0], parts[1])] = parts[2] if len(parts) > 2 else ""
    return rows


def check_verify(got: str, ref: str) -> Check:
    chk = Check()
    decided = ("holds", "hypothesis_not_met", "reading_flag")
    got_rows, ref_rows = _verify_rows(got), _verify_rows(ref)
    for key, ref_status in ref_rows.items():
        chk.status(got_rows.get(key, "missing"), ref_status, decided,
                   f"{key[0]} {key[1]}")
    for key in got_rows.keys() - ref_rows.keys():
        chk.status(got_rows[key], "absent", (), f"unexpected {key}")
    return chk


def _catalog_rows(text: str) -> tuple:
    """(version and header lines, rows as cell lists); names hold no commas."""
    lines = text.splitlines()
    return lines[:2], [line.split(",") for line in lines[2:]]


def check_catalog(got: str, ref: str, manifest: dict) -> Check:
    chk = Check()
    ref_head, ref_rows = _catalog_rows(ref)
    got_head, got_rows = _catalog_rows(got)
    header = ref_head[1].split(",")
    props = header[4:-2]
    by_key = {row[0]: row for row in ref_rows}
    by_name = {row[0]: row for row in got_rows if row}
    chk.op(got_head == ref_head, "catalog header")
    for name, key in sorted(manifest.items()):
        want = by_key[key]
        row = by_name.get(name, ["missing"] * len(header))
        if len(row) != len(header):
            row = ["malformed"] * len(header)
        for i, prop in enumerate(props, start=4):
            chk.status(row[i], want[i], ("true", "false"), f"{name} {prop}")
        for col in ("end_order", "idempotent_count"):
            i = header.index(col)
            chk.op(row[i] == want[i] or (want[i] == "" and row[i].isdigit()),
                   f"{name} {col}")
    for name in by_name.keys() - manifest.keys():
        chk.op(False, f"unexpected row {name}")
    return chk


def _check_lines(text: str) -> tuple:
    lines = text.splitlines()
    statuses = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) >= 2:
            statuses[parts[0]] = parts[1]
    head = lines[0].split(":", 1)[1] if lines and ":" in lines[0] else ""
    return head, statuses


def check_module(got: str, ref: str) -> Check:
    chk = Check()
    got_head, got_st = _check_lines(got)
    ref_head, ref_st = _check_lines(ref)
    end_skipped = "End order (skipped)"
    chk.op(got_head == ref_head
           or (end_skipped in ref_head and got_head.split(", End order")[0]
               == ref_head.split(", End order")[0]), "module header")
    for prop, want in ref_st.items():
        chk.status(got_st.get(prop, "missing"), want, ("true", "false"), prop)
    for prop in got_st.keys() - ref_st.keys():
        chk.op(False, f"unexpected property {prop}")
    return chk


def check_output(workload: str, got: str, manifest: dict,
                 ref: str | None = None) -> Check:
    """Compare one sample's output with the reference statuses."""
    if ref is None:
        ref = load_reference(workload)
    if workload == "verify_corpus":
        return check_verify(got, ref)
    if workload == "catalog_stretch":
        return check_catalog(got, ref, manifest)
    return check_module(got, ref)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("cpu_ref_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("skipped_share", "share", "lower"),
    ("ok_share", "share", "higher"),
)


def per_layer() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(name, unit="count", better="lower"):
        out.append((name, unit, better))

    for field in ("calls", "builds", "distinct", "duplicate_builds"):
        add(f"homs.end_ring.{field}")
    add("homs.end_ring.self_s", "s")
    add("homs.end_ring.check_pairs")
    add("homs.end_ring.cap_failures")
    add("homs.hom_set.calls")
    add("homs.hom_set.candidates")
    add("homs.hom_set.kept")
    add("homs.hom_set.kept_ratio", "ratio", "higher")
    add("homs.hom_set.self_s", "s")
    add("groups.group_embedding.calls")
    add("groups.group_embedding.labels")
    add("groups.group_embedding.self_s", "s")
    add("groups.decompose_abelian.self_s", "s")
    add("modules.module_make.calls")
    add("modules.module_make.self_s", "s")
    add("modules.all_submodules.calls")
    add("modules.all_submodules.self_s", "s")
    add("modules.all_submodules.lattice_size")
    for fn in ("quotient_module", "submodule_module", "find_isomorphism"):
        add(f"modules.{fn}.self_s", "s")
    add("rings.ring_make.calls")
    add("rings.ring_make.self_s", "s")
    add("io.load_dir.s", "s")
    add("properties.analyze.calls")
    for prop in property_order():
        add(f"properties.decider.{prop}.self_s", "s")
    for tid in registry_ids():
        add(f"theorems.entry.{tid}.self_s", "s")
    for status in VERIFY_STATUSES:
        better = "higher" if status in ("holds", "hypothesis_not_met") \
            else "lower"
        add(f"theorems.verdicts.{status}", better=better)
    for cap in CAPS:
        add(f"skipped.by_cap.{cap}")
    add("trace.wall_s", "s")
    add("trace.overhead_s", "s")
    return out


def layer_values(trace: dict) -> dict:
    """Per-layer metric values from one `trace.py` report."""
    calls, self_s, net_s = trace["calls"], trace["self_s"], trace["net_s"]
    counts = trace["counts"]
    values = {}
    for name, _unit, _better in per_layer():
        parts = name.split(".")
        if name.startswith("trace."):
            continue
        if parts[0] == "skipped":
            values[name] = trace["skips"].get(parts[2], 0)
        elif name.startswith("theorems.verdicts."):
            values[name] = trace["verdicts"].get(parts[2], 0)
        elif name.startswith(("properties.decider.", "theorems.entry.")):
            values[name] = net_s.get(name[:-len(".self_s")], 0.0)
        elif name == "io.load_dir.s":
            values[name] = trace["total_s"].get("io.load_dir", 0.0)
        elif name == "homs.end_ring.duplicate_builds":
            values[name] = (counts["end_ring.builds"]
                            - counts["end_ring.distinct"])
        elif name == "homs.hom_set.kept_ratio":
            cand = counts["hom_set.candidates"]
            values[name] = counts["hom_set.kept"] / cand if cand else 0.0
        elif parts[-1] == "calls":
            values[name] = calls.get(".".join(parts[:-1]), 0)
        elif parts[-1] == "self_s":
            values[name] = self_s.get(".".join(parts[:-1]), 0.0)
        else:
            values[name] = counts[".".join(parts[1:])]
    return values
