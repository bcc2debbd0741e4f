"""Self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py [--seed N]

Checks, in about three minutes:

- two traced samples of each workload give identical per-layer counts;
- the baseline counts below: `verify_corpus` makes 567 End(M) builds of 89
  distinct structures (478 duplicates) with no cap failure, and `cap_bound`
  makes 16 failed builds of its one z3_free3 structure.  A change that alters
  End(M) caching or the caps moves these on purpose and says so;
- every skipped verdict or cell is attributed to one of the four caps;
- a reference with one status altered makes the output check fail;
- `BENCHMARK.json`, when present next to `perfbench/`, lists exactly the
  metrics that `run.py` prints.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import workloads
from run import Run

BASELINE = {
    "verify_corpus": {"homs.end_ring.builds": 567,
                      "homs.end_ring.distinct": 89,
                      "homs.end_ring.duplicate_builds": 478,
                      "homs.end_ring.cap_failures": 0},
    "catalog_stretch": {"homs.end_ring.duplicate_builds": 0,
                        "homs.end_ring.cap_failures": 0},
    "cap_bound": {"homs.end_ring.builds": 16,
                  "homs.end_ring.distinct": 1,
                  "homs.end_ring.cap_failures": 16,
                  "homs.end_ring.check_pairs": 0},
}

# One status per workload to flip in the reference: (old, new).
ALTER = {
    "verify_corpus": ("\tholds\t", "\thypothesis_not_met\t"),
    "catalog_stretch": (",true,", ",false,"),
    "cap_bound": ("  true", "  false"),
}


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def counts_of(values: dict) -> dict:
    units = {name: unit for name, unit, _ in workloads.per_layer()}
    return {k: v for k, v in values.items() if units[k] not in ("s",)}


def check_workload(rep: Report, root, workload: str, seed: int):
    run = Run(root, workload, seed, 0.0, True)
    try:
        run.prepare()
        _, trace1 = run.sample(traced=True)
        _, trace2 = run.sample(traced=True)
        manifest = run.manifest
    finally:
        run.cleanup()
    rep.expect(run.failed == 0 and not run.problems,
               f"{workload}: traced outputs match the reference "
               f"({run.attempted} operations)")
    c1 = counts_of(workloads.layer_values(trace1))
    c2 = counts_of(workloads.layer_values(trace2))
    rep.expect(c1 == c2, f"{workload}: two traced samples give identical "
                         f"counts ({len(c1)} counters)")
    for name, want in BASELINE[workload].items():
        rep.expect(c1[name] == want, f"{workload}: {name} = {c1[name]} "
                                     f"(baseline {want})")
    chk = workloads.check_output(workload, run.first_output, manifest)
    by_cap = sum(c1[f"skipped.by_cap.{cap}"] for cap in workloads.CAPS)
    rep.expect(by_cap == chk.skipped,
               f"{workload}: {chk.skipped} skips, {by_cap} attributed to caps")

    old, new = ALTER[workload]
    ref = workloads.load_reference(workload)
    altered = ref.replace(old, new, 1)
    bad = workloads.check_output(workload, run.first_output, manifest,
                                 altered)
    rep.expect(altered != ref and bad.failed == 1,
               f"{workload}: an altered reference is flagged "
               f"({bad.failed} failed of {bad.attempted})")


def check_manifest(rep: Report, root):
    path = root / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    rep.expect(e2e == list(workloads.END_TO_END),
               "BENCHMARK.json end_to_end matches run.py")
    rep.expect(layer == workloads.per_layer(),
               "BENCHMARK.json per_layer matches run.py")
    rep.expect([w["name"] for w in spec["workloads"]]
               == list(workloads.WORKLOADS),
               "BENCHMARK.json workloads match run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    rep = Report()
    check_manifest(rep, root)
    for workload in workloads.WORKLOADS:
        check_workload(rep, root, workload, args.seed)
    print("self-test", "passed" if not rep.failures
          else f"FAILED ({rep.failures})")
    return 1 if rep.failures else 0


if __name__ == "__main__":
    sys.exit(main())
