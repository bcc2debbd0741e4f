"""Smoke test of the benchmark's tracer against the current package.

`perfbench/trace.py` wraps public functions by name, so renaming or deleting
one leaves its per-layer metrics at 0 without any error.  This runs the
tracer on one module and checks that the End(M) build, the hom set and all
sixteen deciders were seen, on the ring entries that build e*R and eRe
through cached helpers, that the module and ring constructions were seen,
and on two lattice entries, that the lattice sizes were counted.
"""

import json
import os
import pathlib
import subprocess
import sys

from pirick.properties import DECIDERS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trace(tmp_path, *args) -> dict:
    """The tracer's report of one `pirick` command."""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("PIRICK_CAPS", None)
    subprocess.run([sys.executable, "perfbench/trace.py", str(out), "--",
                    *args], cwd=ROOT, env=env, check=True,
                   capture_output=True)
    return json.loads(out.read_text(encoding="utf-8"))


def test_deciders_are_sixteen_distinct_public_functions():
    names = [fn.__name__ for fn in DECIDERS.values()]
    assert len(set(names)) == len(DECIDERS) == 16
    assert all(name.startswith("decide_") for name in names)


def test_trace_sees_end_ring_hom_set_and_every_decider(tmp_path):
    report = _trace(tmp_path, "module", "check", "corpus/ex23.mod")
    assert report["counts"]["end_ring.builds"] == 1
    assert report["counts"]["hom_set.kept"] > 0
    deciders = {f"properties.decider.{prop}" for prop in DECIDERS}
    assert len(deciders) == 16
    assert deciders <= set(report["calls"])


def test_trace_sees_the_constructions_behind_cached_helpers(tmp_path):
    report = _trace(tmp_path, "verify", "corpus",
                    "--theorems", "C2.12,T2.14,C3.2,L3.10.1")
    calls = report["calls"]
    for name in ("modules.submodule_module", "modules.module_make",
                 "rings.corner_ring", "rings.ring_make"):
        assert calls.get(name, 0) > 0, name


def test_trace_counts_the_lattice_sizes(tmp_path):
    """The tracer reads `all_submodules`' result with len(); the lattice
    entries must see a nonzero total."""
    report = _trace(tmp_path, "verify", "corpus", "--theorems", "L2.9,C3.16")
    assert report["calls"].get("modules.all_submodules", 0) > 0
    assert report["counts"]["all_submodules.lattice_size"] > 0
