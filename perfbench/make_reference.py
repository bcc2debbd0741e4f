"""Rewrite `reference/` from the checkout it runs in.

Usage, from the repository root::

    python3 perfbench/make_reference.py

Records what the program prints with default caps: `verify corpus`, the
catalog of every `catalog_stretch` pool module, and `module check` of the
`cap_bound` module, each under its pool key.  Run it only on a commit whose
output is known to be right; the benchmark treats these files as the truth.
Takes about a minute.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys

import workloads
from run import BENCH_DIR, child_env


def _pirick(args, env, root) -> str:
    done = subprocess.run([sys.executable, "-m", "pirick"] + args, env=env,
                          cwd=root, capture_output=True, text=True,
                          check=False)
    if done.returncode not in (0, 2) or done.stderr:
        raise SystemExit(f"pirick {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout


def main() -> int:
    root = pathlib.Path.cwd()
    env = child_env(root)
    work = root / ".bench_work" / f"reference-{os.getpid()}"
    ref = workloads.REFERENCE_DIR
    ref.mkdir(exist_ok=True)
    try:
        outputs = {"verify_corpus": _pirick(["verify", "corpus"], env, root)}
        for workload in ("catalog_stretch", "cap_bound"):
            pool = work / workload
            subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"),
                            "--pool", workload, str(pool)],
                           env=env, cwd=root, check=True)
            out_csv = pool / "catalog.csv"
            args = workloads.command(workload, pool / "inputs", out_csv)
            stdout = _pirick(args, env, root)
            outputs[workload] = (out_csv.read_text(encoding="utf-8")
                                 if workload == "catalog_stretch" else stdout)
        for workload, text in outputs.items():
            path = ref / workloads.REFERENCE_FILES[workload]
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(root)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
