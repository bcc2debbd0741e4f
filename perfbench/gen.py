"""Seeded input generator for the `catalog_stretch` and `cap_bound` workloads.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/gen.py WORKLOAD SEED OUT_DIR
    python3 perfbench/gen.py --pool WORKLOAD OUT_DIR

Inputs are built only through public `pirick.families`, `pirick.modules`
and `pirick.io.write_*`, and written as `.ring`/`.mod` files in
`OUT_DIR/inputs`; the program under test receives only that directory.
`OUT_DIR/manifest.json` maps each instance name to its pool key, which names
its reference entry.

The seed chooses instance-name suffixes and (for `catalog_stretch`) the
prime of the lattice-capped module.  Names start with the pool key, so the
program processes the modules in the same order for every seed: peak memory
depends on that order.  It never changes the amount of work outside the
stated bands (see `workloads.py`).  `--pool` writes every pool entry under
its pool key, which is how the reference is made.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from pirick import families, modules
from pirick.io import write_module, write_ring

import workloads


def _module(key: str, name: str):
    """The module of a pool key, named `name`."""
    if key in workloads.CATALOG_POOL or key in workloads.CAP_POOL:
        base, rank = key.split("_free")
        ring = families.zmod(int(base[1:]))
        return modules.free_module(ring, int(rank), name=name)
    if key.endswith("_reg"):
        ring = families.zmod(int(key[1:-len("_reg")]))
        return modules.ring_as_module(ring, name=name)
    raise ValueError(f"unknown pool key {key!r}")


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))


def seeded_keys(workload: str, seed: int) -> dict:
    """Instance name -> pool key for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog_stretch":
        p = rng.choice(workloads.LATTICE_CAPPED_PRIMES)
        keys = list(workloads.CATALOG_POOL) + [f"z{p}_reg"]
    elif workload == "cap_bound":
        keys = list(workloads.CAP_POOL)
    else:
        raise ValueError(f"{workload} takes no generated inputs")
    return {f"{key}_{_tag(rng)}": key for key in keys}


def pool_keys(workload: str) -> dict:
    if workload == "catalog_stretch":
        keys = list(workloads.CATALOG_POOL) + [
            f"z{p}_reg" for p in workloads.LATTICE_CAPPED_PRIMES]
    else:
        keys = list(workloads.CAP_POOL)
    return {key: key for key in keys}


def write_inputs(names: dict, out: pathlib.Path) -> None:
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, key in sorted(names.items()):
        module = _module(key, name)
        write_ring(module.ring, inputs / f"{module.ring.name}.ring")
        write_module(module, inputs / f"{name}.mod")
    (out / "manifest.json").write_text(json.dumps(names, sort_keys=True),
                                       encoding="utf-8")


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--pool":
        write_inputs(pool_keys(argv[1]), pathlib.Path(argv[2]))
    elif len(argv) == 3:
        write_inputs(seeded_keys(argv[0], int(argv[1])), pathlib.Path(argv[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
