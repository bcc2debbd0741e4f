"""Run one `pirick` command with every public function of the package traced.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/trace.py OUT.json -- verify corpus

The wrappers are installed from this file only; the package itself is not
changed.  Every public module-level function of every `pirick` module is
replaced, wherever it is bound (``from .homs import end_ring`` re-binds
`end_ring` in `properties`, `theorems` and `cli`), and so are the values of
`properties.DECIDERS` and each `theorems.REGISTRY[id].check`.

Each call is a span with a parent (the innermost open span).  Spans are
aggregated in memory by name and written as JSON when the command ends.  A
span's self time is its duration minus the durations of its child spans.
Deciders and registry entries also get a net time: duration minus the End(M)
and lattice builds (`end_ring`, `all_submodules`) below them, so the first
caller is not charged for shared builds.  Counters read only public fields
and public functions; no `_memo` is read.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import types

import pirick
from pirick.errors import SizeCapExceeded

_CAP_OF_WHAT = {
    "hom-set enumeration": "hom",
    "module construction": "construct",
    "ring construction": "construct",
    "submodule lattice": "lattice",
    "matrix ring": "matrix_check",
    "rank-2 endomorphism ring": "matrix_check",
}


def cap_of(what: str) -> str:
    """Name of the `Caps` field behind a SizeCapExceeded `what` string."""
    if what.startswith("matrix ring over "):      # rings.matrix_ring
        return "construct"
    return _CAP_OF_WHAT.get(what, "unknown")


def structure_key(module) -> tuple:
    """A module's structure from public fields: ring and module tables."""
    ring = module.ring
    return (ring.add_group.factors, ring.one,
            tuple(sorted(ring.constants.items())),
            module.add_group.factors, tuple(sorted(module.constants.items())))


class Tracer:
    """Span stack plus aggregates; all state lives on one instance."""

    SHARED = ("homs.end_ring", "modules.all_submodules")

    def __init__(self):
        # open frames: [name, start, child_s, shared_s, child names]
        self.stack = []
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.net_s = {}
        self.counts = {
            "end_ring.builds": 0, "end_ring.cap_failures": 0,
            "end_ring.check_pairs": 0, "hom_set.candidates": 0,
            "hom_set.kept": 0, "group_embedding.labels": 0,
            "all_submodules.lattice_size": 0,
        }
        self.structures = set()
        self.skips = {}
        self.verdicts = {}
        self.module_generators = None

    def wrap(self, name, fn, on_exit=None, net=False):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0, 0.0, set()]
            stack.append(frame)
            frame[1] = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self._close(frame, dur, net)
                if on_exit is not None:
                    on_exit(frame, args, result, exc)

        return functools.wraps(fn)(traced)

    def _close(self, frame, dur, net):
        name = frame[0]
        parent = self.stack[-1] if self.stack else None
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
        if net:
            self.net_s[name] = self.net_s.get(name, 0.0) + dur - frame[3]
        if parent is not None:
            parent[2] += dur
            parent[3] += dur if name in self.SHARED else frame[3]
            parent[4].add(name)

    # -- counters ---------------------------------------------------------

    def end_ring_exit(self, frame, args, result, exc):
        if "homs.hom_set" not in frame[4]:
            return                                    # served from a cache
        c = self.counts
        c["end_ring.builds"] += 1
        self.structures.add(structure_key(args[0]))
        if exc is not None:
            if isinstance(exc, SizeCapExceeded):
                c["end_ring.cap_failures"] += 1
        else:
            c["end_ring.check_pairs"] += result.ring.order ** 2

    def hom_set_exit(self, frame, args, result, exc):
        if exc is None:
            domain, codomain = args[0], args[1]
            gens = self.module_generators(domain)
            self.counts["hom_set.candidates"] += codomain.order ** len(gens)
            self.counts["hom_set.kept"] += len(result)

    def group_embedding_exit(self, frame, args, result, exc):
        self.counts["group_embedding.labels"] += len(args[0])

    def all_submodules_exit(self, frame, args, result, exc):
        if exc is None:
            self.counts["all_submodules.lattice_size"] += len(result)

    def _top_level(self) -> bool:
        """True when no analysis or registry entry encloses the caller."""
        return not any(f[0] == "properties.analyze"
                       or f[0].startswith("theorems.entry.")
                       for f in self.stack)

    def analyze_exit(self, frame, args, result, exc):
        if exc is None and self._top_level():
            for prop, status in result.statuses.items():
                if status == "skipped":
                    self._skip(result.witnesses[prop])

    def verify_all_exit(self, frame, args, result, exc):
        if exc is None:
            for v in result:
                self.verdicts[v.status] = self.verdicts.get(v.status, 0) + 1
                if v.status == "skipped":
                    self._skip(v.witness)

    def _skip(self, witness: str):
        what = witness[4:] if witness.startswith("cap:") else witness
        cap = cap_of(what)
        self.skips[cap] = self.skips.get(cap, 0) + 1

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["end_ring.distinct"] = len(self.structures)
        return {
            "calls": self.calls, "total_s": self.total_s,
            "self_s": self.self_s, "net_s": self.net_s,
            "counts": counts, "skips": self.skips, "verdicts": self.verdicts,
        }


def _pirick_modules() -> list:
    names = sorted(m.name for m in pkgutil.iter_modules(pirick.__path__))
    return [importlib.import_module(f"pirick.{n}") for n in names
            if n != "__main__"]


def install(tracer: Tracer) -> None:
    """Wrap every public pirick function, DECIDERS value and registry check."""
    mods = _pirick_modules()
    by_name = {m.__name__: m for m in mods}
    hooks = {
        "homs.end_ring": tracer.end_ring_exit,
        "homs.hom_set": tracer.hom_set_exit,
        "groups.group_embedding": tracer.group_embedding_exit,
        "modules.all_submodules": tracer.all_submodules_exit,
        "properties.analyze": tracer.analyze_exit,
        "theorems.verify_all": tracer.verify_all_exit,
    }
    tracer.module_generators = by_name["pirick.modules"].module_generators

    properties = by_name["pirick.properties"]
    decider_name = {fn: f"properties.decider.{prop}"
                    for prop, fn in properties.DECIDERS.items()}

    wrapped = {}
    for mod in mods:
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            short = mod.__name__[len("pirick."):]
            name = decider_name.get(fn, f"{short}.{attr}")
            wrapped[fn] = tracer.wrap(name, fn, hooks.get(name),
                                      net=fn in decider_name)
    for prop, fn in properties.DECIDERS.items():
        properties.DECIDERS[prop] = wrapped[fn]
    for mod in mods:
        for attr, fn in list(vars(mod).items()):
            if isinstance(fn, types.FunctionType) and fn in wrapped:
                setattr(mod, attr, wrapped[fn])
    for tid, entry in by_name["pirick.theorems"].REGISTRY.items():
        entry.check = tracer.wrap(f"theorems.entry.{tid}", entry.check,
                                  net=True)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace.py OUT.json -- PIRICK_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from pirick import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
