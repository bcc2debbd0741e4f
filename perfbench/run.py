"""The pirick benchmark: one workload, fresh serial `pirick` processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace T

Workloads (see `workloads.py`): `verify_corpus`, `catalog_stretch`,
`cap_bound`.  One client runs a closed loop: each sample is a fresh `pirick`
process started after the previous one ended, for about `--seconds` (the
whole number of samples nearest to it, at least one).  Every sample runs
with PIRICK_CAPS unset, `--jobs` left at 1 and BLAS/OpenMP threads at 1,
and its output is checked against `reference/`.

Set-up probes run before the first sample and after each one.  The run
pins itself and every process it starts to one CPU.  With `--trace 0` a
speed gauge (`speed.py`) shares that CPU with each measured process, and
the process's CPU time is scaled by the speed the gauge saw meanwhile to
CPU seconds at the reference speed REF_RATE: on a host whose CPU speed
changes from second to second with other tenants' load, that time is
steady where wall time is not.  `--trace 0` reports the end-to-end metrics
(medians over the samples and over the probes); `--trace 1` alternates
untraced samples with samples run under `trace.py`, without the gauge, and
reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  The exit code
is 1 when the output check fails (`correct` is false) and 2 outside a pirick
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

BENCH_DIR = workloads.BENCH_DIR
SETUP_REPS = 2          # set-up probes before the first sample and after each
CHILD_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0     # start no sample that would end past this
REF_RATE = 200_000.0    # reference speed: gauge units per CPU second
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Sample:
    """One finished child process."""

    def __init__(self, code, wall, cpu, rss_mb, stdout, stderr, rate=None):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.rate = rate      # gauge units per CPU second while it ran

    @property
    def ref_cpu(self) -> float:
        """CPU seconds at the reference speed (needs the gauge)."""
        return self.cpu * self.rate / REF_RATE


class Gauge:
    """The `speed.py` process that shares the measured CPU; see that file."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speed.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self._line()            # "ready": its signal handlers are in place

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed gauge ended early")
        return line

    def read(self) -> tuple:
        """(units done, gauge CPU seconds) now."""
        self.proc.send_signal(signal.SIGUSR1)
        units, cpu = self._line().split()
        return int(units), float(cpu)

    def close(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env(root: pathlib.Path) -> dict:
    env = dict(os.environ)
    env.pop("PIRICK_CAPS", None)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, work: pathlib.Path, tag: str,
              gauge: Gauge | None = None) -> Sample:
    """Run one process; wall time from fork to reap, rusage of that child,
    and, with a gauge, the gauge's speed over the child's lifetime."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        before = gauge.read() if gauge else None
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        after = gauge.read() if gauge else None
    rate = None
    if gauge:
        gauge_cpu = after[1] - before[1]
        if gauge_cpu <= 0:
            raise RuntimeError("the speed gauge got no CPU time")
        rate = (after[0] - before[0]) / gauge_cpu
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0,
                  out_path.read_text(encoding="utf-8", errors="replace"),
                  err_path.read_text(encoding="utf-8", errors="replace"),
                  rate)


class Run:
    """Inputs, samples and checks of one benchmark run."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = child_env(root)
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.inputs = root / "corpus"
        self.manifest = {}
        self.out_csv = self.work / "catalog.csv"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_output = None
        self.first_check = None
        self.gauge = None

    def _child(self, args, tag, gauge=None) -> Sample:
        self.count += 1
        return run_child([sys.executable] + args, self.env, self.work,
                         f"{self.count:03d}-{tag}", gauge)

    def prepare(self):
        self.work.mkdir(parents=True)
        if self.workload != "verify_corpus":
            gen = self._child([str(BENCH_DIR / "gen.py"), self.workload,
                               str(self.seed), str(self.work)], "gen")
            if gen.code != 0:
                raise RuntimeError(f"input generation failed:\n{gen.stderr}")
            self.inputs = self.work / "inputs"
            self.manifest = json.loads(
                (self.work / "manifest.json").read_text(encoding="utf-8"))
        if not self.trace:
            self.gauge = Gauge()

    def setup_probes(self) -> list:
        code = ("import sys, pirick.cli, pirick.io; "
                "pirick.io.load_dir(sys.argv[1])")
        probes = []
        for _ in range(SETUP_REPS):
            s = self._child(["-c", code, str(self.inputs)], "setup",
                            self.gauge)
            if s.code != 0:
                raise RuntimeError(f"set-up probe failed:\n{s.stderr}")
            probes.append(s)
        return probes

    def sample(self, traced: bool):
        """One CLI process, checked; returns (Sample, trace report or None)."""
        args = workloads.command(self.workload, self.inputs, self.out_csv)
        trace_path = self.work / f"trace-{self.count + 1:03d}.json"
        if traced:
            argv = [str(BENCH_DIR / "trace.py"), str(trace_path), "--"] + args
        else:
            argv = ["-m", "pirick"] + args
        s = self._child(argv, "traced" if traced else "cli", self.gauge)
        output = s.stdout
        if self.workload == "catalog_stretch" and self.out_csv.exists():
            output = self.out_csv.read_text(encoding="utf-8")
            self.out_csv.unlink()
        self._check(s, output)
        report = None
        if traced and trace_path.exists():
            report = json.loads(trace_path.read_text(encoding="utf-8"))
        return s, report

    def _check(self, s: Sample, output: str):
        ok_codes = (0, 2) if self.workload == "verify_corpus" else (0,)
        crashed = s.code not in ok_codes or "Traceback" in s.stderr
        if self.first_output is None and not crashed:
            self.first_output = output
        same = output == self.first_output
        chk = workloads.check_output(
            self.workload, output if not crashed and same else "",
            self.manifest)
        if crashed:
            self.problems.append(f"exit {s.code}: {s.stderr.strip()[-300:]}")
        elif not same:
            self.problems.append("output differs from the first sample")
        if self.first_check is None and not crashed:
            self.first_check = chk
        self.attempted += chk.attempted
        self.failed += chk.failed
        self.problems.extend(chk.problems)

    def loop(self):
        """Yields a traced flag per sample, alternating in a trace run.

        Stops at the whole sample that ends nearest to `seconds` (at least
        one sample; one untraced and one traced in a trace run), and never
        starts a sample that would end past RUN_BUDGET_S.
        """
        start = time.perf_counter()
        longest = 0.0
        n = 0
        while True:
            elapsed = time.perf_counter() - start
            if n >= (2 if self.trace else 1) and (
                    elapsed + longest / 2 >= self.seconds
                    or elapsed + longest > RUN_BUDGET_S):
                return
            t0 = time.perf_counter()
            yield self.trace and n % 2 == 1
            longest = max(longest, time.perf_counter() - t0)
            n += 1

    def byte_identical(self) -> bool:
        return self.first_output == workloads.expected_output(
            self.workload, self.manifest)

    def cleanup(self):
        if self.gauge:
            self.gauge.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setups, samples) -> dict:
    chk = run.first_check
    skipped_share = chk.skipped / chk.cells if chk and chk.cells else 0.0
    values = {
        "cpu_ref_s": statistics.median(s.ref_cpu for s in samples),
        "setup_s": statistics.median(s.ref_cpu for s in setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "skipped_share": skipped_share,
        "ok_share": 1.0 - run.failed / max(run.attempted, 1),
    }
    return {name: _metric(values[name], unit)
            for name, unit, _ in workloads.END_TO_END}


def per_layer(run: Run, plain, traced) -> dict:
    values = [workloads.layer_values(r) for _, r in traced if r is not None]
    if len(values) < len(traced):
        run.problems.append("a traced sample wrote no trace")
    merged = {}
    for name, unit, _ in workloads.per_layer():
        if name.startswith("trace."):
            continue
        seen = [v[name] for v in values]
        if unit == "s":
            merged[name] = statistics.median(seen) if seen else 0.0
        else:
            if len(set(seen)) > 1:
                run.problems.append(f"{name} differs between traced "
                                    f"samples: {seen}")
            merged[name] = seen[0] if seen else 0
    traced_wall = statistics.median(s.wall for s, _ in traced)
    merged["trace.wall_s"] = traced_wall
    merged["trace.overhead_s"] = traced_wall - statistics.median(
        s.wall for s in plain)
    return {name: _metric(merged[name], unit)
            for name, unit, _ in workloads.per_layer()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "pirick" / "cli.py").is_file() \
            or not (root / "corpus").is_dir():
        print("perfbench: run from the root of a pirick checkout "
              "(src/pirick and corpus/ are missing)", file=sys.stderr)
        return 2

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.prepare()
        setups = run.setup_probes()
        plain, traced = [], []
        for is_traced in run.loop():
            s, report = run.sample(is_traced)
            (traced if is_traced else plain).append((s, report))
            setups += run.setup_probes()
        plain = [s for s, _ in plain]
        if args.trace:
            metrics = per_layer(run, plain, traced)
        else:
            metrics = end_to_end(run, setups, plain)
        identical = run.byte_identical()
    finally:
        run.cleanup()

    if args.workload == "verify_corpus":
        seed_note = "the corpus is fixed, so the seed has no effect"
    else:
        seed_note = "the seed picks instance names and any band member"
    print(f"# workload {args.workload} seed {args.seed} ({seed_note})")
    why = {w["name"]: w["why"] for w in workloads.spec()["workloads"]}
    print(f"# why: {why[args.workload]}")
    print(f"# samples: {len(plain)} untraced, {len(traced)} traced; "
          f"set-up probes: {len(setups)}")
    print(f"# failed_share {run.failed / max(run.attempted, 1):.6f} "
          f"({run.failed}/{run.attempted} operations)")
    print(f"# byte_identical_with_reference: {'yes' if identical else 'no'}")
    print(f"# pinned to CPU {cpu}")
    print("# sample wall_s: " + " ".join(f"{s.wall:.3f}" for s in plain))
    print("# sample cpu_s: " + " ".join(f"{s.cpu:.3f}" for s in plain))
    print("# set-up probe wall_s: "
          + " ".join(f"{s.wall:.3f}" for s in setups))
    if run.gauge:
        print("# sample gauge rate: "
              + " ".join(f"{s.rate:.0f}" for s in plain))
    for problem in run.problems[:10]:
        print(f"# problem: {problem}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
