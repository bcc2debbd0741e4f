"""Speed gauge: a fixed pure-Python loop that counts the units it completes.

Usage (started by `run.py`, not by hand)::

    python3 perfbench/speed.py

The gauge lowers its priority by NICE, prints `ready`, and then runs
`unit()` until SIGTERM or until its parent is gone.  On SIGUSR1 it prints
`<units done> <CPU seconds of this process>`.  `run.py` pins the gauge to
the CPU on which it runs the measured `pirick` processes, so the two share
that CPU's time slices, and units per gauge CPU second between two readings
is the speed that CPU ran at while the measured process ran.  At NICE the
gauge gets about a quarter of the shared CPU, so the measured process runs
about a third longer in wall time.
"""

from __future__ import annotations

import os
import signal
import sys
import time

NICE = 5
UNITS = 0
STOPPED = False


def unit(table: dict) -> int:
    """About 7 microseconds of dict, tuple and integer work."""
    total = 0
    for i in range(50):
        table[i] = (i, total)
        total += len(table[i])
    return total


def _report(_signum, _frame):
    sys.stdout.write(f"{UNITS} {time.process_time()!r}\n")
    sys.stdout.flush()


def _stop(_signum, _frame):
    global STOPPED
    STOPPED = True


def main() -> int:
    global UNITS
    os.nice(NICE)
    parent = os.getppid()
    signal.signal(signal.SIGUSR1, _report)
    signal.signal(signal.SIGTERM, _stop)
    print("ready", flush=True)
    table = {}
    while not STOPPED:
        unit(table)
        UNITS += 1
        if not UNITS & 4095 and os.getppid() != parent:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
