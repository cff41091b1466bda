"""Keep one CPU from going idle, at the lowest scheduling priority.

    python3 perfbench/awake.py CPU SECONDS

On a virtual machine a halted vCPU can take 8-20 ms to wake up, and
every hop between the benchmark's processes (client, router, worker)
waits for a wake-up, so idle halts otherwise dominate the measured
latencies and make them swing from pass to pass.  This spinner is
``SCHED_IDLE``: the kernel runs it only when nothing else wants the
CPU and preempts it at once when anything does, so it keeps the CPU
awake without taking time from the program under test.  run.py
starts one per CPU for the length of a run and stops it afterwards; it
also exits on its own after SECONDS.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv) -> int:
    cpu, seconds = int(argv[0]), float(argv[1])
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
