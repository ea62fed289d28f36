"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from before the package is imported to the end of the
workload's set-up (scenario parsing or building, initial conditions), the
time a user waits before the first simulated step.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), ROOT / "perfbench_out")
print(repr(time.perf_counter() - t0))
