"""Reference computation that normalizes every time the benchmark reports.

On small shared hosts the speed of the CPU drifts by tens of percent over
seconds, because other tenants share the cores.  On a 2-vCPU Xeon the
median time of one stream chunk moved between 28 and 51 ms across 10 s
windows, while its ratio to this reference computation, timed right
after it, stayed within 3 %.  So each measured time t is reported as
t * NOMINAL_S / r, where r is the time of this computation measured next
to t: the time the operation would take on a host where the reference
takes NOMINAL_S.

The computation mixes Python float arithmetic with numpy calls on 3-element
arrays, like the library, and uses nothing from the library.  Changing it
or NOMINAL_S changes every reported time, so neither may change without a
new baseline.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Median time of _work on the 2-vCPU Xeon host the benchmark was defined on.
NOMINAL_S = 0.0132
# Median time of the process start of spawn_factor on that host.
NOMINAL_SPAWN_S = 0.165


def _work() -> float:
    acc = 0.0
    a = np.array([0.3, -0.2, 0.5])
    for i in range(400):
        b = np.array([0.1 * (i % 7), 0.2, -0.3])
        acc += float(np.dot(a, b)) + math.sqrt(1.0 + i) * math.exp(-0.001 * i)
        acc += float(np.linalg.norm(np.cross(a, b)))
    return acc


def factor() -> float:
    """NOMINAL_S divided by the time of one reference computation now."""
    t0 = time.perf_counter()
    _work()
    return NOMINAL_S / (time.perf_counter() - t0)


def spawn_factor() -> float:
    """NOMINAL_SPAWN_S divided by the time of starting a Python process
    that imports numpy, now.  A process start tracks the cost of other
    process starts (exec, page faults, reading modules) much more closely
    than _work does, so it is the reference of workloads whose operations
    are process starts."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return NOMINAL_SPAWN_S / (time.perf_counter() - t0)


def for_workload(name: str):
    """The reference of a workload's operations and set-up."""
    return spawn_factor if name == "cli-oneshot" else factor
