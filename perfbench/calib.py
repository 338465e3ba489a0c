"""Host-speed calibration.

The machines this benchmark runs on share their cores with other work, and
the speed of the same code drifts by up to ~1.5x within minutes. Each timed
command is paired with a fixed kernel and its time is divided by the host
factor ``kernel time / reference``, so the reported figures read as seconds
on a host that runs the kernel in the reference time; the raw figures are
printed too. Two kernels, one per kind of work timed:

* ``kernel_seconds``, run in the workload process right before and after
  the command, has the mix of the fedgames hot paths: numpy Generator
  construction, small matrix products, interpreted arithmetic;
* ``START_COMMAND``, a bare interpreter that imports numpy, is run as its
  own process next to each set-up process, which is mostly process start
  and imports.
"""

from __future__ import annotations

import sys
import time

import numpy as np

REFERENCE_S = 0.05
START_COMMAND = [sys.executable, "-c", "import numpy"]
START_REFERENCE_S = 0.12


def kernel_seconds() -> float:
    """Wall time of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += np.random.default_rng([1, 2, i]).standard_normal(4).sum()
    a = np.ones((4, 4))
    for _ in range(3000):
        a = a @ a * 0.25
    x = 0
    for i in range(30000):
        x += i * i % 7
    return time.perf_counter() - start
