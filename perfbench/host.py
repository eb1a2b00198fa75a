"""Host speed, measured with a fixed kernel during every run.

The shared host this benchmark was built on runs the same Python code at
speeds that differ by 20-30% from one minute to the next, and every time
of a run moves together with that speed (see README.md).  A measuring run
therefore times a small kernel of pure-Python work again and again
between the items of its passes, and reports its times as seconds on a
reference host: ``wall * reference / mean(kernel times)``, with the kernel
times taken during the same pass.  A pass's time is the time-average of
the host's slowness over the pass, so the normaliser is the mean of the
kernel samples spread evenly over it.

The kernels are benchmark code, so a change to syzkit cannot move them.
The three in-process workloads share one kernel: on the same runs, no
workload's own kernel tracked the host reliably better (README.md).  The
CLI workload's work runs in child processes, mostly starting them, so its
kernel starts one.
"""

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracle

# Least time between two kernel samples during the passes: dense enough for
# hundreds of samples a run, at a cost of a few per cent of the run's time.
INTERVAL_S = 0.075
# The CLI's kernel starts a process; one sample every other command or so.
CLI_INTERVAL_S = 0.3

_ZONOTOPE = oracle.minkowski([[(0, 0), (2, 0)], [(0, 0), (0, 2)], [(0, 0), (2, 2)], [(0, 0), (2, -2)]], 2)
_WALLS = ([(1, 0)], [(0, 1)], [(1, 1)], [(1, 0), (1, 1)], [(1, -1)], [(0, 1), (1, 1)])
_FACTORS = [oracle.wall_factor(g) for g in _WALLS + _WALLS[:3]]
_OCTAGON = oracle.hull([(0, 0), (4, -2), (10, 0), (12, 4), (10, 10), (4, 12), (0, 10), (-2, 4)])


def python_kernel():
    """The in-process workloads' kinds of work, in pure Python: a search
    with exact Minkowski sums, products of Laurent polynomials with Fraction
    coefficients, and Fraction weights at lattice points."""
    for summands in oracle.decompose_by_triangles(_ZONOTOPE):
        oracle.minkowski((oracle.simplex_vertices(s) for s in summands), 2)
    g = {(0, 0): Fraction(1)}
    for f in _FACTORS:
        g = oracle.multiply(g, {e: Fraction(c, 1 + sum(e) % 3) for e, c in f.items()})
    gamma, alpha = Fraction(3, 2), (Fraction(2, 3), Fraction(5, 4))
    return sum(gamma * alpha[0] ** x * alpha[1] ** y for x, y in oracle.lattice_points(_OCTAGON))


def start_kernel():
    """A fresh interpreter importing the standard modules syzkit's CLI uses:
    a CLI item's start-up, without syzkit."""
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json, re"],
                   check=True)


# Per workload: its kernel, the kernel's time on the reference host, and the
# least time between two samples.  The reference times are fixed; they are
# close to the kernels' mean times during runs on the 2-CPU host the
# benchmark was built on (Python 3.11.7): 7 to 8 ms and 90 to 105 ms.
PYTHON = (python_kernel, 0.0070, INTERVAL_S)
KERNELS = {"decompose": PYTHON, "mirror": PYTHON, "transition": PYTHON,
           "cli": (start_kernel, 0.09, CLI_INTERVAL_S)}


def kernel_time(kernel):
    """One timed kernel run; the collector stays off so that the heap of the
    process being measured does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """A workload's kernel, sampled between operations at most once per
    interval."""

    def __init__(self, workload):
        self._kernel, self._reference, self._interval = KERNELS[workload]
        self.samples = []
        self._next = 0.0

    def sample(self, force=False):
        if force or time.perf_counter() >= self._next:
            self.samples.append(kernel_time(self._kernel))
            self._next = time.perf_counter() + self._interval

    def factor(self, start=0):
        """Multiply a wall time by this to get reference seconds, from the
        samples since the ``start``-th (the last one if there are none)."""
        return self._reference / statistics.fmean(self.samples[start:] or self.samples[-1:])
