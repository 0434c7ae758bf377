"""Host-speed calibration: a fixed piece of interpreter work timed between operations.

The machines this benchmark runs on are shared.  On the 2-core host it was
defined on, pure-Python code ran at one speed or at about 1.7 times that
time, switching every few seconds and differently on each CPU, while
big-integer arithmetic in C barely moved.  The raw time of a short
interpreter-bound operation moves with that as much as with the code.

``kernel`` does fixed interpreter work of the kind the library does
(``divmod`` digit loops, ``array`` and ``dict`` stores) and touches nothing
in ``zorbit``, so its time tracks the host alone.  An operation timed
between two kernel runs on the same CPU (on every CPU, for an operation
that uses all of them) is reported in *normalised seconds*: its time
scaled by ``REFERENCE_S`` over the mean of the two kernel times, which is
what it would take on a CPU where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array
from contextlib import contextmanager

# About the kernel's time on an uncontended CPU of the host the benchmark
# was defined on (x86-64, CPython 3.11.7); it fixes the normalised unit.
REFERENCE_S = 0.0015


def kernel() -> int:
    table = array("l", [0]) * 4096
    seen = {}
    for n in range(1000, 4000):
        m, total = n, 0
        while m:
            m, r = divmod(m, 7)
            total += r * r
        table[n & 4095] = total
        seen[n] = total
    return len(seen)


def kernel_time(repeats: int = 5) -> float:
    """Median time of ``repeats`` kernel runs: one run alone is too noisy."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_time_all_cpus() -> float:
    """Mean over the CPUs this process may use of ``kernel_time`` on each.

    For an operation that keeps every CPU busy; the CPUs of a shared host
    can differ in speed by half, so one CPU's time says little about them.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_time())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """Scale ``seconds`` measured between kernel times ``before`` and ``after``."""
    return seconds * REFERENCE_S * 2 / (before + after)


@contextmanager
def one_cpu():
    """Keep this process, and the processes it starts meanwhile, on one CPU.

    An operation and the kernel runs on either side of it then share a
    CPU, and the CPU cannot change in the middle of an operation.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
