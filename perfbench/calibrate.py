"""Host-speed calibration: a fixed slice of work timed between tasks.

The shared host this benchmark is built for changes speed by up to ~2x over
seconds to minutes (the slowdown is per cycle, not stolen time), so a raw
wall time says as much about the host's state as about the program.  Every
timed task sits between two groups of calibration slices (one slice, or
more after a long task, to about a tenth of its time), and its time is
rescaled by how fast the slices on both sides ran::

    reference seconds = measured seconds * REF_SLICE_S / mean slice time

Rescaling each task by its own neighbours follows the host through a
repetition; one factor per repetition does not, when a single long task
takes half of it.  A time in reference seconds is what the task would take
on a host that runs one slice in ``REF_SLICE_S``.

The slice mixes the kinds of work the workloads do: interpreted Python
arithmetic, numpy calls on tiny arrays, numpy on 16k-element complex arrays
and streaming passes over 4 MB arrays (the moment quadrature's zeta sums are
bound by memory traffic, and a slice without that part over-corrects them).
It uses nothing from xishift, so it costs the same on every commit of the
program.
"""

from __future__ import annotations

import time

import numpy as np

REF_SLICE_S = 0.010  # the reference host runs one slice in 10 ms
SHARE = 0.1  # slices after a task: at least one, until they take this share of its time

_TINY = np.linspace(0.1, 1.0, 8) + 0.5j
_WIDE = np.linspace(0.1, 50.0, 16384) + 0.5j
_LONG = np.linspace(0.1, 50.0, 1 << 18) + 0.5j
_LONG_OUT = np.empty_like(_LONG)


def _python(n: int) -> float:
    s = 0.0
    for i in range(n):
        s += (i % 7) * 0.5 + i * 1e-9
    return s


def _numpy_tiny(n: int) -> complex:
    y = _TINY
    for _ in range(n):
        y = np.exp(_TINY * 1.1) + np.log(_TINY)
    return complex(y[0])


def _numpy_wide(n: int) -> complex:
    total = 0j
    for _ in range(n):
        total += np.exp(-_WIDE * np.log(_WIDE + 1.0)).sum()
    return total


def _numpy_long(n: int) -> complex:
    total = 0j
    for _ in range(n):
        np.multiply(_LONG, 1.0001, out=_LONG_OUT)
        np.add(_LONG_OUT, _LONG, out=_LONG_OUT)
        total += _LONG_OUT.sum()
    return total


def time_slice() -> float:
    """Run one calibration slice (~3 ms of each kind) and return its seconds."""
    t0 = time.perf_counter()
    _python(30000)
    _numpy_tiny(1000)
    _numpy_wide(3)
    _numpy_long(4)
    return time.perf_counter() - t0


def slices_after(task_s: float) -> list[float]:
    """Times of the slices run after a task of ``task_s`` seconds."""
    times = [time_slice()]
    while sum(times) < SHARE * task_s:
        times.append(time_slice())
    return times


def factor(slice_times: list[float]) -> float:
    """Scale from measured to reference seconds for times taken among these slices."""
    return REF_SLICE_S * len(slice_times) / sum(slice_times)
