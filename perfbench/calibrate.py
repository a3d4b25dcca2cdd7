"""Machine-speed calibration of the benchmark's timings.

On a 2-vCPU virtual machine (Intel Xeon, 2.0 GHz) whose cores are shared
with other tenants, the same code runs up to 1.9x slower at some moments
than at others, in spells that last from a fraction of a second to minutes.
Run-level medians of raw wall times spread by 25-40% across runs.  So every
timed operation is sampled by a short fixed kernel that does not use
radshock: once just before the operation, every SAMPLE_INTERVAL_S of wall
time during it (from a SIGALRM handler, whose own time is taken out of the
operation's), and once just after.  The operation's time is reported at
the speed at which the kernel takes REF_KERNEL_S:

    normalized = raw * mean(REF_KERNEL_S / kernel time, over its samples)

The kernel mixes interpreted float arithmetic with small numpy operations,
as radshock's hot paths do.  There, the spread of run-level medians fell to
2-7%, and that of one repeated 25 ms shot from 9% with a 25 ms interval to
5% with 5 ms.  Set-up time is not normalized: a fresh interpreter's import
changed by 20% where the kernel changed by 80%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 4.0e-4
SAMPLE_INTERVAL_S = 0.005
# A kernel that ended this recently still describes the machine's speed, so
# back-to-back operations share one kernel between them.
_REUSE_S = 2e-3


def kernel() -> float:
    """Run the calibration kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 600):
        x = i * 1e-3
        acc += math.sqrt(x) * (x * x - 1.0) / (x + 1.0)
    a = np.arange(4.0).reshape(2, 2)
    for i in range(60):
        b = np.array([[i, 1.0], [2.0, i + 1.0]])
        acc += float((a @ b).sum())
    return time.perf_counter() - t0


class Calibrator:
    """Normalized durations of operations, from kernels sampled around and inside them.

    Uses SIGALRM and the real interval timer while an operation runs, so it
    must be used from the main thread of a process that uses neither.
    """

    def __init__(self):
        self.kernels: list[float] = []
        self._handler_s = 0.0
        self._depth = 0
        self._k_end = -1.0
        self._installed = False

    def _sample(self) -> None:
        self.kernels.append(kernel())
        self._k_end = time.perf_counter()

    def _on_alarm(self, _signum, _frame) -> None:
        if self._depth:  # an alarm already queued when the timer stopped is ignored
            t0 = time.perf_counter()
            self._sample()
            self._handler_s += time.perf_counter() - t0

    def begin(self) -> tuple[int, float, float]:
        """Start an operation; pass the returned mark to `end`."""
        if time.perf_counter() - self._k_end > _REUSE_S:
            self._sample()
        if not self._installed:
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._installed = True
        if self._depth == 0:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._depth += 1
        return len(self.kernels) - 1, self._handler_s, time.perf_counter()

    def end(self, mark: tuple[int, float, float]) -> float:
        """End the operation begun at `mark`; its normalized duration in seconds."""
        t_end = time.perf_counter()
        self._depth -= 1
        if self._depth == 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        first, handler_s, t0 = mark
        raw = t_end - t0 - (self._handler_s - handler_s)
        self._sample()
        return raw * statistics.fmean(REF_KERNEL_S / k for k in self.kernels[first:])
