"""Calibrated time: wall time rescaled by the machine's speed around it.

On a shared host the speed of pure-Python code drifts by up to 40% over
seconds to minutes, and averaging over a run does not remove it: a fixed
loop timed back to back for 240 s averaged 12.2 ms to 18.3 ms over 5 s
windows, and 13.4 ms to 16.6 ms over 40 s windows.  So a fixed kernel
(counting the solutions of 6 queens, about 0.1 ms, sharing no code with
naecut and allocating almost nothing) is timed SAMPLES times just before
and just after each measured interval, never inside one.  An interval of
raw length t, around which the kernel took k (median of its samples),
reads t * (KERNEL_REF_S / k) ** SENSITIVITY.  SENSITIVITY is the log-log
slope of workload time on kernel time across the drift; over ten runs of
each workload it was 0.88 (sweep), 0.72 (nae_threshold), 0.64
(reduce_large) and 0.83 (cut_ladder).  bench/README.md has the runs.
"""

from __future__ import annotations

import statistics
import time

KERNEL_REF_S = 1e-4
SENSITIVITY = 0.75
SAMPLES = 3
MIN_SAMPLES = 8


def kernel(n: int = 6) -> int:
    """Number of ways to place n non-attacking queens, by backtracking."""
    cols, up, down = [False] * n, [False] * (2 * n), [False] * (2 * n)

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for c in range(n):
            if not (cols[c] or up[row + c] or down[row - c + n]):
                cols[c] = up[row + c] = down[row - c + n] = True
                found += place(row + 1)
                cols[c] = up[row + c] = down[row - c + n] = False
        return found

    return place(0)


class SpeedClock:
    """Kernel timings taken between measured intervals."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self) -> None:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        """Call just before a measured interval starts."""
        self._sample()
        return len(self.samples) - SAMPLES

    def scale(self, mark: int) -> float:
        """Call just after the interval begun at `mark` ends: the factor from
        raw to calibrated time, from the samples taken around the interval,
        widened to the last MIN_SAMPLES."""
        self._sample()
        recent = self.samples[max(0, min(mark, len(self.samples) - MIN_SAMPLES)):]
        return (KERNEL_REF_S / statistics.median(recent)) ** SENSITIVITY
