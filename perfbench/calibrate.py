"""Segment-local calibration of timed work against a reference kernel.

A shared 2-vCPU virtual machine changes speed from second to second, so a
raw wall-clock latency mixes the program's cost with the host's mood.  The
benchmark therefore runs :func:`reference_kernel` -- fixed pure-Python
dict/set/tuple hashing churn that imports nothing from the program under
test -- at *quiescent points*, where no program thread is runnable, and
divides every timed segment by the median of the kernel runs just before
and just after it.  Multiplied by the kernel's nominal time, a calibrated
value reads as "seconds at reference speed": a host that is uniformly 2x
slower doubles both the kernel and the work and leaves it unchanged, while
a program that gets 2x slower doubles it.

The kernel never runs inside a timed interval, so it cannot absorb
contention that the program itself creates.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Loop count of one kernel run (6 to 10 ms on a shared 2-vCPU x86 VM).
KERNEL_ROUNDS = 12_000

#: Kernel runs per quiescent point; the median of the runs on both sides
#: of a segment scales it.
KERNEL_REPEATS = 3


def reference_kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed interpreter work: tuple building, dict and set hashing churn."""
    table: Dict[Tuple[int, int, int], int] = {}
    seen = set()
    acc = 0
    for index in range(rounds):
        key = (index & 1023, index % 97, index >> 4)
        table[key] = table.get(key, 0) + 1
        seen.add((key[1], index & 63))
        acc ^= hash(key)
        if index & 4095 == 4095:
            table.clear()
    return acc ^ len(table) ^ len(seen)


class Calibrator:
    """Collects raw timings per metric and scales each segment by its kernels.

    Usage: call :meth:`quiesce` at a point where the program is idle, time
    operations with :meth:`record` (or :meth:`timed`), call :meth:`quiesce`
    again, and so on.  Each :meth:`quiesce` closes the open segment: every
    sample recorded since the previous one is multiplied by
    ``nominal / median(kernel runs before + kernel runs after)``.
    """

    def __init__(
        self,
        nominal_ms: float,
        *,
        kernel: Callable[[], object] = reference_kernel,
        repeats: int = KERNEL_REPEATS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if nominal_ms <= 0:
            raise ValueError("the kernel's nominal time must be positive")
        self.nominal = nominal_ms / 1e3
        self.kernel = kernel
        self.repeats = repeats
        self.clock = clock
        #: Every kernel run, in seconds, in the order they ran.
        self.kernel_runs: List[float] = []
        #: Raw and calibrated samples per metric name, in seconds.
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.calibrated: Dict[str, List[float]] = defaultdict(list)
        self._before: Optional[List[float]] = None
        self._pending: List[Tuple[str, float]] = []

    def quiesce(self) -> None:
        """Run the kernel at an idle point and close the open segment."""
        runs = []
        for _ in range(self.repeats):
            start = self.clock()
            self.kernel()
            runs.append(self.clock() - start)
        self.kernel_runs.extend(runs)
        if self._pending:
            scale = self.nominal / statistics.median(self._before + runs)
            for name, seconds in self._pending:
                self.raw[name].append(seconds)
                self.calibrated[name].append(seconds * scale)
            self._pending = []
        self._before = runs

    def record(self, name: str, seconds: float) -> None:
        """Add one raw sample to the open segment."""
        if self._before is None:
            raise RuntimeError("quiesce() must run before the first timed sample")
        self._pending.append((name, seconds))

    def timed(self, name: str, operation: Callable[[], object]):
        """Run ``operation``, record its duration under ``name``, return its result."""
        start = self.clock()
        result = operation()
        self.record(name, self.clock() - start)
        return result

    @property
    def kernel_median_ms(self) -> float:
        """Median of every kernel run so far, in milliseconds."""
        return 1e3 * statistics.median(self.kernel_runs)


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def tail_supported(samples: List[float], fraction: float, beyond: int = 10) -> bool:
    """``True`` when at least ``beyond`` samples lie above the percentile."""
    return len(samples) * (1.0 - fraction) >= beyond
