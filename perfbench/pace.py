"""The host's speed, sampled while a pass runs.

The reference box is shared, and its speed drifts by up to 2x in phases that
last from seconds to minutes, longer than a run.  A Pace samples that speed
during the timed region: every INTERVAL seconds a timer signal runs a fixed
pure-Python kernel, restated here so that no change to the package can move
it, and records how long the kernel took.  Signal handlers run between
bytecodes, so the samples fall inside the package's calls too, spread evenly
over the pass.

    with Pace() as pace:
        ... timed pass ...
    pace.factor()   # mean of KERNEL_S / kernel time; < 1 on a slow host

A pass time multiplied by `factor()` is that time at the host speed where
the kernel takes KERNEL_S.  `speed()` gives the same factor from a few
kernel runs in a row, for a process that is only waiting, such as the
parent of the set-up interpreters.

The samples are evenly spaced in wall time, and a pass's time is the
integral of the host's slowness over it, so the factor is the mean speed,
not the median.  A median jumps to whichever speed held for just over half
the pass and overcorrects a pass that was slow in part.  The kernel adds
about 1 % to a pass, at every commit alike.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.2
KERNEL_S = 0.00125  # the kernel's time on the reference box, the speed wall_s is scaled to
_WORD = tuple((i * 7 + i // 5) % 3 for i in range(160))


def kernel() -> int:
    """Period checks over a fixed word, with dict and tuple traffic: the kind
    of interpreter work the package's scans do."""
    hits = 0
    seen: dict = {}
    s = _WORD
    for p in range(1, 48):
        run = 0
        for i in range(len(s) - p):
            if s[i] == s[i + p]:
                run += 1
            else:
                key = (p, run)
                seen[key] = seen.get(key, 0) + 1
                run = 0
        hits += len(seen)
    return hits


def _mean_speed(times) -> float:
    return statistics.fmean(KERNEL_S / t for t in times)


def speed(repeats: int = 20) -> float:
    """The host speed now, from `repeats` kernel runs in a row."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return _mean_speed(times)


class Pace:
    """Samples the host speed while enabled; a disabled Pace does nothing
    and its factor is 1.0."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Pace":
        if not self.enabled:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL / 2, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Mean of KERNEL_S over each kernel time; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        return _mean_speed(self.samples)
