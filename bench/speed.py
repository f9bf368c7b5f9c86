"""A reference kernel that tracks the machine's speed while a run measures.

On a shared host the interpreter's speed drifts by tens of percent within a
minute, which would swamp any change to groupkit. So every duration the
benchmark reports is scaled by REF_S / r, where r is the time of the
reference kernel measured next to it. The metrics then read as seconds on a
machine that runs the kernel in REF_S. The kernel is plain-Python table
arithmetic that calls no groupkit code, so no change to groupkit moves it.
run.py also prints the unscaled medians.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REF_S = 0.0003
WINDOW_S = 0.5
INTERVAL_S = 0.02  # CPU time between two kernel timings in SpeedLog


def _kernel() -> int:
    n = 48
    rows = [tuple((a * 7 + b) % n for b in range(n)) for a in range(n)]
    seen = set()
    for row in rows:
        for x in row:
            if x not in seen:
                seen.add(x)
    return len(seen)


def reference_s() -> float:
    """Best of three timings of the kernel, about 0.3 ms in all."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


class SpeedLog:
    """Kernel timings taken by a SIGVTALRM handler every INTERVAL_S of CPU time.

    The handler runs in the main thread between bytecodes, so it samples the
    speed in the middle of long ops too. Its own time is recorded, so that
    span() can leave it out of a measured duration.
    """

    def __init__(self):
        # (end of timing, kernel time, handler time so far); one append per
        # timing, so that a signal arriving in the handler cannot tear it
        self.samples: list[tuple[float, float, float]] = []

    def _on_signal(self, signum, frame) -> None:
        start = perf_counter()
        ref = reference_s()
        end = perf_counter()
        spent = self.samples[-1][2] if self.samples else 0.0
        self.samples.append((end, ref, spent + end - start))

    def start(self) -> None:
        self._on_signal(None, None)
        signal.signal(signal.SIGVTALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._on_signal(None, None)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(end - start less the handler's time in it, scale to the reference speed).

        The scale takes the median of the timings within WINDOW_S of the
        span: one timing is noisy, and the machine's speed drifts over
        seconds, not milliseconds.
        """
        samples = self.samples
        key = lambda s: s[0]  # noqa: E731
        lo = bisect.bisect_left(samples, start, key=key)
        hi = bisect.bisect_right(samples, end, key=key)
        handler = (samples[hi - 1][2] if hi else 0.0) - (samples[lo - 1][2] if lo else 0.0)
        near = samples[bisect.bisect_left(samples, start - WINDOW_S, key=key):
                       bisect.bisect_right(samples, end + WINDOW_S, key=key)]
        return end - start - handler, REF_S / statistics.median(s[1] for s in near)
