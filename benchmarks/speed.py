"""Call timing corrected for the speed the shared CPU is running at.

On a shared machine the same pure-Python work can take 1.6 times longer
for stretches of 0.1 to several seconds, when another tenant loads the
physical core.  Raw wall times then differ by 20 % or more between runs
of identical code.  :class:`SpeedClock` samples the current speed while
a call runs: a SIGALRM timer interrupts it every ``PERIOD`` seconds and
runs a fixed calibration kernel, whose duration measures how fast the
interpreter is going at that moment.  The samples' own time is excluded,
and every stretch of the call between two samples is scaled by
``REFERENCE_S / (mean duration of those two samples)``: the result is the
call's time at the reference speed, the speed at which the kernel takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD = 0.1
# Kernel duration at the reference speed: about the fastest state of a
# 2-vCPU Intel Xeon VM with Python 3.11.7.
REFERENCE_S = 0.00115

_ROW = [(-1) ** i * (7919 * i) ** 4 if i % 5 else 0 for i in range(1, 401)]


def _partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def kernel() -> int:
    """Fixed mix of the interpreter work crankq does: generator recursion
    and tuple building as in the enumeration oracles, and big-integer
    multiply-adds over lists as in the series products."""
    count = sum(len(p) for p in _partitions(15, 15))
    out = [0] * 800
    for i, a in enumerate(_ROW[:12]):
        if a:
            out[i:i + 400] = [x + a * y if y else x for x, y in zip(out[i:i + 400], _ROW)]
    return count + out[99] % 7


class SpeedClock:
    """Times one call at a time; not reentrant."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []

    def _sample(self, *_):
        start = perf_counter()
        kernel()
        self._samples.append((start, perf_counter()))

    def call(self, fn, *args, **kwargs):
        """Run ``fn``; return ``(result, raw_s, reference_s, elapsed_s)``.

        ``elapsed_s`` includes the samples taken during the call; ``raw_s``
        does not.  Exceptions from ``fn`` propagate after the timer is stopped.
        """
        self._samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        samples = self._samples
        # Work stretches: start .. first in-call sample, between samples,
        # last in-call sample .. end.
        edges = [start] + [t for pair in samples[1:-1] for t in pair] + [end]
        raw = scaled = 0.0
        for j in range(len(samples) - 1):
            stretch = edges[2 * j + 1] - edges[2 * j]
            kernel_s = (samples[j][1] - samples[j][0]
                        + samples[j + 1][1] - samples[j + 1][0]) / 2
            raw += stretch
            scaled += stretch * REFERENCE_S / kernel_s
        return result, raw, scaled, end - start
