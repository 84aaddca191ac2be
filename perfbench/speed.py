"""Machine-speed reference: a fixed loop timed between the work items.

The machine this benchmark was tuned on (2 vCPUs of a shared host) runs
at two speeds about 1.7x apart and switches between them every fraction
of a second to every few tens of seconds, so the same code gives
different times in different runs, and a whole run can fall in the slow
state.  A Clock therefore times work in stretches of at most a few tens
of milliseconds, with one sample of this loop between two stretches, and
reports each stretch at the speed at which the loop takes REFERENCE_S:

    time at reference speed = measured time * REFERENCE_S / mean(before, after)

where before and after are the loop samples just before and just after
the stretch.  The stretches add up to pieces (a document, a census
segment), and a piece's reported time is its median over the passes of
a run.

The loop is standard-library code only (integer, tuple, dict and
Fraction arithmetic, like the engine's), so a change to the engine does
not change it.  Every run prints its unscaled figures as well.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the loop's time in the fast state of the tuning machine (Intel Xeon,
# 2 vCPUs, Python 3.11.7): reported times are in that state's units.
REFERENCE_S = 0.0006


def reference_loop() -> int:
    total = 0
    seen = {}
    for i in range(1, 100):
        f, g = Fraction(i, i + 7), Fraction(i + 1, 2 * i + 3)
        t = f * g + f - g
        seen[(i % 11, t.denominator % 13)] = i
        total += t.numerator % 97
    return total + len(seen)


def sample() -> float:
    """Seconds of one reference loop."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def samples(n: int) -> list:
    return [sample() for _ in range(n)]


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the loop's time just before
    and just after them."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Clock:
    """Times work in pieces, from its creation to stop().  The work calls
    tick() often; once `interval` seconds have passed since the last
    sample, tick() pauses the clock and samples the reference loop.
    next_piece() samples and starts a new piece.  `raw` and `scaled` hold
    each piece's seconds, unscaled and at the reference speed, and
    `samples` the loop samples; the time spent sampling is in neither."""

    def __init__(self, interval: float = float("inf")):
        self.interval = interval
        self.raw, self.scaled = [0.0], [0.0]
        self.samples = [sample()]
        self.resumed = perf_counter()

    def _pause(self) -> None:
        seconds = perf_counter() - self.resumed
        after = sample()
        self.raw[-1] += seconds
        self.scaled[-1] += at_reference(seconds, self.samples[-1], after)
        self.samples.append(after)
        self.resumed = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self.resumed >= self.interval:
            self._pause()

    def next_piece(self) -> None:
        self._pause()
        self.raw.append(0.0)
        self.scaled.append(0.0)

    def stop(self) -> None:
        self._pause()
