"""Wall-clock timing rescaled to the speed of a reference host.

This module imports nothing from tubelink, so that a child interpreter can
use it to time ``import tubelink`` itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import signal
import statistics
import time

REFERENCE_LOOP_S = 0.0006  # one reference loop on the reference host
SAMPLE_EVERY_S = 0.02


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of tuple, dict and float
    work, about REFERENCE_LOOP_S on the reference host."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: dict[int, tuple] = {}
    acc = 0.0
    for i in range(1000):
        box = (i * 0.5, i * 0.25, 10.0 + (i & 7), 12.0 - (i & 3))
        key = i & 63
        prev = table.get(key)
        if prev is not None:
            acc += math.hypot(box[0] - prev[0], box[1] - prev[1]) / (1.0 + box[2] * box[3])
        table[key] = box
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


@dataclasses.dataclass
class Timing:
    wall: float = 0.0
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


class HostClock:
    """Times blocks in seconds of a reference host.

    The speed of a shared host changes by 20 % and more, both within a
    second and over minutes. So while a block runs, a timer signal every
    SAMPLE_EVERY_S runs the reference loop, and the loop also runs once just
    before and once just after the block. The block's wall time, less the
    time spent in the loops, is multiplied by REFERENCE_LOOP_S over the mean
    loop time. The loop is part of the benchmark, so a change to tubelink
    cannot move it; the quartiles of the scale factors are printed each run.
    """

    def __init__(self):
        self.scales: list[float] = []
        self.paused = 0.0  # seconds spent in reference loops inside blocks
        self._loops: list[float] = []

    def now(self) -> float:
        """time.perf_counter() less the time spent in loops inside blocks."""
        return time.perf_counter() - self.paused

    def _sample(self, *_) -> None:
        dt = reference_loop()
        self._loops.append(dt)
        self.paused += dt

    @contextlib.contextmanager
    def block(self):
        gc.collect()  # each block pays only for what it allocates, as in a fresh process
        self._loops = [reference_loop()]
        previous = signal.signal(signal.SIGALRM, self._sample)
        t = Timing()
        t0 = self.now()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t.wall = self.now() - t0
            signal.signal(signal.SIGALRM, previous)
        self._loops.append(reference_loop())
        t.scale = REFERENCE_LOOP_S / statistics.fmean(self._loops)
        self.scales.append(t.scale)
