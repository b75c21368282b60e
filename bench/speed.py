"""Machine speed, measured next to every operation.

The benchmark's machine is shared: a fixed piece of code runs at its usual
speed most of the time and 20-100% slower for stretches of seconds to
minutes.  Wall and CPU time slow down alike.  So after each block of
operations the benchmark runs a fixed calibration kernel, which does not
touch the program, for a quarter of the block's duration, and scales each
operation's time by the kernel's speed around it:

    scaled = measured * (kernel speed around the operation) / REFERENCE_SPEED

A scaled time is the time the operation would take on a machine where the
kernel runs at REFERENCE_SPEED units per second.  The kernel mixes what the
program does: dict lookups with tuple keys, Python float arithmetic and
small numpy products.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel units per second on the reference machine (the 2-core VM the
#: benchmark was written on, in a quiet moment).
REFERENCE_SPEED = 18000.0
#: Calibration time as a share of the operation time it follows.
SHARE = 0.25
#: Operations are calibrated in blocks of at least this many seconds.
BLOCK_SECONDS = 0.2
MIN_WINDOW = 0.05

_KEYS = [(f"s{i:03d}", f"b{j:03d}") for i in range(48) for j in range(4)]
_TABLE = {k: 0.5 + (h % 97) / 97 for h, k in enumerate(_KEYS)}
_MATRIX = np.random.default_rng(0).random((120, 120)) / 120


def _term(x: float, y: float) -> float:
    return math.exp(-x) * y + x * x


def _unit() -> float:
    total = 0.0
    for key in _KEYS:
        if key[1] != "b002":
            total += _term(_TABLE[key], total * 1e-9)
    x = np.ones(120)
    for _ in range(4):
        x = _MATRIX @ x
    return total + float(x[0])


def kernel_speed(window: float) -> float:
    """Kernel units per second over about `window` seconds."""
    units = 0
    start = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= window:
            return units / elapsed


class Speedometer:
    """Scale factors for a sequence of timed pieces of work.

    Call `record(seconds)` after each piece; `factors()` then gives, per
    piece, the mean kernel speed of the calibration windows before and
    after its block, divided by REFERENCE_SPEED.
    """

    def __init__(self, min_window: float = MIN_WINDOW):
        self.min_window = min_window
        self.speeds = [kernel_speed(BLOCK_SECONDS)]
        self._block: list[int] = []
        self._block_seconds = 0.0
        self._owner: list[int] = []      # piece -> index of the window after it

    def record(self, seconds: float) -> None:
        self._block.append(len(self._owner))
        self._owner.append(-1)
        self._block_seconds += seconds
        if self._block_seconds >= BLOCK_SECONDS:
            self.close()

    def close(self) -> None:
        """Calibrate after the pending block, if any."""
        if not self._block:
            return
        self.speeds.append(kernel_speed(max(self.min_window, SHARE * self._block_seconds)))
        for piece in self._block:
            self._owner[piece] = len(self.speeds) - 1
        self._block, self._block_seconds = [], 0.0

    def factors(self) -> list[float]:
        self.close()
        return [(self.speeds[w - 1] + self.speeds[w]) / 2 / REFERENCE_SPEED
                for w in self._owner]
