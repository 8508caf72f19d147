"""Host-speed probe: fixed interpreter and numpy work, timed next to every measured unit.

The shared host switches between a fast state and one 1.4-1.7x slower, for
seconds to minutes at a time (see README.md). The benchmark times this fixed
probe right before each job and each cold import, and reports the unit's time
divided by the probe's, scaled to seconds at the reference speed. That ratio
follows the program, not the host state. Raw seconds go to result.json.
"""
from __future__ import annotations

import time

import numpy as np

#: probe time in the host's fast state (shared 2-core x86-64 virtual machine,
#: Python 3.11.7, numpy 2.4.6); scaled times are seconds at that speed
REFERENCE_S = 0.009


class Probe:
    """Times a fixed mix: a Python loop, a numpy sort and many small numpy calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random(1 << 18)
        self.small = rng.random(64)

    def __call__(self) -> float:
        start = time.perf_counter()
        s = 0
        for i in range(90_000):
            s += i * i
        np.sort(self.big)
        for _ in range(900):
            self.small.sum()
        return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
