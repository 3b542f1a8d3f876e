"""Machine-speed calibration: scales timings to a reference speed.

A shared sandbox changes speed by up to 2x within minutes, as other
tenants load the cores it runs on (a pure-Python loop and the paper
sweep slowed by the same factor, and CPU time tracked wall time, so it
is the core that slows, not our share of it). Timings taken minutes
apart are therefore comparable only after scaling. Between items, a run
times a fixed mix of interpreter and HiGHS work that shares no code with
the program; the ratio of the median sample to ``REFERENCE_S`` says how
slow the machine is during the run. Rates are multiplied by the ratio
and times divided by it, so a change to the program moves the scaled
metrics while a change of machine speed does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

# Median seconds of one sample on an unloaded 2-core x86-64 sandbox.
REFERENCE_S = 0.07


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(7)
        weights = rng.integers(5, 40, size=(6, 30)).astype(float)
        self._values = -rng.integers(10, 60, size=30).astype(float)
        self._rows = LinearConstraint(weights, -np.inf, weights.sum(axis=1) * 0.35)
        self.samples = []
        self._sample()  # the first solve pays scipy's lazy set-up
        self.samples.clear()

    def _sample(self):
        started = time.perf_counter()
        table = {}
        for i in range(30000):
            table[i % 997] = table.get(i % 997, 0) + i * 3 % 11
        milp(self._values, constraints=self._rows,
             integrality=np.ones(30), bounds=Bounds(0, 1))
        self.samples.append(time.perf_counter() - started)

    def sample(self, count=1):
        for _ in range(count):
            self._sample()

    @property
    def ratio(self):
        """Median sample over the reference: above 1 on a slow machine."""
        return statistics.median(self.samples) / REFERENCE_S
