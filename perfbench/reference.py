"""A frozen reference kernel that measures how fast the machine is right now.

The host this benchmark was defined on is shared, and its speed drifts by up
to a factor of two within seconds. The same 64² registration took from
0.50 s to 0.99 s back to back. So a run times a short block of this kernel
before every registration and once after the last. Each registration's
time is divided by the mean of the blocks just before and just after it,
in units of ``NOMINAL_BLOCK_S``; rates over the whole run are divided by
the mean of all blocks.

The kernel copies the hot path of wavereg's objective as it was when the
benchmark was defined: an affine resampling through ``map_coordinates``,
the validity mask, a 50-bin ``histogram2d`` and the MI sum, on a fixed 64²
pair. It never imports wavereg, so no change to the program moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.ndimage import map_coordinates

SIZE = 64
EVALUATIONS = 60  # per block: about 60 ms, under 10% of a 64² registration
# median block time on the machine the benchmark was defined on
NOMINAL_BLOCK_S = 0.06


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.fixed = rng.uniform(0.0, 255.0, (SIZE, SIZE))
        self.moving = 255.0 - self.fixed + rng.normal(0.0, 5.0, self.fixed.shape)
        self.ys, self.xs = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)
        self.walls: list[float] = []  # one per block, in order
        self.cpus: list[float] = []

    def _evaluate(self, theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        src_x = c * self.xs - s * self.ys + 0.3
        src_y = s * self.xs + c * self.ys - 0.2
        mask = (src_x >= 0) & (src_x <= SIZE - 1) & (src_y >= 0) & (src_y <= SIZE - 1)
        warped = map_coordinates(self.moving, [src_y, src_x], order=1)
        counts, _, _ = np.histogram2d(self.fixed[mask], warped[mask], bins=50)
        p = counts / counts.sum()
        outer = np.outer(p.sum(axis=1), p.sum(axis=0))
        nz = p > 0
        return float(np.sum(p[nz] * np.log2(p[nz] / outer[nz])))

    def block(self) -> int:
        """Time one block; returns its index."""
        wall, cpu = time.perf_counter(), time.process_time()
        for i in range(EVALUATIONS):
            self._evaluate(1e-3 * i)
        self.walls.append(time.perf_counter() - wall)
        self.cpus.append(time.process_time() - cpu)
        return len(self.walls) - 1

    def slowdown(self, first: int = 0) -> float:
        """Mean wall time of blocks ``first`` onwards over the nominal one:
        2.0 means half speed."""
        times = self.walls[first:]
        return sum(times) / len(times) / NOMINAL_BLOCK_S

    def cpu_slowdown(self, first: int = 0) -> float:
        times = self.cpus[first:]
        return sum(times) / len(times) / NOMINAL_BLOCK_S

    def around(self, index: int) -> float:
        """Slowdown around whatever ran between block ``index`` and the
        next one: the two blocks' mean time over the nominal one."""
        return (self.walls[index] + self.walls[index + 1]) / 2 / NOMINAL_BLOCK_S
