"""The benchmark's three workloads and the fixture pairs each one registers.

Every pair comes from ``wavereg.fixtures``; the workload seed fixes each
pair's fixture seed and the optimizer master seed, so the same seed gives
the same inputs and, the pipeline being deterministic, the same outputs.
All registrations use the library/CLI defaults: 3 levels, 50 bins and 500
optimizer iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wavereg.fixtures import FixtureSpec
from wavereg.transform import AffineParams

METHODS = ("pyramid", "wavelet", "dwt_pyramid")

# acceptance transforms (tests/test_acceptance.py): criterion 3's phantom
# truth and criterion 4's first noise/gamma ordering pair
PHANTOM_TRUTH = (6.0, -3.0, 4.0)  # tx, ty, theta in degrees
ORDERING_TRUTHS = [
    (15.0, -6.0, 2.5),
    (15.0, 5.0, -2.5),
    (16.0, -5.0, 1.5),
    (15.0, -7.0, -1.5),
    (16.0, -6.0, -2.0),
]
NOISE_SIGMA = 0.01
ORDERING_GAMMA = 2.5

# acceptance tolerance at full resolution (criteria 3 and 5)
TOL_PX = 0.5
TOL_THETA = math.radians(0.5)

# small-64 pattern/remap mix; each pattern meets every remap once
SMALL_MIX = [
    ("phantom_ellipses", "invert"),
    ("checker", "gamma"),
    ("noise_smoothed", "neglog"),
    ("phantom_ellipses", "neglog"),
    ("checker", "invert"),
    ("noise_smoothed", "gamma"),
]


@dataclass(frozen=True)
class Pair:
    name: str
    spec: FixtureSpec


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool  # True: ``wavereg compare`` through cli.main; else library register
    pairs: tuple[Pair, ...]
    round_size: int  # pairs registered per round; a cycle is all pairs once
    # length of one cycle at the seed commit on a 2-core Xeon VM; a run does
    # round(seconds / cycle_seconds) cycles, at least one, so its work and
    # sample counts never depend on how fast the machine happens to be
    cycle_seconds: float
    master_seed: int

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_seconds))


def _truth(tx, ty, theta_deg, scale=1.0) -> AffineParams:
    return AffineParams(tx=tx * scale, ty=ty * scale, theta=math.radians(theta_deg))


def _spec(pattern, size, truth, remap, seed) -> FixtureSpec:
    return FixtureSpec(
        base_pattern=pattern, size=size, truth=truth, remap=remap,
        gamma=ORDERING_GAMMA if remap == "gamma" else 2.0,
        noise_sigma=NOISE_SIGMA, seed=seed,
    )


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with all its inputs fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    master_seed = int(rng.integers(1 << 20))

    def fixture_seed() -> int:
        return int(rng.integers(1 << 20))

    if name == "small-64":
        pairs = [
            Pair(f"p{i}-{pattern}-{remap}",
                 _spec(pattern, 64, _truth(*PHANTOM_TRUTH, scale=0.5), remap,
                       fixture_seed()))
            for i, (pattern, remap) in enumerate(SMALL_MIX)
        ]
        return Workload(name, False, tuple(pairs), 3, 21.0, master_seed)
    orderings = [ORDERING_TRUTHS[(seed + j) % len(ORDERING_TRUTHS)] for j in range(3)]
    if name == "large-256":
        pairs = [
            Pair("phantom-invert",
                 _spec("phantom_ellipses", 256, _truth(*PHANTOM_TRUTH, scale=2.0),
                       "invert", fixture_seed())),
            Pair("noise-gamma",
                 _spec("noise_smoothed", 256, _truth(*orderings[0], scale=2.0),
                       "gamma", fixture_seed())),
        ]
        return Workload(name, False, tuple(pairs), 1, 42.0, master_seed)
    if name == "compare-128":
        pairs = [
            Pair("phantom-invert",
                 _spec("phantom_ellipses", 128, _truth(*PHANTOM_TRUTH),
                       "invert", fixture_seed())),
        ] + [
            Pair(f"noise-gamma{j}",
                 _spec("noise_smoothed", 128, _truth(*ordering), "gamma",
                       fixture_seed()))
            for j, ordering in enumerate(orderings)
        ]
        return Workload(name, True, tuple(pairs), 2, 34.0, master_seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("small-64", "large-256", "compare-128")
