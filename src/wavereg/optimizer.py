"""Derivative-free (1+1) evolution strategy over the six affine parameters.

Each generation draws a 6-vector of standard normal deviates, scales it by
the current search radius and the per-parameter step scales, and adds it
to the parent. Improvements are accepted and grow the radius by the
growth factor; failures shrink it by growth_factor ** -shrink_exponent.
The loop stops when the radius drops below epsilon or the iteration
budget is spent. Fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .transform import AffineParams

# With the default initial radius of 1e-3 these give mutation sigmas of
# 0.5 px in translation, ~1.1 deg in rotation and 0.003 in scale/shear,
# which the search can still grow or shrink multiplicatively.
DEFAULT_PARAM_SCALES = (500.0, 500.0, 20.0, 3.0, 3.0, 3.0)


@dataclass
class OptimizerConfig:
    growth_factor: float = 1.01
    epsilon: float = 1.5e-6
    initial_radius: float = 1e-3
    max_iterations: int = 500
    shrink_exponent: float = 0.25
    param_scales: tuple[float, ...] = DEFAULT_PARAM_SCALES
    seed: int = 0

    def validate(self) -> None:
        for name, low in (("growth_factor", 1), ("epsilon", 0),
                          ("initial_radius", self.epsilon), ("shrink_exponent", 0)):
            value = getattr(self, name)
            if not low < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be > {low} and finite, got {value}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if len(self.param_scales) != 6 or not all(
                0 <= s < math.inf for s in self.param_scales):
            raise ValueError("param_scales must be 6 finite nonnegative values")


@dataclass
class IterationRecord:
    iteration: int
    params: AffineParams
    value: float  # nan when the candidate was auto-rejected unevaluated
    accepted: bool
    radius: float  # radius used to generate this candidate


@dataclass
class OptimizerTrace:
    records: list[IterationRecord] = field(default_factory=list)
    best_value: float = -math.inf
    best_params: AffineParams | None = None
    termination_reason: str = "max_iterations"


def optimize(objective, p0: AffineParams, config: OptimizerConfig):
    """Maximize ``objective`` from ``p0``; returns (best_params, trace).

    Candidates with non-positive scales are rejected without evaluation.
    """
    config.validate()
    f0 = float(objective(p0))
    if not math.isfinite(f0):
        raise ValueError("invalid start: objective is not finite at p0")
    rng = np.random.default_rng(config.seed)
    scales = np.asarray(config.param_scales, dtype=np.float64)
    radius = config.initial_radius
    # only strict improvements are accepted, so the parent is the best so far
    trace = OptimizerTrace(best_value=f0, best_params=p0)
    for it in range(config.max_iterations):
        if radius < config.epsilon:
            break
        step = radius * scales * rng.standard_normal(6)
        candidate = AffineParams.from_vector(trace.best_params.as_vector() + step)
        if candidate.sx <= 0 or candidate.sy <= 0:
            f_cand = math.nan
            accepted = False
        else:
            f_cand = float(objective(candidate))
            accepted = math.isfinite(f_cand) and f_cand > trace.best_value
        trace.records.append(
            IterationRecord(iteration=it, params=candidate, value=f_cand,
                            accepted=accepted, radius=radius)
        )
        if accepted:
            trace.best_value = f_cand
            trace.best_params = candidate
            radius *= config.growth_factor
        else:
            radius *= config.growth_factor ** (-config.shrink_exponent)
    if radius < config.epsilon:
        trace.termination_reason = "radius_below_epsilon"
    return trace.best_params, trace


def trace_to_csv(trace: OptimizerTrace, path) -> None:
    """Dump a trace as CSV: iteration, mi_bits, accepted, radius, params."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "mi_bits", "accepted", "radius",
             "tx", "ty", "theta", "sx", "sy", "k"]
        )
        for rec in trace.records:
            p = rec.params
            writer.writerow(
                [rec.iteration, repr(rec.value), int(rec.accepted), repr(rec.radius),
                 repr(p.tx), repr(p.ty), repr(p.theta), repr(p.sx), repr(p.sy), repr(p.k)]
            )
