"""Derivative-free (1+1) evolution strategy over the six affine parameters.

Each generation draws a 6-vector of standard normal deviates, scales it by
the current search radius and ``PARAM_SCALES``, and adds it to the parent.
Improvements are accepted and grow the radius by ``GROWTH_FACTOR``;
failures shrink it by ``SHRINK_FACTOR``. The loop stops when the radius
drops below ``EPSILON`` or the iteration budget is spent. This step-size
rule (Styner et al. 2000, IEEE TMI 19:153) is fixed: a run is set by its
budget and seed alone, and is fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .transform import AffineParams

GROWTH_FACTOR = 1.01
SHRINK_FACTOR = GROWTH_FACTOR ** -0.25
EPSILON = 1.5e-6
INITIAL_RADIUS = 1e-3
# With INITIAL_RADIUS these give mutation sigmas of 0.5 px in translation,
# ~1.1 deg in rotation and 0.003 in scale/shear, which the search can still
# grow or shrink multiplicatively.
PARAM_SCALES = (500.0, 500.0, 20.0, 3.0, 3.0, 3.0)


@dataclass
class OptimizerConfig:
    max_iterations: int = 500
    seed: int = 0

    def validate(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    scales = np.asarray(PARAM_SCALES, dtype=np.float64)
    radius = INITIAL_RADIUS
    # only strict improvements are accepted, so the parent is the best so far
    trace = OptimizerTrace(best_value=f0, best_params=p0)
    for it in range(config.max_iterations):
        if radius < EPSILON:
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
            radius *= GROWTH_FACTOR
        else:
            radius *= SHRINK_FACTOR
    if radius < EPSILON:
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
