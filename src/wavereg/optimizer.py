"""Derivative-free (1+1) evolution strategy over the six affine parameters.

Each generation scales a 6-vector of standard normal deviates by the
search radius and ``PARAM_SCALES`` and adds it to the parent. Improvements
grow the radius by ``GROWTH_FACTOR``, failures shrink it by ``SHRINK_FACTOR``,
so the candidates after a failure are known ahead. ``optimize`` plans a window
of up to ``WINDOW`` of them as if all fail, none past the budget or the
``EPSILON`` stop, and walks it to its first accept; the next window starts
from the new parent and radius with the deviates left over (a (w, 6) draw
gives the numbers of w draws of 6). This step-size rule (Styner et al. 2000,
IEEE TMI 19:153) is fixed: a run is set by its budget and seed alone, and is
deterministic. A trace keeps its iterations as one (n, 9) float64 table, 72
bytes an iteration, and ``records`` builds ``IterationRecord``s on demand.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

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
WINDOW = 16  # candidates planned ahead, for an objective that scores several per call


def _check_integers(minimum: int, **values) -> None:
    """The one rule for integer settings: every value's type first, then every bound."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value}")
    for name, value in values.items():
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class OptimizerConfig:
    max_iterations: int = 500
    seed: int = 0

    def validate(self) -> None:
        _check_integers(0, max_iterations=self.max_iterations, seed=self.seed)


@dataclass
class IterationRecord:
    iteration: int
    params: AffineParams
    value: float  # nan when the candidate was auto-rejected unevaluated
    accepted: bool
    radius: float  # radius used to generate this candidate


@dataclass
class OptimizerTrace:
    table: np.ndarray  # one row an iteration: value, accepted (1.0 or 0.0), radius, tx ... k
    best_value: float
    termination_reason: str  # "max_iterations" or "radius_below_epsilon"

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        return tuple(IterationRecord(it, AffineParams(*params), value, bool(accepted), radius)
                     for it, (value, accepted, radius, *params) in enumerate(self.table.tolist()))


def optimize(objective, p0: AffineParams, config: OptimizerConfig):
    """Maximize ``objective`` from ``p0``; returns (best_params, trace).

    A candidate is a read-only (6,) ``as_vector`` row. One with a non-positive
    scale is rejected unevaluated; each other ``row`` is a call ``objective(row,
    ahead=rows)``, ``rows`` the (n, 6) next in line if all fail, to score or ignore.
    """
    config.validate()
    f0 = float(objective(p0.as_vector()))
    if not math.isfinite(f0):
        raise ValueError("invalid start: objective is not finite at p0")
    rng = np.random.default_rng(config.seed)
    # only strict improvements are accepted, so the parent is the best so far
    best, best_value, radius, table, deviates = p0, f0, INITIAL_RADIUS, [], np.empty((0, 6))
    while len(table) < config.max_iterations and radius >= EPSILON:
        factors = [radius] + [SHRINK_FACTOR] * (min(WINDOW, config.max_iterations - len(table)) - 1)
        radii = [r for r in itertools.accumulate(factors, float.__mul__) if r >= EPSILON]
        deviates = np.concatenate((deviates, rng.standard_normal((WINDOW - len(deviates), 6))))
        plan = best.as_vector() + np.outer(radii, PARAM_SCALES) * deviates[:len(radii)]
        plan.flags.writeable = False
        kept = ~(plan[:, 3:5] <= 0).any(1)  # the rows it will evaluate: a NaN scale is scored
        ahead = plan[kept]
        for used, (row, radius, scored) in enumerate(zip(plan, radii, kept.tolist()), 1):
            f_cand, accepted = math.nan, False
            if scored:
                ahead = ahead[1:]  # ahead[0] was this candidate
                f_cand = float(objective(row, ahead=ahead))
                accepted = math.isfinite(f_cand) and f_cand > best_value
            table.append((f_cand, accepted, radius, *row.tolist()))
            if accepted:  # the rows after it grew from the old parent: plan anew
                best, best_value = AffineParams(*row.tolist()), f_cand
                break
        deviates = deviates[used:]
        radius *= GROWTH_FACTOR if accepted else SHRINK_FACTOR
    reason = "radius_below_epsilon" if radius < EPSILON else "max_iterations"
    return best, OptimizerTrace(np.array(table, dtype=float).reshape(-1, 9), best_value, reason)


def trace_to_csv(trace: OptimizerTrace, path) -> None:
    """Dump a trace as CSV: iteration, mi_bits, accepted, radius, params."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mi_bits", "accepted", "radius",
                         *(f.name for f in fields(AffineParams))])
        for it, (value, accepted, radius, *params) in enumerate(trace.table.tolist()):
            writer.writerow([it, repr(value), int(accepted), repr(radius), *map(repr, params)])
