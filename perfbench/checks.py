"""Output checks, result digests and recovery against ground truth."""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from wavereg.transform import invert_params

from workloads import TOL_PX, TOL_THETA


def output_problems(result, fixed: np.ndarray) -> list[str]:
    """Why ``result`` is not a valid registration of onto ``fixed``; empty when it is."""
    problems = []
    if result.registered.shape != fixed.shape:
        problems.append(f"registered shape {result.registered.shape} != {fixed.shape}")
    elif not np.isfinite(result.registered).all():
        problems.append("registered has non-finite pixels")
    if result.mask.shape != fixed.shape or not result.mask.any():
        problems.append("mask is empty or misshapen")
    if not (math.isfinite(result.final_mi_bits) and result.final_mi_bits >= 0):
        problems.append(f"final_mi_bits {result.final_mi_bits!r} is not >= 0")
    if not -1.0 <= result.cc <= 1.0:
        problems.append(f"cc {result.cc!r} outside [-1, 1]")
    return problems


def digest(result) -> str:
    """SHA-256 of params, registered image, mask and final MI, bit for bit."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.params.as_vector(), dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.registered, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.mask, dtype=bool).tobytes())
    h.update(struct.pack("<d", result.final_mi_bits))
    return h.hexdigest()


def recovered(result, truth) -> bool:
    """Within the acceptance tolerance of the realigning transform."""
    target = invert_params(truth)
    p = result.params
    return (
        abs(p.tx - target.tx) < TOL_PX
        and abs(p.ty - target.ty) < TOL_PX
        and abs(p.theta - target.theta) < TOL_THETA
    )
