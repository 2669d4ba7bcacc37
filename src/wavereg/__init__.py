"""Multimodal 2-D image registration with Haar sub-bands and Gaussian pyramids."""

from .imageio import load_pgm, overlay_diff, remap_intensity, save_pgm, save_ppm
from .metric import (
    JointHistogram,
    MetricConfig,
    correlation_coefficient,
    joint_histogram,
    mi_between,
    mutual_information,
)
from .optimizer import OptimizerConfig, OptimizerTrace, optimize
from .pipeline import (
    RegistrationConfig,
    RegistrationError,
    RegistrationResult,
    evaluate,
    register,
)
from .pyramid import build_pyramid, reduce_image
from .transform import (
    AffineParams,
    center_adjusted,
    compose_matrix,
    image_center,
    invert_matrix,
    invert_params,
    scale_params_between_levels,
    warp,
)
from .wavelet import SubBands, dwt2, idwt2

__all__ = [
    "AffineParams",
    "JointHistogram",
    "MetricConfig",
    "OptimizerConfig",
    "OptimizerTrace",
    "RegistrationConfig",
    "RegistrationError",
    "RegistrationResult",
    "SubBands",
    "build_pyramid",
    "center_adjusted",
    "compose_matrix",
    "correlation_coefficient",
    "dwt2",
    "evaluate",
    "idwt2",
    "image_center",
    "invert_matrix",
    "invert_params",
    "joint_histogram",
    "load_pgm",
    "mi_between",
    "mutual_information",
    "optimize",
    "overlay_diff",
    "reduce_image",
    "register",
    "remap_intensity",
    "save_pgm",
    "save_ppm",
    "scale_params_between_levels",
    "warp",
]

__version__ = "0.1.0"
