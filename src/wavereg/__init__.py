"""Multimodal 2-D image registration with Haar sub-bands and Gaussian pyramids."""

from .imageio import load_pgm, save_pgm
from .optimizer import OptimizerConfig
from .pipeline import RegistrationConfig, RegistrationError, RegistrationResult, register
from .transform import AffineParams, invert_params

__all__ = [
    "AffineParams",
    "OptimizerConfig",
    "RegistrationConfig",
    "RegistrationError",
    "RegistrationResult",
    "invert_params",
    "load_pgm",
    "save_pgm",
    "register",
]

__version__ = "0.1.0"
