"""Dual-path rectified-flow inversion with LQR latent steering.

The package namespace holds the names of the README's quick start and
Downsample. Everything else is imported from its own module: pdls.pipeline
(inversions and steered generation), pdls.flowfield (the closed-form field),
pdls.integrate, pdls.control, pdls.degrade, pdls.datasets, pdls.metrics,
pdls.fileio and pdls.cli.
"""

from .datasets import exemplar_mixture, shapes32_dataset
from .degrade import Downsample, GaussianBlur, ImageGrid, NoiseModel, apply
from .flowfield import Condition
from .metrics import psnr
from .pipeline import PdlsConfig, restore

__all__ = [
    "Condition", "Downsample", "GaussianBlur", "ImageGrid", "NoiseModel", "PdlsConfig",
    "apply", "exemplar_mixture", "psnr", "restore", "shapes32_dataset",
]
__version__ = "0.1.0"
