"""Dual-path rectified-flow inversion with LQR latent steering.

Closed-form velocity fields for Gaussian-mixture / exemplar targets, a
controlled dual-path inversion, a steered reverse process with a cosine
decay schedule, degradation operators, metrics, and a CLI benchmark
harness.
"""

from .control import blend_drift, eta, lqr_control
from .datasets import exemplar_mixture, shapes32_dataset, shapes32_mixture, toy2d_mixture
from .degrade import (
    Downsample,
    FreeformMask,
    GaussianBlur,
    Identity,
    ImageGrid,
    MotionBlur,
    NoiseModel,
    apply,
    gaussian_kernel,
    make_freeform_mask,
    motion_kernel,
)
from .flowfield import (
    EPS_T,
    Condition,
    GaussianMixture,
    TerminalTimeError,
    endpoint_conditional_velocity,
    marginal_velocity,
    posterior_endpoint_mean,
    responsibilities,
    sample_mixture,
)
from .integrate import DriftDivergedError, TimeGrid, Trajectory, integrate, make_grid
from .metrics import class_accuracy, psnr, ssim
from .pipeline import (
    DualPaths,
    PdlsConfig,
    RestoreResult,
    dual_invert,
    invert_path,
    restore,
    steered_generate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
