"""Reconstruction-quality metrics and the semantic-fidelity proxy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d

from .degrade import ImageGrid, gaussian_kernel
from .flowfield import GaussianMixture

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    psnr_db: float
    ssim: float | None = None
    class_accuracy: int | None = None


def _pixels(a) -> np.ndarray:
    if isinstance(a, ImageGrid):
        return a.pixels
    return np.asarray(a, dtype=float)


def mse(a, b) -> float:
    a, b = _pixels(a), _pixels(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.mean((a - b) ** 2))


def psnr(a, b, peak: float = 1.0) -> float:
    """10 log10(peak^2 / mse); +inf when the images are identical."""
    if peak <= 0:
        raise ValueError("peak must be positive")
    err = mse(a, b)
    if err == 0:
        return math.inf
    return 10.0 * math.log10(peak**2 / err)


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean local SSIM over an 11x11 Gaussian window (sigma 1.5), standard constants."""
    a, b = _pixels(a), _pixels(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    win = gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2

    def filt(img):
        return convolve2d(img, win, mode="valid")

    mu_a, mu_b = filt(a), filt(b)
    var_a = filt(a * a) - mu_a**2
    var_b = filt(b * b) - mu_b**2
    cov = filt(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def class_accuracy(reconstruction, mixture: GaussianMixture, true_label) -> int:
    """1 iff the nearest component mean carries true_label; ties break to the
    lowest component index."""
    x = np.asarray(reconstruction, dtype=float)
    if any(lb is None for lb in mixture.labels):
        raise ValueError("mixture components must be labeled")
    d2 = np.sum((mixture.means - x[None, :]) ** 2, axis=1)
    nearest = int(np.argmin(d2))  # argmin takes the first minimum on ties
    return int(mixture.labels[nearest] == true_label)


def report(reconstruction: ImageGrid, reference: ImageGrid,
           mixture: GaussianMixture | None = None, true_label=None) -> MetricsReport:
    acc = None
    if mixture is not None and true_label is not None:
        acc = class_accuracy(reconstruction.flatten(), mixture, true_label)
    s = None
    if min(reference.pixels.shape) >= SSIM_WINDOW:
        s = ssim(reconstruction, reference)
    return MetricsReport(
        mse=mse(reconstruction, reference),
        psnr_db=psnr(reconstruction, reference),
        ssim=s,
        class_accuracy=acc,
    )
