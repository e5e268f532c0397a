"""Builtin demo assets: the 2-D two-cluster toy and the shapes32 exemplar set.

shapes32 is a procedurally generated 32x32 grayscale set of disks, squares
and crosses (3 classes, 30 exemplars each by default). Each class has a
fixed canonical geometry; exemplars within a class vary in foreground and
background intensity. Keeping the geometry registered makes intra-class
exemplar distances small relative to the class separation, so the exemplar
velocity field has well-defined class basins. The set seeds the image
benchmarks without any external downloads.
"""

from __future__ import annotations

import numpy as np

from .degrade import ImageGrid
from .flowfield import GaussianMixture

SHAPE_CLASSES = ("disk", "square", "cross")


def toy2d_mixture() -> GaussianMixture:
    """Two equal components at +-(2, 0), variance 0.05, labels A and B."""
    return GaussianMixture(
        weights=[0.5, 0.5],
        means=[[2.0, 0.0], [-2.0, 0.0]],
        variances=[0.05, 0.05],
        labels=["A", "B"],
    )


def _intensities(rng):
    bg = rng.uniform(0.05, 0.15)
    fg = rng.uniform(0.75, 0.95)
    return bg, fg


def _render_disk(rng) -> np.ndarray:
    bg, fg = _intensities(rng)
    yy, xx = np.mgrid[0:32, 0:32].astype(float)
    img = np.full((32, 32), bg)
    img[(yy - 16.0) ** 2 + (xx - 16.0) ** 2 <= 8.0**2] = fg
    return img


def _render_square(rng) -> np.ndarray:
    bg, fg = _intensities(rng)
    img = np.full((32, 32), bg)
    img[9:23, 9:23] = fg
    return img


def _render_cross(rng) -> np.ndarray:
    bg, fg = _intensities(rng)
    img = np.full((32, 32), bg)
    img[13:19, 5:27] = fg
    img[5:27, 13:19] = fg
    return img


_RENDERERS = {"disk": _render_disk, "square": _render_square, "cross": _render_cross}


def shapes32_dataset(n_per_class: int = 30, seed: int = 0):
    """List of (ImageGrid, label) exemplars, deterministic per seed."""
    rng = np.random.default_rng(seed)
    out = []
    for cls in SHAPE_CLASSES:
        for _ in range(n_per_class):
            out.append((ImageGrid(_RENDERERS[cls](rng)), cls))
    return out


def exemplar_mixture(dataset, bandwidth: float = 0.01) -> GaussianMixture:
    """Equal-weight mixture with one (kernel-smoothed) component per exemplar."""
    n = len(dataset)
    return GaussianMixture(
        weights=np.full(n, 1.0 / n),
        means=np.stack([img.flatten() for img, _ in dataset]),
        variances=np.full(n, bandwidth),
        labels=[label for _, label in dataset],
    )


def shapes32_mixture(n_per_class: int = 30, seed: int = 0,
                     bandwidth: float = 0.01) -> GaussianMixture:
    return exemplar_mixture(shapes32_dataset(n_per_class, seed), bandwidth)
