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
# Kernel bandwidth (shared component variance) of the exemplar mixtures: the
# builtin restore mixture, the demo's shapes32.mix and the library defaults.
DEFAULT_BANDWIDTH = 1e-4


def toy2d_mixture() -> GaussianMixture:
    """Two equal components at +-(2, 0), variance 0.05, labels A and B."""
    return GaussianMixture(
        weights=[0.5, 0.5],
        means=[[2.0, 0.0], [-2.0, 0.0]],
        variances=[0.05, 0.05],
        labels=["A", "B"],
    )


def _shapes32_pixels(n_per_class: int, seed: int):
    """(3 n_per_class, 32, 32) exemplar pixels, class by class, and their labels.

    Each exemplar is its class's mask in a foreground intensity on a
    background one, drawn per exemplar (background first) from one rng.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, not {n_per_class}")
    yy, xx = np.mgrid[0:32, 0:32]

    def box(r0, r1, c0, c1):
        return (r0 <= yy) & (yy < r1) & (c0 <= xx) & (xx < c1)

    masks = np.stack([(yy - 16) ** 2 + (xx - 16) ** 2 <= 8**2,  # in SHAPE_CLASSES order
                      box(9, 23, 9, 23),
                      box(13, 19, 5, 27) | box(5, 27, 13, 19)])
    rng = np.random.default_rng(seed)
    bg, fg = rng.uniform([0.05, 0.75], [0.15, 0.95], size=(3 * n_per_class, 2)).T
    pixels = np.where(np.repeat(masks, n_per_class, axis=0),
                      fg[:, None, None], bg[:, None, None])
    return pixels, [cls for cls in SHAPE_CLASSES for _ in range(n_per_class)]


def shapes32_dataset(n_per_class: int = 30, seed: int = 0):
    """List of (ImageGrid, label) exemplars, deterministic per seed."""
    pixels, labels = _shapes32_pixels(n_per_class, seed)
    return [(ImageGrid(px), label) for px, label in zip(pixels, labels)]


def _equal_weight_mixture(means, labels, bandwidth: float) -> GaussianMixture:
    n = len(labels)
    return GaussianMixture(np.full(n, 1.0 / n), means, np.full(n, bandwidth), labels)


def exemplar_mixture(dataset, bandwidth: float = DEFAULT_BANDWIDTH) -> GaussianMixture:
    """Equal-weight mixture with one (kernel-smoothed) component per exemplar."""
    if len(dataset) == 0:
        raise ValueError("an exemplar mixture needs at least one exemplar")
    return _equal_weight_mixture(np.stack([img.flatten() for img, _ in dataset]),
                                 [label for _, label in dataset], bandwidth)


def shapes32_mixture(n_per_class: int = 30, seed: int = 0,
                     bandwidth: float = DEFAULT_BANDWIDTH) -> GaussianMixture:
    """exemplar_mixture(shapes32_dataset(n_per_class, seed), bandwidth), built
    from the rendered pixels, which lie in [0.05, 0.95], without the ImageGrids."""
    pixels, labels = _shapes32_pixels(n_per_class, seed)
    return _equal_weight_mixture(pixels.reshape(len(labels), -1), labels, bandwidth)
