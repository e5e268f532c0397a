"""Builtin demo asset tests."""

import hashlib

import numpy as np
import pytest

from pdls.datasets import (
    SHAPE_CLASSES,
    exemplar_mixture,
    shapes32_dataset,
    shapes32_mixture,
    toy2d_mixture,
)


def test_toy2d_layout():
    mix = toy2d_mixture()
    assert mix.labels == ("A", "B")
    assert np.array_equal(mix.means, [[2.0, 0.0], [-2.0, 0.0]])
    assert np.array_equal(mix.variances, [0.05, 0.05])
    assert np.array_equal(mix.weights, [0.5, 0.5])


def test_shapes32_counts_and_determinism():
    a = shapes32_dataset()
    b = shapes32_dataset()
    assert len(a) == 90
    labels = [lb for _, lb in a]
    for cls in SHAPE_CLASSES:
        assert labels.count(cls) == 30
    for (ia, la), (ib, lb) in zip(a, b):
        assert la == lb
        assert np.array_equal(ia.pixels, ib.pixels)


def test_shapes32_classes_are_well_separated():
    data = shapes32_dataset()
    means = np.stack([img.flatten() for img, _ in data])
    labels = [lb for _, lb in data]
    intra, inter = [], []
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            d = np.linalg.norm(means[i] - means[j])
            (intra if labels[i] == labels[j] else inter).append(d)
    assert np.mean(intra) < 0.5 * np.min(inter)


def test_exemplar_mixture_structure():
    data = shapes32_dataset(n_per_class=2)
    mix = exemplar_mixture(data, bandwidth=0.01)
    assert mix.n_components == 6
    assert mix.dim == 1024
    assert np.allclose(mix.weights, 1 / 6)
    assert np.allclose(mix.variances, 0.01)
    full = shapes32_mixture(n_per_class=2)
    assert np.array_equal(full.means, mix.means)


@pytest.mark.parametrize("n_per_class, seed, digest", [
    (30, 0, "31c648594a05d8d7"),
    (2, 1, "37e3fb7fc25c1fb6"),
])
def test_shapes32_pixels_are_pinned(n_per_class, seed, digest):
    # Every benchmark reference and the manifest oracle rest on these pixels.
    pixels = np.stack([img.pixels for img, _ in shapes32_dataset(n_per_class, seed)])
    assert hashlib.sha256(pixels.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("n_per_class", [0, -1])
def test_shapes32_needs_an_exemplar_per_class(n_per_class):
    with pytest.raises(ValueError, match="n_per_class must be >= 1"):
        shapes32_dataset(n_per_class)


def test_exemplar_mixture_needs_an_exemplar():
    with pytest.raises(ValueError, match="at least one exemplar"):
        exemplar_mixture([])
