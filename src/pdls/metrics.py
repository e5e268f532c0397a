"""Reconstruction-quality metrics and the semantic-fidelity proxy.

SSIM filters with an 11x11 Gaussian window, which is separable: over an
(n, h, w) stack of images it is two matrix products, (Wr @ X) @ Wc^T, with
banded matrices holding the 1-D window. That equals a per-image valid-mode
2-D convolution up to rounding (test_batch_matches_the_convolution_oracle).
A stack is scored a chunk of about _CHUNK pixels at a time, so that SSIM's
temporaries stay small enough for the allocator to reuse; each image is
scored on its own either way (test_batch_is_bitwise_the_per_pair_scores).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .degrade import ImageGrid, gaussian_kernel
from .flowfield import GaussianMixture

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_CHUNK = 8192


class MetricsReport(NamedTuple):
    """One pair's scores, a value: reports compare and hash by their scores, and
    equal the plain tuple of them (test_value_records_compare_and_hash_by_value)."""

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


def _psnr_from_mse(err: float) -> float:
    if err == 0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


def psnr(a, b) -> float:
    """10 log10(1 / mse) of intensities in [0, 1]; +inf when the images are identical."""
    return _psnr_from_mse(mse(a, b))


def _window_matrix(n: int) -> np.ndarray:
    """(n - W + 1, n) banded matrix: its product with a length-n column is the
    valid-mode convolution of the column with the 1-D SSIM window."""
    # The 2-D window is the outer product of its row sums with themselves.
    window = gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA).sum(axis=1)
    rows = n - window.size + 1
    return sum(w * np.eye(rows, n, k) for k, w in enumerate(window[::-1]))


def ssim(a, b):
    """Mean local SSIM over an 11x11 Gaussian window (sigma 1.5), standard constants
    at peak 1, of two images (a float) or of each pair of two (n, h, w) stacks ((n,) scores)."""
    a, b = _pixels(a), _pixels(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    if min(a.shape[-2:]) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    rows = _window_matrix(a.shape[-2])
    cols = _window_matrix(a.shape[-1])
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2

    def score(a, b):
        mu_a, mu_b, aa, bb, ab = ((rows @ x) @ cols.T for x in (a, b, a * a, b * b, a * b))
        var_a = aa - mu_a**2
        var_b = bb - mu_b**2
        cov = ab - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        return np.mean(num / den, axis=(-2, -1))

    if a.ndim == 2:
        return float(score(a, b))
    step = max(1, _CHUNK // (a.shape[-2] * a.shape[-1]))
    starts = range(0, max(len(a), 1), step)  # an empty stack is one empty chunk
    return np.concatenate([score(a[i:i + step], b[i:i + step]) for i in starts])


def _nearest_means(x, mixture: GaussianMixture) -> np.ndarray:
    """The index of the mixture mean nearest to each row of x (n, d), the
    lowest index on ties (test_class_accuracy_on_ties_and_near_ties).

    The expanded squared distances ||x||^2 - 2 x.mu + ||mu||^2 and the direct
    ones are within about (2d + 6) eps (||x||^2 + ||mu||^2) of the exact
    distance, so a row whose best two expanded distances are further apart
    than 9 (d + 3) eps (||x||^2 + max ||mu||^2), over four such errors, has the
    same nearest mean either way; the other rows take the direct distances."""
    if any(lb is None for lb in mixture.labels):
        raise ValueError("mixture components must be labeled")
    x_sq = np.einsum("nd,nd->n", x, x)
    d2 = x_sq[:, None] - 2.0 * (x @ mixture.means.T) + mixture.mean_sq
    nearest = np.argmin(d2, axis=1)
    if mixture.n_components > 1:
        best = np.partition(d2, 1, axis=1)
        bound = 9 * (x.shape[1] + 3) * np.finfo(float).eps * (x_sq + mixture.mean_sq.max())
        rows = np.flatnonzero(~(best[:, 1] - best[:, 0] > bound))
        nearest[rows] = np.argmin(np.sum((x[rows, None] - mixture.means) ** 2, axis=2), axis=1)
    return nearest


def report(reconstructions, references, mixture: GaussianMixture | None = None,
           true_labels=None):
    """MetricsReports of sequences of reconstructions and their references, one
    shape: MSE, PSNR, SSIM (images of at least 11x11, not vectors) and, given a
    mixture and a label per pair, class accuracy, 1 iff the nearest component
    mean carries the label (test_batch_equals_one_report_per_pair)."""
    recons, refs = list(reconstructions), list(references)
    labels = [None] * len(refs) if true_labels is None else list(true_labels)
    if len(recons) != len(refs) or len(labels) != len(refs):
        raise ValueError("report needs one reconstruction and one label per reference")
    if not refs:
        return []
    a = np.stack([_pixels(r) for r in recons])
    b = np.stack([_pixels(r) for r in refs])
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    images = b.ndim == 3 and min(b.shape[1:]) >= SSIM_WINDOW
    scores = ssim(a, b) if images else [None] * len(refs)
    accuracies = [None] * len(refs)
    scored = [i for i, label in enumerate(labels) if label is not None]
    if mixture is not None and scored:
        x = a.reshape(len(a), -1)
        nearest = _nearest_means(x if len(scored) == len(a) else x[scored], mixture)
        for i, k in zip(scored, nearest):
            accuracies[i] = int(mixture.labels[k] == labels[i])
    diff = a - b
    errs = np.mean(np.square(diff, out=diff), axis=tuple(range(1, a.ndim))).tolist()
    return [MetricsReport(mse=err, psnr_db=_psnr_from_mse(err),
                          ssim=None if score is None else float(score), class_accuracy=acc)
            for err, score, acc in zip(errs, scores, accuracies)]
