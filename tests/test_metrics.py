"""Metric tests: PSNR pinned values, SSIM closed forms and its 2-D
convolution oracle, batched reports, class accuracy."""

import math

import numpy as np
import pytest
from scipy.signal import convolve2d

from pdls.datasets import shapes32_dataset, shapes32_mixture
from pdls.degrade import GaussianBlur, ImageGrid, MotionBlur, NoiseModel, apply, gaussian_kernel
from pdls.flowfield import GaussianMixture
from pdls.metrics import class_accuracy, mse, psnr, report, ssim


def convolved_ssim(a, b):
    """SSIM of one pair by valid-mode 2-D convolution, the oracle for the batched form."""
    win = gaussian_kernel(11, 1.5)
    c1, c2 = 0.01**2, 0.03**2

    def filt(img):
        return convolve2d(img, win, mode="valid")

    mu_a, mu_b = filt(a), filt(b)
    var_a = filt(a * a) - mu_a**2
    var_b = filt(b * b) - mu_b**2
    cov = filt(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def direct_accuracy(x, mixture, label):
    """class_accuracy by the direct squared distances, the oracle for the expanded form."""
    nearest = np.argmin(np.sum((mixture.means - x[None, :]) ** 2, axis=1))
    return int(mixture.labels[nearest] == label)


def degraded_pairs():
    """shapes32 sources and their blurred, noisy observations, as ImageGrids."""
    sources = [img for img, _ in shapes32_dataset(4, seed=1)]
    ops = (GaussianBlur(7, 1.5), MotionBlur(7, 0.5), GaussianBlur(5, 3.0))
    observed = [apply(ops[i % 3], img, NoiseModel(0.02, seed=i)) for i, img in enumerate(sources)]
    return observed, sources


class TestPsnr:
    def test_identical_images_hit_the_infinity_sentinel(self):
        img = np.full((16, 16), 0.3)
        assert psnr(img, img) == math.inf

    def test_twenty_decibels(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 0.1)  # mse 0.01
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_forty_decibels(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 0.01)  # mse 1e-4
        assert psnr(a, b) == pytest.approx(40.0, abs=1e-12)

    def test_mse_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (32, 32))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_reduce_to_luminance_term(self):
        c1, c2 = 0.3, 0.6
        a = np.full((16, 16), c1)
        b = np.full((16, 16), c2)
        k1 = (0.01 * 1.0) ** 2
        expected = (2 * c1 * c2 + k1) / (c1**2 + c2**2 + k1)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-12)

    def test_negative_image_scores_low(self):
        yy, xx = np.mgrid[0:32, 0:32]
        pattern = 0.5 + 0.4 * np.sin(xx / 3.0) * np.cos(yy / 4.0)
        assert ssim(pattern, 1.0 - pattern) < 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (20, 20))
        b = rng.uniform(0, 1, (20, 20))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_monotone_under_increasing_blur(self):
        rng = np.random.default_rng(2)
        img = ImageGrid(rng.uniform(0, 1, (32, 32)))
        scores = []
        for sigma in (0.5, 1.5, 3.0):
            blurred = apply(GaussianBlur(7, sigma), img, NoiseModel(0.0))
            scores.append(ssim(blurred, img))
        assert scores[0] > scores[1] > scores[2]

    def test_small_images_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_images_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))

    def test_batch_matches_the_convolution_oracle(self):
        observed, sources = degraded_pairs()
        a = np.stack([img.pixels for img in observed])
        b = np.stack([img.pixels for img in sources])
        got = ssim(a, b)
        assert got.shape == (len(a),)
        want = np.array([convolved_ssim(x, y) for x, y in zip(a, b)])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        for x, y, w in zip(a, b, want):
            assert abs(ssim(x, y) - w) <= 1e-12 * abs(w)

    def test_rectangular_images_match_the_convolution_oracle(self):
        yy, xx = np.mgrid[0:20, 0:13]
        a = 0.5 + 0.4 * np.sin(xx / 3.0) * np.cos(yy / 4.0)
        b = np.clip(a + 0.05 * np.cos(xx + yy), 0.0, 1.0)
        want = convolved_ssim(a, b)
        assert abs(ssim(a, b) - want) <= 1e-12 * abs(want)


class TestClassAccuracy:
    def _mixture(self):
        return GaussianMixture(
            [0.25, 0.25, 0.5],
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]],
            [0.0, 0.0, 0.0],
            ["a", "b", "c"],
        )

    def test_component_mean_scores_its_own_label(self):
        mix = self._mixture()
        assert class_accuracy(np.array([1.0, 0.0]), mix, "a") == 1
        assert class_accuracy(np.array([1.0, 0.0]), mix, "b") == 0

    def test_equidistant_tie_breaks_to_lowest_index(self):
        mix = self._mixture()
        # The origin is equidistant from components 0 and 1.
        assert class_accuracy(np.array([0.0, 0.0]), mix, "a") == 1
        assert class_accuracy(np.array([0.0, 0.0]), mix, "b") == 0

    def test_report_bundles_all_metrics(self):
        rng = np.random.default_rng(3)
        ref = ImageGrid(rng.uniform(0, 1, (16, 16)))
        rep = report(ref, ref)
        assert rep.mse == 0.0
        assert rep.psnr_db == math.inf
        assert rep.ssim == pytest.approx(1.0, abs=1e-12)
        assert rep.class_accuracy is None


class TestBatchedReport:
    def test_batch_equals_one_report_per_pair(self):
        observed, sources = degraded_pairs()
        mixture = shapes32_mixture(4, seed=1)
        labels = [lb for _, lb in shapes32_dataset(4, seed=1)]
        reports = report(observed, sources, mixture, labels)
        assert len(reports) == len(sources)
        for rep, x, y, label in zip(reports, observed, sources, labels):
            one = report(x, y, mixture, label)
            assert rep.mse == one.mse == mse(x, y)
            assert rep.psnr_db == one.psnr_db == psnr(x, y)
            assert rep.class_accuracy == one.class_accuracy == class_accuracy(
                x.flatten(), mixture, label)
            assert abs(rep.ssim - one.ssim) <= 1e-12 * abs(one.ssim)

    @pytest.mark.parametrize("shape", [(32, 32), (17, 40), (2,), (50,)])
    def test_batch_is_bitwise_the_per_pair_scores(self, shape):
        # Image stacks past one SSIM chunk, and (n, 2) toy2d points: every
        # score equals mse, psnr and single-image ssim exactly.
        rng = np.random.default_rng(7)
        n = 37
        refs = rng.uniform(0, 1, (n, *shape))
        recons = np.clip(refs + 0.05 * rng.standard_normal(refs.shape), 0.0, 1.0)
        recons[3] = refs[3]  # an exact reconstruction: psnr inf
        if len(shape) == 2:
            recons, refs = [ImageGrid(x) for x in recons], [ImageGrid(x) for x in refs]
        reps = report(list(recons), list(refs))
        for rep, x, y in zip(reps, recons, refs):
            assert rep.mse == mse(x, y)
            assert rep.psnr_db == psnr(x, y)
            assert rep.ssim == (ssim(x, y) if len(shape) == 2 else None)
        assert reps[3].psnr_db == math.inf

    def test_small_images_have_no_ssim(self):
        img = ImageGrid(np.full((8, 8), 0.25))
        reps = report([img, img], [img, ImageGrid(np.zeros((8, 8)))])
        assert [r.ssim for r in reps] == [None, None]
        assert reps[0].psnr_db == math.inf and reps[1].mse == pytest.approx(0.0625)

    def test_vector_pairs_have_no_ssim(self):
        # Points, as a toy restore scores them: a stack of 12 points of 16
        # coordinates is not one 12x16 image.
        rng = np.random.default_rng(3)
        xs, refs = rng.uniform(0, 1, (2, 12, 16))
        mixture = GaussianMixture([0.5, 0.5], rng.uniform(0, 1, (2, 16)), [0.1, 0.1], ["a", "b"])
        labels = ["a", "b"] * 6
        reps = report(list(xs), list(refs), mixture, labels)
        assert [r.ssim for r in reps] == [None] * 12
        assert [r.mse for r in reps] == [float(np.mean((x - y) ** 2)) for x, y in zip(xs, refs)]
        assert [r.psnr_db for r in reps] == [psnr(x, y) for x, y in zip(xs, refs)]
        assert [r.class_accuracy for r in reps] == [
            direct_accuracy(x, mixture, lb) for x, lb in zip(xs, labels)]

    def test_class_accuracy_on_ties_and_near_ties(self):
        # Row i lies between means 2i ("a") and 2i + 1 ("b"): offsets e and a
        # permutation of e scaled by 1 + s, so the two distances tie or
        # nearly tie. The expanded distances cannot order such pairs; the
        # batch and class_accuracy must still give the direct form's integer
        # for every row.
        rng = np.random.default_rng(0)
        xs, means = [], []
        for s in [0.0, 1e-12, -1e-12, 1e-10] * 25:
            x = rng.uniform(0.3, 0.7, 144)
            e = 1e-3 * rng.standard_normal(144)
            xs.append(x)
            means += [x + e, x + rng.permutation(e) * (1 + s)]
        # An exact tie in both forms: dyadic values, equal and opposite offsets.
        xs.append(np.full(144, 0.5))
        means += [np.full(144, 0.5 + 2.0**-6), np.full(144, 0.5 - 2.0**-6)]
        k = len(means)
        mixture = GaussianMixture(np.full(k, 1 / k), means, np.zeros(k), ["a", "b"] * (k // 2))
        images = [ImageGrid(x.reshape(12, 12)) for x in xs]
        reports = report(images, images, mixture, ["a"] * len(xs))
        got = [rep.class_accuracy for rep in reports]
        assert got == [direct_accuracy(x, mixture, "a") for x in xs]
        assert got == [class_accuracy(x, mixture, "a") for x in xs]
        assert 0 < sum(got) < len(xs) and got[-1] == 1

    def test_one_label_per_pair(self):
        img = ImageGrid(np.zeros((16, 16)))
        with pytest.raises(ValueError, match="one label per reference"):
            report([img, img], [img, img], None, ["a"])
        assert report([], []) == []

    def test_pairs_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            report(ImageGrid(np.zeros((16, 16))), ImageGrid(np.zeros((16, 17))))

    def test_an_unlabeled_mixture_rejected(self):
        img = ImageGrid(np.zeros((16, 16)))
        unlabeled = GaussianMixture([1.0], [np.zeros(256)], [0.0], [None])
        with pytest.raises(ValueError, match="mixture components must be labeled"):
            report(img, img, unlabeled, "a")
