"""Degradation-operator tests: kernels, linearity, noise, masks, parsing."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import convolve

from pdls.degrade import (
    Downsample,
    FreeformMask,
    GaussianBlur,
    Identity,
    ImageGrid,
    MotionBlur,
    NoiseModel,
    _convolve_reflect,
    apply,
    block_average,
    block_replicate,
    gaussian_kernel,
    make_freeform_mask,
    motion_kernel,
    parse_descriptor,
)


class TestGaussianKernel:
    def test_size_one_is_identity(self):
        assert np.array_equal(gaussian_kernel(1, 3.0), [[1.0]])

    def test_large_kernel_normalized_with_central_peak(self):
        k = gaussian_kernel(61, 3.0)
        assert abs(k.sum() - 1.0) < 1e-12
        assert k[30, 30] == k.max()

    def test_center_to_edge_ratio(self):
        for sigma in (0.8, 1.5, 3.0):
            k = gaussian_kernel(3, sigma)
            assert k[1, 1] / k[1, 0] == pytest.approx(np.exp(1 / (2 * sigma**2)), abs=1e-12)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            gaussian_kernel(4, 1.0)

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_kernel(3, 0.0)

    @pytest.mark.parametrize("size", [-1, -3, 0])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="kernel size must be odd and >= 1"):
            gaussian_kernel(size, 1.5)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0, 0.0])
    @pytest.mark.parametrize("size", [1, 7])
    def test_sigma_that_is_not_finite_and_positive_rejected(self, size, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            gaussian_kernel(size, sigma)

    @pytest.mark.parametrize("sigma", [1e200, 1.35e154, 5e-155, 1e-200, 5e-324])
    def test_sigma_that_overflows_the_kernel_rejected(self, sigma):
        # sigma^2 overflows, r^2 / (2 sigma^2) overflows, or sigma^2 underflows to 0
        # and the centre weight is 0 / 0.
        with pytest.raises(ValueError, match=re.escape(f"sigma {sigma} overflows a size-7 kernel")):
            gaussian_kernel(7, sigma)

    def test_extreme_sigma_that_computes_keeps_its_kernel(self):
        # 2 sigma^2 rounds to inf (every weight 1) or every off-centre weight
        # underflows to 0; neither overflows, and size 1 computes nothing.
        assert np.array_equal(gaussian_kernel(7, 1.3e154), np.full((7, 7), 1 / 49))
        delta = np.zeros((7, 7))
        delta[3, 3] = 1.0
        assert np.array_equal(gaussian_kernel(7, 1e-150), delta)
        assert np.array_equal(gaussian_kernel(1, 1e200), [[1.0]])
        assert np.array_equal(gaussian_kernel(1, 1e-200), [[1.0]])


class TestMotionKernel:
    def test_minimum_length_is_single_pixel(self):
        k = motion_kernel(7, 0.1, 45.0)
        assert np.count_nonzero(k) == 1
        assert k[3, 3] == 1.0

    def test_axis_aligned_half_length_line(self):
        k = motion_kernel(61, 0.5, 0.0)
        row = k[30]
        nz = np.nonzero(row)[0]
        assert nz.size == 31
        assert np.allclose(row[nz], 1.0 / 31, atol=1e-12)
        assert np.count_nonzero(k) == 31

    def test_unit_sum(self):
        for size, inten, ang in ((7, 0.5, 45.0), (61, 0.5, 30.0), (9, 1.0, 120.0)):
            assert abs(motion_kernel(size, inten, ang).sum() - 1.0) < 1e-12

    def test_intensity_validation(self):
        with pytest.raises(ValueError, match="intensity"):
            motion_kernel(7, 0.0)
        with pytest.raises(ValueError, match="intensity"):
            motion_kernel(7, 1.5)

    @pytest.mark.parametrize("size", [-3, -1, 0])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="kernel size must be odd and >= 1"):
            motion_kernel(size, 0.5)

    @pytest.mark.parametrize("angle", [np.nan, np.inf])
    def test_angle_that_is_not_finite_rejected(self, angle):
        with pytest.raises(ValueError, match="angle must be finite"):
            motion_kernel(7, 0.5, angle)

    def test_float_size_rejected(self):
        for kernel, args in ((motion_kernel, (0.5,)), (gaussian_kernel, (1.5,))):
            with pytest.raises(ValueError, match="kernel size must be an int, not 7.0"):
                kernel(7.0, *args)


@pytest.mark.parametrize("kernel", [lambda size: gaussian_kernel(size, 3.0),
                                    lambda size: motion_kernel(size, 0.5)])
def test_oversized_kernel_rejected(kernel):
    assert kernel(1025).shape == (1025, 1025)
    for size in (1027, 100001, 99999999):
        with pytest.raises(ValueError, match=f"kernel size must be at most 1025, not {size}"):
            kernel(size)


class TestApply:
    def test_identity_returns_input_exactly(self):
        rng = np.random.default_rng(0)
        img = ImageGrid(rng.uniform(0, 1, (16, 16)))
        out = apply(Identity(), img, NoiseModel(0.0))
        assert np.array_equal(out.pixels, img.pixels)

    def test_downsample_preserves_constants(self):
        img = ImageGrid(np.full((64, 64), 0.42))
        out = apply(Downsample(8), img, NoiseModel(0.0))
        assert out.pixels.shape == (8, 8)
        assert np.allclose(out.pixels, 0.42, atol=1e-12)

    def test_blur_of_a_centered_delta_is_the_kernel(self):
        img = np.zeros((31, 31))
        img[15, 15] = 1.0
        op = GaussianBlur(7, 1.5)
        out = apply(op, ImageGrid(img), NoiseModel(0.0))
        assert np.allclose(out.pixels[12:19, 12:19], op.kernel(), atol=1e-12)
        assert np.allclose(np.delete(out.pixels.ravel(),
                                     [31 * r + c for r in range(12, 19) for c in range(12, 19)]),
                           0.0, atol=1e-12)

    def test_operators_are_linear_on_convex_combinations(self):
        rng = np.random.default_rng(1)
        a = ImageGrid(rng.uniform(0, 1, (32, 32)))
        b = ImageGrid(rng.uniform(0, 1, (32, 32)))
        alpha = 0.3
        mixd = ImageGrid(alpha * a.pixels + (1 - alpha) * b.pixels)
        ops = [GaussianBlur(7, 1.5), MotionBlur(7, 0.5, 45.0), Downsample(8),
               FreeformMask(make_freeform_mask(32, 32, 0.15, seed=3)), Identity()]
        for op in ops:
            lhs = apply(op, mixd, NoiseModel(0.0)).pixels
            rhs = (alpha * apply(op, a, NoiseModel(0.0)).pixels
                   + (1 - alpha) * apply(op, b, NoiseModel(0.0)).pixels)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @settings(deadline=None)
    @given(st.data())
    def test_every_descriptor_kind_is_linear(self, data):
        odd = st.integers(0, 4).map(lambda i: 2 * i + 1)
        desc = data.draw(st.one_of(
            st.just("id"),
            st.builds("gblur:size={},sigma={}".format, odd, st.floats(0.3, 3.0)),
            st.builds("mblur:size={},intensity={},angle={}".format, odd,
                      st.floats(0.05, 1.0), st.floats(0.0, 360.0)),
            st.builds("sr:factor={}".format, st.sampled_from([1, 2, 4])),
            st.builds("inpaint:coverage={},seed={}".format, st.floats(0.05, 0.5),
                      st.integers(0, 1 << 16))))
        factor = int(desc.split("=")[1]) if desc.startswith("sr") else 1
        shape = (factor * data.draw(st.integers(2, 8)), factor * data.draw(st.integers(2, 8)))
        op = parse_descriptor(desc, image_shape=shape)
        a, b = (data.draw(arrays(float, shape, elements=st.floats(0.0, 1.0)))
                for _ in range(2))
        lam = data.draw(st.floats(0.0, 1.0))
        lhs = apply(op, ImageGrid(lam * a + (1 - lam) * b)).pixels
        rhs = lam * apply(op, ImageGrid(a)).pixels + (1 - lam) * apply(op, ImageGrid(b)).pixels
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_noise_standard_deviation(self):
        img = ImageGrid(np.full((256, 256), 0.5))
        out = apply(Identity(), img, NoiseModel(0.1, seed=2))
        resid = out.pixels - 0.5
        assert abs(resid.std() - 0.1) / 0.1 < 0.02

    def test_noise_is_seeded(self):
        img = ImageGrid(np.full((16, 16), 0.5))
        a = apply(Identity(), img, NoiseModel(0.05, seed=9))
        b = apply(Identity(), img, NoiseModel(0.05, seed=9))
        assert np.array_equal(a.pixels, b.pixels)

    @pytest.mark.parametrize("sigma_y", [-0.1, np.nan, np.inf])
    def test_noise_level_must_be_finite_and_non_negative(self, sigma_y):
        with pytest.raises(ValueError, match="sigma_y must be finite and non-negative"):
            apply(Identity(), ImageGrid(np.zeros((4, 4))), NoiseModel(sigma_y))

    def test_mask_zeroes_masked_pixels(self):
        mask = np.zeros((8, 8))
        mask[:4] = 1.0
        img = ImageGrid(np.full((8, 8), 0.7))
        out = apply(FreeformMask(ImageGrid(mask)), img, NoiseModel(0.0))
        assert np.all(out.pixels[:4] == 0.0)
        assert np.all(out.pixels[4:] == 0.7)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask dimensions"):
            apply(FreeformMask(ImageGrid(np.zeros((4, 4)))),
                  ImageGrid(np.zeros((8, 8))))

    def test_an_unknown_operator_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown degradation operator"):
            apply((7, 1.5), ImageGrid(np.zeros((4, 4))))

    def test_output_is_clamped(self):
        img = ImageGrid(np.full((16, 16), 0.99))
        out = apply(Identity(), img, NoiseModel(0.3, seed=0))
        assert out.pixels.max() <= 1.0
        assert out.pixels.min() >= 0.0


EPS = np.finfo(float).eps


def eps_weights(h: int, w: int, k: int, tap: int, seed: int = 0):
    """An (h, w) image and a (k, k) kernel whose flipped C-order taps tap - 1
    .. tap + 1 are +-eps and 1.01 eps: two left out of the footprint, one kept."""
    rng = np.random.default_rng(seed)
    flipped = rng.uniform(-1.0, 1.0, (k, k))
    flipped.flat[tap - 1:tap + 2] = [EPS, -EPS, 1.01 * EPS]
    return rng.uniform(0.0, 1.0, (h, w)), flipped[::-1, ::-1].copy()


@st.composite
def images_and_kernels(draw):
    """An image of 1-40 px per side and an odd kernel whose half-widths are at
    most the image's shorter side, with weights at and around machine epsilon."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kh, kw = (2 * draw(st.integers(0, min(h, w))) + 1 for _ in range(2))
    weights = st.one_of(st.floats(-1.0, 1.0),
                        st.sampled_from([0.0, EPS, -EPS, EPS / 2, 1.01 * EPS, -1.01 * EPS]))
    img = draw(arrays(float, (h, w), elements=st.floats(-1.0, 1.0)))
    return img, draw(arrays(float, (kh, kw), elements=weights))


def reflected(n: int, index: np.ndarray) -> np.ndarray:
    """Positions in 0..n-1 of the samples at index under reflect padding (period 2n)."""
    index = np.mod(index, 2 * n)
    return np.where(index < n, index, 2 * n - 1 - index)


class TestConvolution:
    @settings(deadline=None)
    @given(images_and_kernels())
    @example((np.random.default_rng(0).uniform(0, 1, (32, 32)), gaussian_kernel(61, 3.0)))
    # +-eps weights among the first, middle and last taps, beside a kept one.
    @example(eps_weights(32, 32, 7, 1))
    @example(eps_weights(32, 32, 7, 24, seed=1))
    @example(eps_weights(32, 32, 15, 223))
    @example(eps_weights(80, 80, 5, 12))
    @example(eps_weights(1, 1, 3, 7))
    def test_bitwise_equal_to_ndimage(self, case):
        img, kernel = case
        assert np.array_equal(_convolve_reflect(img, kernel),
                              convolve(img, kernel, mode="reflect"))

    def test_kernel_far_larger_than_the_image(self):
        # ndimage's reflect padding reads outside its buffer at this size and
        # returned NaNs or garbage that changed from call to call.
        img = ImageGrid(np.random.default_rng(0).uniform(0, 1, (5, 7)))
        op = GaussianBlur(61, 12.0)
        out = apply(op, img).pixels
        assert np.all(np.isfinite(out))
        assert np.array_equal(apply(op, img).pixels, out)
        r = op.size // 2
        padded = img.pixels[np.ix_(reflected(5, np.arange(-r, 5 + r)),
                                   reflected(7, np.arange(-r, 7 + r)))]
        direct = np.zeros((5, 7))
        for (a, b), wt in np.ndenumerate(op.kernel()[::-1, ::-1]):
            direct += wt * padded[a:a + 5, b:b + 7]
        assert np.array_equal(out, np.clip(direct, 0.0, 1.0))


class TestBlocks:
    def test_average_then_replicate_round_trip_on_blocks(self):
        rng = np.random.default_rng(4)
        small = rng.uniform(0, 1, (4, 4))
        big = block_replicate(small, 8)
        assert np.allclose(block_average(big, 8), small, atol=1e-12)

    def test_factor_must_divide(self):
        with pytest.raises(ValueError, match="factor must divide dimensions"):
            block_average(np.zeros((31, 31)), 8)


def full_grid_mask(width: int, height: int, coverage: float, seed: int) -> np.ndarray:
    """The walk as first written: every stamp and every count over the whole grid."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((height, width), dtype=bool)
    target = coverage * width * height
    radius = max(1, round(min(width, height) / 16))
    yy, xx = np.mgrid[0:height, 0:width]
    max_stamps = 50 * width * height
    stamps = 0
    while mask.sum() < target:
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        heading = rng.uniform(0, 2 * np.pi)
        for _ in range(rng.integers(4, 16)):
            disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
            mask |= disk
            stamps += 1
            if mask.sum() >= target:
                break
            heading += rng.normal(0, 0.6)
            cy = np.clip(cy + radius * np.sin(heading), 0, height - 1)
            cx = np.clip(cx + radius * np.cos(heading), 0, width - 1)
        if stamps > max_stamps:
            raise RuntimeError("could not reach requested mask coverage")
    return mask.astype(float)


class TestFreeformMask:
    @settings(deadline=None)
    @given(st.integers(1, 70), st.integers(1, 70), st.floats(1e-9, 0.99),
           st.integers(min_value=0))
    @example(1024, 1024, 0.15, 0)
    def test_bitwise_equal_to_the_full_grid_walk(self, width, height, coverage, seed):
        try:
            walk = full_grid_mask(width, height, coverage, seed)
        except RuntimeError:  # the walk gave up: so does the mask
            with pytest.raises(RuntimeError, match="could not reach"):
                make_freeform_mask(width, height, coverage, seed)
            return
        assert make_freeform_mask(width, height, coverage, seed).pixels.tobytes() == walk.tobytes()

    def test_coverage_within_band(self):
        mask = make_freeform_mask(64, 64, 0.15, seed=0)
        frac = mask.pixels.mean()
        assert 0.13 <= frac <= 0.17

    def test_determinism(self):
        a = make_freeform_mask(32, 32, 0.2, seed=5)
        b = make_freeform_mask(32, 32, 0.2, seed=5)
        assert np.array_equal(a.pixels, b.pixels)

    def test_tiny_coverage_still_masks_something(self):
        mask = make_freeform_mask(32, 32, 0.01, seed=1)
        assert mask.pixels.sum() >= 1

    def test_coverage_validation(self):
        with pytest.raises(ValueError, match="coverage"):
            make_freeform_mask(32, 32, 0.0, seed=0)


class TestDescriptors:
    def test_round_trip_presets(self):
        for op in (GaussianBlur(7, 1.5), MotionBlur(7, 0.5, 45.0),
                   Downsample(8), Identity()):
            parsed = parse_descriptor(op.descriptor(), image_shape=(32, 32))
            assert parsed == op

    @settings(deadline=None)
    @given(st.data())
    def test_every_descriptor_kind_round_trips(self, data):
        odd = st.integers(0, 4).map(lambda i: 2 * i + 1)
        shape = (data.draw(st.integers(4, 24)), data.draw(st.integers(4, 24)))
        op = data.draw(st.one_of(
            st.just(Identity()),
            st.builds(GaussianBlur, odd, st.floats(0.3, 3.0)),
            st.builds(MotionBlur, odd, st.floats(0.05, 1.0), st.floats(0.0, 360.0)),
            st.builds(Downsample, st.integers(1, 16)),
            st.builds(lambda coverage, seed: FreeformMask(
                make_freeform_mask(shape[1], shape[0], coverage, seed), (coverage, seed)),
                st.floats(0.05, 0.5), st.integers(0, 1 << 16))))
        parsed = parse_descriptor(op.descriptor(), image_shape=shape)
        assert type(parsed) is type(op)
        assert parsed.descriptor() == op.descriptor()
        assert parsed == op

    def test_large_kernel_descriptor(self):
        op = parse_descriptor("gblur:size=61,sigma=3.0")
        assert op == GaussianBlur(61, 3.0)

    def test_inpaint_needs_shape(self):
        with pytest.raises(ValueError, match="image shape"):
            parse_descriptor("inpaint:coverage=0.15")

    def test_inpaint_with_shape(self):
        op = parse_descriptor("inpaint:coverage=0.15,seed=2", image_shape=(32, 32))
        assert isinstance(op, FreeformMask)
        assert 0.13 <= op.mask.pixels.mean() <= 0.17

    def test_a_mask_not_drawn_here_names_only_its_coverage(self):
        mask = np.zeros((4, 4))
        mask[0] = 1.0
        assert FreeformMask(ImageGrid(mask)).descriptor() == "inpaint:coverage=0.2500"

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            parse_descriptor("sharpen:amount=2")

    def test_malformed_descriptor(self):
        with pytest.raises(ValueError, match="malformed operator"):
            parse_descriptor("gblur:size")

    @pytest.mark.parametrize("text", ["gblur:sigma=3,siz=61", "mblur:size=7,angel=30",
                                      "sr:scale=4", "inpaint:coverage=0.15,sed=2", "id:foo=1"])
    def test_unknown_parameter(self, text):
        with pytest.raises(ValueError, match="has no parameter"):
            parse_descriptor(text, image_shape=(32, 32))

    def test_left_out_parameters_take_the_operator_defaults(self):
        assert parse_descriptor("gblur:sigma=3") == GaussianBlur(sigma=3.0)
        assert parse_descriptor("mblur") == MotionBlur()
        assert parse_descriptor("sr") == Downsample()
        assert parse_descriptor("inpaint", image_shape=(32, 32)).descriptor() == \
            "inpaint:coverage=0.15,seed=0"


class TestImageGrid:
    def test_clamps_on_construction(self):
        # The clamp is np.clip's, bit for bit: a -0.0 pixel keeps its sign
        # and a NaN pixel stays NaN.
        px = np.array([[-0.5, 0.5, -0.0], [1.5, 1.0, np.nan]])
        img = ImageGrid(px)
        assert np.nanmin(img.pixels) == 0.0
        assert np.nanmax(img.pixels) == 1.0
        assert img.pixels.tobytes() == np.clip(px, 0.0, 1.0).tobytes()
        assert np.signbit(img.pixels[0, 2]) and np.isnan(img.pixels[1, 2])

    def test_equality_compares_pixels(self):
        assert ImageGrid(np.zeros((2, 2))) == ImageGrid(np.zeros((2, 2)))
        assert ImageGrid(np.zeros((2, 2))) != ImageGrid(np.eye(2))
        assert ImageGrid(np.zeros((2, 2))) != ImageGrid(np.zeros((2, 3)))
        mask = parse_descriptor("inpaint:coverage=0.15,seed=2", image_shape=(8, 8))
        assert mask == parse_descriptor("inpaint:coverage=0.15,seed=2", image_shape=(8, 8))
        assert mask != parse_descriptor("inpaint:coverage=0.15,seed=3", image_shape=(8, 8))
        assert mask != FreeformMask(mask.mask)

    def test_vector_round_trip(self):
        rng = np.random.default_rng(6)
        img = ImageGrid(rng.uniform(0, 1, (5, 7)))
        back = ImageGrid.from_vector(img.flatten(), 5, 7)
        assert np.array_equal(back.pixels, img.pixels)

    def test_vector_length_validation(self):
        with pytest.raises(ValueError, match="vector length"):
            ImageGrid.from_vector(np.zeros(10), 3, 4)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma_y"):
            apply(Identity(), ImageGrid(np.zeros((4, 4))), NoiseModel(-0.1))
