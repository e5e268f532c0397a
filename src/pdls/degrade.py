"""Forward measurement models y = A x + n.

Linear operators (Gaussian blur, motion blur, block-average downsampling,
freeform masking) plus an additive Gaussian noise model. Kernels are
normalized to unit sum. Convolutions pad by reflection about the image edge
(d c b a | a b c d | d c b a, numpy's "symmetric" and scipy.ndimage's
"reflect"), so constant images are preserved exactly. A kernel may be larger
than the image: the padding then repeats that reflection with period twice
the image side. Weights of magnitude at most machine epsilon are left out,
as scipy.ndimage leaves them out of its footprint, so a blur equals
``scipy.ndimage.convolve(img, kernel, mode="reflect")`` bitwise
(test_bitwise_equal_to_ndimage) wherever ndimage is sound: its padding
reads outside its buffer once the kernel's half-width reaches about four
times the image's shorter side.

Each operator costs its arithmetic. A blur multiplies each tap's slice of
the padded image by its weight into one buffer and adds it in place to the
running sum, in ndimage's order. A freeform mask is bitwise the walk that
tests every stamp on the whole grid, but a stamp's work is its window, so a
mask costs O(stamps * radius^2), not O(stamps * H * W)
(test_bitwise_equal_to_the_full_grid_walk).

Operators and the NoiseModel are NamedTuples of their parameters: they
compare and hash by them, equal the plain tuple of them
(test_value_records_compare_and_hash_by_value), and are checked when they
are applied (test_operator_parameters_are_checked_when_applied). An
ImageGrid checks its pixels at construction
(test_records_raise_at_construction), compares by them and is unhashable,
and so is a FreeformMask, which holds one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class ImageGrid:
    """Row-major grayscale image, pixels (height, width), with intensities clamped into [0, 1]."""

    def __init__(self, pixels):
        px = np.asarray(pixels, dtype=float)
        if px.ndim != 2:
            raise ValueError("image must be 2-D")
        self.pixels = px.clip(0.0, 1.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageGrid):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"ImageGrid(pixels={self.pixels!r})"

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def flatten(self) -> np.ndarray:
        return self.pixels.ravel().copy()

    @classmethod
    def from_vector(cls, vec, height: int, width: int) -> "ImageGrid":
        vec = np.asarray(vec, dtype=float)
        if vec.size != height * width:
            raise ValueError("vector length does not match image dimensions")
        return cls(vec.reshape(height, width))


class NoiseModel(NamedTuple):
    """I.i.d. Gaussian noise of standard deviation sigma_y, drawn from seed."""

    sigma_y: float = 0.0
    seed: int = 0


# 16 times the paper's largest kernel (61).
_MAX_KERNEL_SIZE = 1025


def _check_size(size: int) -> None:
    """Kernels are odd-sized and at most _MAX_KERNEL_SIZE wide: a dense kernel of
    size n holds n^2 weights, so a mistyped size would otherwise fail with a
    memory error deep inside numpy (test_oversized_kernel_rejected). A size that
    is not an int is rejected too (test_float_size_rejected)."""
    if not isinstance(size, (int, np.integer)):
        raise ValueError(f"kernel size must be an int, not {size!r}")
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, not {size}")
    if size > _MAX_KERNEL_SIZE:
        raise ValueError(f"kernel size must be at most {_MAX_KERNEL_SIZE}, not {size}")


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Separable Gaussian kernel sampled at pixel centers, normalized to sum 1."""
    _check_size(size)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, not {sigma}")
    if size == 1:
        return np.array([[1.0]])
    r = np.arange(size) - (size - 1) / 2
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            g = np.exp(-(r**2) / (2.0 * sigma**2))
    except (OverflowError, FloatingPointError):
        raise ValueError(f"sigma {sigma} overflows a size-{size} kernel") from None
    k = np.outer(g, g)
    return k / k.sum()


def motion_kernel(size: int, intensity: float, angle: float = 45.0) -> np.ndarray:
    """Line-segment kernel: length max(1, round(intensity*size)) pixels through
    the center at the given angle (degrees), bilinearly splatted, unit sum."""
    _check_size(size)
    if not 0.0 < intensity <= 1.0:
        raise ValueError("intensity must lie in (0, 1]")
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, not {angle}")
    length = max(1, int(np.floor(intensity * size + 0.5)))
    k = np.zeros((size, size))
    c = (size - 1) / 2
    theta = np.deg2rad(angle)
    dx, dy = np.cos(theta), np.sin(theta)
    w = 1.0 / length
    for i in range(length):
        s = i - (length - 1) / 2
        px, py = c + s * dx, c + s * dy
        x0, y0 = int(np.floor(px)), int(np.floor(py))
        fx, fy = px - x0, py - y0
        for ox, oy, wt in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                           (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
            xi, yi = x0 + ox, y0 + oy
            if 0 <= xi < size and 0 <= yi < size and wt > 0:
                k[yi, xi] += w * wt
    return k / k.sum()


def _descriptor(op) -> str:
    """The text parse_descriptor reads back into op: its _OPERATORS name and its _fields."""
    name = next(key for key, cls in _OPERATORS.items() if cls is type(op))
    params = ",".join(f"{f}={getattr(op, f)}" for f in op._fields)
    return f"{name}:{params}" if params else name


class GaussianBlur(NamedTuple):
    size: int = 7
    sigma: float = 1.5

    descriptor = _descriptor

    def kernel(self) -> np.ndarray:
        return gaussian_kernel(self.size, self.sigma)


class MotionBlur(NamedTuple):
    size: int = 7
    intensity: float = 0.5
    angle: float = 45.0

    descriptor = _descriptor

    def kernel(self) -> np.ndarray:
        return motion_kernel(self.size, self.intensity, self.angle)


class Downsample(NamedTuple):
    """Block averaging by factor >= 1."""

    factor: int = 8

    descriptor = _descriptor


class FreeformMask(NamedTuple):
    mask: ImageGrid  # 1 = masked (dropped), 0 = observed
    # (coverage, seed) of make_freeform_mask, where the mask was drawn by it
    drawn_with: tuple[float, int] | None = None

    def descriptor(self) -> str:
        """The parameters that draw this mask again; only its coverage for any other mask."""
        if self.drawn_with is not None:
            coverage, seed = self.drawn_with
            return f"inpaint:coverage={coverage},seed={seed}"
        frac = float(self.mask.pixels.mean())
        return f"inpaint:coverage={frac:.4f}"


class Identity(NamedTuple):
    """y = x: the operator of a plain denoising task."""

    descriptor = _descriptor


DegradationOperator = GaussianBlur | MotionBlur | Downsample | FreeformMask | Identity


def _convolve_reflect(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve with an odd-sized kernel under reflect padding (see the module
    docstring), adding the flipped kernel's weights in ndimage's C order.

    The padded image is read flat: output pixel (i, j) sits at i * pw + j of a
    row of pw = w + kw - 1 columns, so each tap's products are one contiguous
    slice times its weight, added in place to the running sum. The kw - 1
    columns past w are dropped; one more padded row lets the last slice fit."""
    kh, kw = kernel.shape
    h, w = img.shape
    pw = w + kw - 1
    n = h * pw
    padded = np.pad(img, ((kh // 2, kh // 2 + 1), (kw // 2, kw // 2)), mode="symmetric").ravel()
    flipped = kernel[::-1, ::-1]
    taps = np.flatnonzero(np.abs(flipped) > np.finfo(float).eps)
    out = np.zeros(n)
    product = np.empty(n)
    for t, wt in zip((taps // kw * pw + taps % kw).tolist(), flipped.ravel()[taps].tolist()):
        out += np.multiply(padded[t:t + n], wt, out=product)
    return out.reshape(h, pw)[:, :w].copy()


def block_average(img: np.ndarray, factor: int) -> np.ndarray:
    h, w = img.shape
    if not isinstance(factor, (int, np.integer)):
        raise ValueError(f"factor must be an int, not {factor!r}")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if h % factor or w % factor:
        raise ValueError("factor must divide dimensions")
    return img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def block_replicate(img: np.ndarray, factor: int) -> np.ndarray:
    """Pseudo-inverse of block averaging: replicate each block pixel."""
    return np.repeat(np.repeat(img, factor, axis=0), factor, axis=1)


def apply(op: DegradationOperator, image: ImageGrid, noise: NoiseModel = NoiseModel()) -> ImageGrid:
    """Apply the linear operator, then i.i.d. Gaussian noise, then clamp to [0, 1]."""
    if not 0.0 <= noise.sigma_y < np.inf:
        raise ValueError("sigma_y must be finite and non-negative")
    x = image.pixels
    if isinstance(op, (GaussianBlur, MotionBlur)):
        y = _convolve_reflect(x, op.kernel())
    elif isinstance(op, Downsample):
        y = block_average(x, op.factor)
    elif isinstance(op, FreeformMask):
        if op.mask.pixels.shape != x.shape:
            raise ValueError("mask dimensions must match image")
        y = np.where(op.mask.pixels > 0.5, 0.0, x)
    elif isinstance(op, Identity):
        y = x.copy()
    else:
        raise TypeError(f"unknown degradation operator {op!r}")
    if noise.sigma_y > 0:
        rng = np.random.default_rng(noise.seed)
        y = y + noise.sigma_y * rng.standard_normal(y.shape)
    return ImageGrid(y)


def make_freeform_mask(width: int, height: int, coverage: float, seed: int) -> ImageGrid:
    """Seeded random-walk brush strokes; masked fraction within +-2% of coverage.

    Each disk stamp tests its predicate only on the window of rows and columns
    within radius + 1 of its centre, which holds every pixel the predicate can
    accept, and counts the pixels it newly sets, so a stamp costs its window,
    not the whole grid; the mask is bitwise the full-grid walk's
    (test_bitwise_equal_to_the_full_grid_walk)."""
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    mask = np.zeros((height, width), dtype=bool)
    target = coverage * width * height
    radius = max(1, round(min(width, height) / 16))
    ys, xs = np.arange(height), np.arange(width)
    max_stamps = 50 * width * height
    stamps = masked = 0
    while masked < target:
        # one brush stroke: a short random walk of disk stamps
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        heading = rng.uniform(0, 2 * np.pi)
        for _ in range(rng.integers(4, 16)):
            rows = slice(max(int(cy) - radius - 1, 0), int(cy) + radius + 2)
            cols = slice(max(int(cx) - radius - 1, 0), int(cx) + radius + 2)
            disk = (ys[rows, None] - cy) ** 2 + (xs[cols] - cx) ** 2 <= radius**2
            window = mask[rows, cols]
            masked += np.count_nonzero(disk > window)
            window |= disk
            stamps += 1
            if masked >= target:
                break
            heading += rng.normal(0, 0.6)
            cy = min(max(cy + radius * float(np.sin(heading)), 0.0), height - 1.0)
            cx = min(max(cx + radius * float(np.cos(heading)), 0.0), width - 1.0)
        if stamps > max_stamps:
            raise RuntimeError("could not reach requested mask coverage")
    return ImageGrid(mask.astype(float))


# Descriptor name -> operator whose _fields are its parameters.
_OPERATORS = {"id": Identity, "gblur": GaussianBlur, "mblur": MotionBlur, "sr": Downsample}
# The inpaint parameters are those of make_freeform_mask, which draws the mask.
_INPAINT_DEFAULTS = {"coverage": 0.15, "seed": 0}


def parse_descriptor(text: str, image_shape: tuple[int, int] | None = None) -> DegradationOperator:
    """Parse CLI operator descriptors like 'gblur:size=61,sigma=3.0' or 'id'. A
    parameter left out takes its default; one the operator lacks is an error."""
    name, _, rest = text.partition(":")
    kv = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise ValueError(f"malformed operator descriptor {text!r}")
            kv[key.strip()] = val.strip()
    if name == "inpaint":
        defaults = _INPAINT_DEFAULTS
    elif name in _OPERATORS:
        defaults = _OPERATORS[name]._field_defaults
    else:
        raise ValueError(f"unknown operator {name!r}")
    unknown = set(kv) - set(defaults)
    if unknown:
        raise ValueError(f"{name} has no parameter {sorted(unknown)}, only {sorted(defaults)}")
    params = {}
    for key, default in defaults.items():
        try:
            params[key] = type(default)(kv.get(key, default))
        except ValueError:
            raise ValueError(f"operator {text!r}: {key} must be {type(default).__name__}, "
                             f"not {kv[key]!r}") from None
    if name != "inpaint":
        return _OPERATORS[name](**params)
    if image_shape is None:
        raise ValueError("inpaint descriptor needs a target image shape")
    h, w = image_shape
    coverage, seed = params["coverage"], params["seed"]
    if seed < 0:
        raise ValueError(f"operator {text!r}: seed must be >= 0, not {seed}")
    return FreeformMask(make_freeform_mask(w, h, coverage, seed), (coverage, seed))
