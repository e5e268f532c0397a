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
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class ImageGrid:
    """Row-major grayscale image with intensities clamped into [0, 1]."""

    pixels: np.ndarray  # (height, width)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2:
            raise ValueError("image must be 2-D")
        object.__setattr__(self, "pixels", px.clip(0.0, 1.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageGrid):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

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


@dataclass(frozen=True)
class NoiseModel:
    sigma_y: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma_y < np.inf:
            raise ValueError("sigma_y must be finite and non-negative")


def _check_size(size: int) -> None:
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, not {size}")


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


class _Parametric:
    """An operator whose descriptor is its _OPERATORS name and its dataclass fields."""

    def descriptor(self) -> str:
        """The text parse_descriptor reads back into this operator."""
        name = next(key for key, cls in _OPERATORS.items() if cls is type(self))
        params = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"{name}:{params}" if params else name


@dataclass(frozen=True)
class GaussianBlur(_Parametric):
    size: int = 7
    sigma: float = 1.5

    def kernel(self) -> np.ndarray:
        return gaussian_kernel(self.size, self.sigma)


@dataclass(frozen=True)
class MotionBlur(_Parametric):
    size: int = 7
    intensity: float = 0.5
    angle: float = 45.0

    def kernel(self) -> np.ndarray:
        return motion_kernel(self.size, self.intensity, self.angle)


@dataclass(frozen=True)
class Downsample(_Parametric):
    factor: int = 8

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("factor must be >= 1")


@dataclass(frozen=True)
class FreeformMask:
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


@dataclass(frozen=True)
class Identity(_Parametric):
    """y = x: the operator of a plain denoising task."""


DegradationOperator = GaussianBlur | MotionBlur | Downsample | FreeformMask | Identity


def _convolve_reflect(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve with an odd-sized kernel under reflect padding (see the module
    docstring), adding the flipped kernel's weights in ndimage's C order."""
    kh, kw = kernel.shape
    h, w = img.shape
    padded = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="symmetric")
    out = np.zeros((h, w))
    eps = np.finfo(float).eps
    for (a, b), wt in np.ndenumerate(kernel[::-1, ::-1]):
        if abs(wt) > eps:
            out += wt * padded[a:a + h, b:b + w]
    return out


def block_average(img: np.ndarray, factor: int) -> np.ndarray:
    h, w = img.shape
    if h % factor or w % factor:
        raise ValueError("factor must divide dimensions")
    return img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def block_replicate(img: np.ndarray, factor: int) -> np.ndarray:
    """Pseudo-inverse of block averaging: replicate each block pixel."""
    return np.repeat(np.repeat(img, factor, axis=0), factor, axis=1)


def apply(op: DegradationOperator, image: ImageGrid, noise: NoiseModel = NoiseModel()) -> ImageGrid:
    """Apply the linear operator, then i.i.d. Gaussian noise, then clamp to [0, 1]."""
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
    """Seeded random-walk brush strokes; masked fraction within +-2% of coverage."""
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    mask = np.zeros((height, width), dtype=bool)
    target = coverage * width * height
    radius = max(1, round(min(width, height) / 16))
    yy, xx = np.mgrid[0:height, 0:width]
    max_stamps = 50 * width * height
    stamps = 0
    while mask.sum() < target:
        # one brush stroke: a short random walk of disk stamps
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
    return ImageGrid(mask.astype(float))


# Descriptor name -> operator whose dataclass fields are its parameters.
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
        defaults = {f.name: f.default for f in fields(_OPERATORS[name])}
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
