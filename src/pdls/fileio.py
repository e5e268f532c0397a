"""File formats: binary PGM images, mixture definition files."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .degrade import ImageGrid
from .flowfield import GaussianMixture


class FormatError(ValueError):
    """Malformed input file."""


def write_pgm(path, image: ImageGrid) -> None:
    """Binary PGM (magic P5, maxval 255)."""
    px = np.round(image.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + px.tobytes())


def read_pgm(path) -> ImageGrid:
    """Read a binary PGM; values are rescaled to [0, 1] by the file's maxval."""
    data = Path(path).read_bytes()
    pos = 0

    def token():
        # Whitespace and '#' comments, in any order, separate header tokens;
        # a comment runs to the end of its line.
        nonlocal pos
        pos = re.compile(rb"(?:\s|#[^\r\n]*[\r\n])*").match(data, pos).end()
        m = re.compile(rb"[^\s#]+").match(data, pos)
        if m is None:
            raise FormatError(f"malformed PGM header at byte {pos}")
        pos = m.end()
        return m.group()

    if token() != b"P5":
        raise FormatError("malformed PGM header at byte 0: expected magic P5")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise FormatError(f"malformed PGM header at byte {pos}") from exc
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    pos += 1  # single whitespace after maxval
    raster = data[pos:pos + width * height]
    if len(raster) < width * height:
        raise FormatError(f"truncated PGM raster at byte {pos + len(raster)}")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return ImageGrid(px.astype(float) / maxval)


def write_mixture(path, mixture: GaussianMixture) -> None:
    """One component per line: weight=... variance=... label=... mean=v0,v1,..."""
    lines = ["# pdls mixture definition"]
    for w, m, v, lb in zip(mixture.weights, mixture.means, mixture.variances,
                           mixture.labels):
        mean = ",".join(repr(float(x)) for x in m)
        lines.append(f"weight={float(w)!r} variance={float(v)!r} label={lb} mean={mean}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_mixture(path) -> GaussianMixture:
    """Read a file write_mixture wrote. A malformed record, an empty file or
    records that make no valid mixture are a FormatError naming the file."""
    weights, means, variances, labels = [], [], [], []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for part in line.split():
            key, _, val = part.partition("=")
            if not val:
                raise FormatError(f"mixture {path}: malformed record on line {ln}")
            fields[key] = val
        try:
            weights.append(float(fields["weight"]))
            variances.append(float(fields["variance"]))
            labels.append(fields["label"])
            means.append([float(v) for v in fields["mean"].split(",")])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"mixture {path}: malformed record on line {ln}") from exc
        if len(means[-1]) != len(means[0]):
            raise FormatError(f"mixture {path}: mean on line {ln} has {len(means[-1])} "
                              f"values, the first record's {len(means[0])}")
    if not labels:
        raise FormatError(f"mixture {path}: no components")
    try:
        return GaussianMixture(weights, means, variances, labels)
    except ValueError as exc:
        raise FormatError(f"mixture {path}: {exc}") from exc
