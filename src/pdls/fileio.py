"""File formats: binary PGM images, mixture definition files."""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .degrade import ImageGrid
from .flowfield import GaussianMixture


class FormatError(ValueError):
    """Malformed input file."""


def read_text(path, kind: str, error: type[ValueError] = FormatError) -> str:
    """The text of a UTF-8 file; other bytes raise error, naming the file as a kind of file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{kind} {path} is not UTF-8 text: {exc}") from exc


# A PGM header is four tokens (magic, width, height, maxval), each after a run
# of whitespace and '#' comments in any order; a comment runs to the end of
# its line. A token the header lacks matches empty where it would start.
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])*"
_PGM_HEADER = re.compile((_SEP + rb"([^\s#]*)") * 4)


def write_pgm(path, image: ImageGrid) -> None:
    """Binary PGM (magic P5, maxval 255). A new file gets mode 0o666 & ~umask; an
    existing one is written over and then cut to the new length, not truncated on
    open: an image restore makes its recon files empty before it writes them, and
    on ext4 an open that truncates a file flushes it at close."""
    px = np.round(image.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(header + px.tobytes())
        fh.truncate()


def read_pgm(path) -> ImageGrid:
    """Read a binary PGM; values are rescaled to [0, 1] by the file's maxval.
    A malformed file is a FormatError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if not header[1]:
        raise FormatError(f"PGM {path}: malformed header at byte {header.start(1)}")
    if header[1] != b"P5":
        raise FormatError(f"PGM {path}: malformed header at byte 0: expected magic P5")
    values = []
    for g in (2, 3, 4):
        try:
            values.append(int(header[g]))  # a missing token is b"", which fails too
        except ValueError as exc:
            raise FormatError(f"PGM {path}: malformed header at byte {header.end(g)}") from exc
    width, height, maxval = values
    if width <= 0 or height <= 0:
        raise FormatError(f"PGM {path}: size {width} x {height} is not positive")
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"PGM {path}: unsupported maxval {maxval}")
    pos = header.end(4) + 1  # single whitespace after maxval
    raster = data[pos:pos + width * height]
    if len(raster) < width * height:
        raise FormatError(f"PGM {path}: truncated raster at byte {pos + len(raster)}")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return ImageGrid(px.astype(float) / maxval)


def write_mixture(path, mixture: GaussianMixture) -> None:
    """One component per line: weight=... variance=... label=... mean=v0,v1,...
    A label is a non-empty str without whitespace, so that read_mixture reads
    the file back as the mixture (test_write_then_read_is_the_mixture); any
    other label is a ValueError before the file is opened."""
    for lb in mixture.labels:
        if not isinstance(lb, str) or lb.split() != [lb]:
            raise ValueError(f"mixture label {lb!r} is not a non-empty string without whitespace")
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
    for ln, line in enumerate(read_text(path, "mixture").splitlines(), start=1):
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
