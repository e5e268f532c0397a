"""File-format tests: PGM images and mixture definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdls.degrade import ImageGrid
from pdls.fileio import (
    FormatError,
    read_mixture,
    read_pgm,
    write_mixture,
    write_pgm,
)
from pdls.flowfield import GaussianMixture


class TestPgm:
    def test_round_trip_preserves_quantized_pixels(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = np.round(rng.uniform(0, 1, (12, 9)) * 255) / 255
        img = ImageGrid(quantized)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.pixels.shape == (12, 9)
        assert np.allclose(back.pixels, img.pixels, atol=1e-12)

    def test_foreign_maxval_is_rescaled(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 100, 25]))
        img = read_pgm(path)
        assert np.allclose(img.pixels, [[0.0, 0.5], [1.0, 0.25]], atol=1e-12)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([0, 255]))
        img = read_pgm(path)
        assert np.allclose(img.pixels, [[0.0, 1.0]])

    def test_truncated_raster_raises(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([0] * 7))
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(path)

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"-2 3", b"0 0", b"3 0"])
    def test_size_that_is_not_positive_raises(self, tmp_path, size):
        path = tmp_path / "s.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes([0] * 9))
        with pytest.raises(FormatError, match="is not positive") as info:
            read_pgm(path)
        assert str(path) in str(info.value)


@st.composite
def quantized_images(draw):
    """An 8-bit-quantised image of random size, as write_pgm stores it."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    levels = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return ImageGrid(np.array(levels, dtype=float).reshape(h, w) / 255)


# Any run of header whitespace and '#' comments, each comment ending its line.
header_gaps = st.lists(
    st.one_of(st.text(" \t\r\n", min_size=1, max_size=3),
              st.tuples(st.text(st.characters(codec="ascii", exclude_characters="\r\n"),
                                max_size=8), st.sampled_from("\r\n"))
              .map(lambda c: "#" + "".join(c))),
    min_size=1, max_size=4,
).map("".join)


class TestPgmProperties:
    @settings(deadline=None)
    @given(quantized_images())
    def test_write_then_read_is_the_identity(self, tmp_path_factory, img):
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path).pixels, img.pixels)

    @settings(deadline=None)
    @given(quantized_images(), st.lists(header_gaps, min_size=3, max_size=3),
           st.sampled_from(" \t\r\n"))
    def test_comments_and_whitespace_parse_the_same(self, tmp_path_factory, img, gaps,
                                                    last):
        px = np.round(img.pixels * 255).astype(np.uint8).tobytes()
        header = "P5" + gaps[0] + str(img.width) + gaps[1] + str(img.height) + gaps[2] + "255"
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        path.write_bytes((header + last).encode("ascii") + px)
        assert np.array_equal(read_pgm(path).pixels, img.pixels)

    @settings(deadline=None)
    @given(quantized_images(), st.data())
    def test_truncated_raster_raises(self, tmp_path_factory, img, data):
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        keep = data.draw(st.integers(len(raw) - img.width * img.height, len(raw) - 1))
        path.write_bytes(raw[:keep])
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(path)


class TestMixtureFile:
    def test_round_trip(self, tmp_path):
        mix = GaussianMixture(
            [0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.05, 0.0], ["A", "B"]
        )
        path = tmp_path / "m.mix"
        write_mixture(path, mix)
        back = read_mixture(path)
        assert np.array_equal(back.weights, mix.weights)
        assert np.array_equal(back.means, mix.means)
        assert np.array_equal(back.variances, mix.variances)
        assert back.labels == mix.labels

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.mix"
        path.write_text("weight=0.5 variance=oops label=A mean=1,2\n")
        with pytest.raises(FormatError, match="line 1"):
            read_mixture(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.mix"
        path.write_text("# header\nweight=1.0 label=A mean=1,2\n")
        with pytest.raises(FormatError, match="line 2"):
            read_mixture(path)

