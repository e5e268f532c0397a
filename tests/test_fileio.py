"""File-format tests: PGM images and mixture definitions."""

import re

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


def token_read_pgm(path):
    """read_pgm's header grammar token by token, two regex matches per token: the
    oracle for its one-pattern header (pixels, or the FormatError message)."""
    data = path.read_bytes()
    pos = 0

    def token():
        nonlocal pos
        pos = re.match(rb"(?:\s|#[^\r\n]*[\r\n])*", data[pos:]).end() + pos
        m = re.match(rb"[^\s#]+", data[pos:])
        if m is None:
            raise FormatError(f"PGM {path}: malformed header at byte {pos}")
        pos += m.end()
        return m.group()

    try:
        if token() != b"P5":
            raise FormatError(f"PGM {path}: malformed header at byte 0: expected magic P5")
        try:
            width, height, maxval = int(token()), int(token()), int(token())
        except ValueError as exc:
            raise FormatError(f"PGM {path}: malformed header at byte {pos}") from exc
        if width <= 0 or height <= 0:
            raise FormatError(f"PGM {path}: size {width} x {height} is not positive")
        if maxval <= 0 or maxval > 255:
            raise FormatError(f"PGM {path}: unsupported maxval {maxval}")
        raster = data[pos + 1:pos + 1 + width * height]
        if len(raster) < width * height:
            raise FormatError(f"PGM {path}: truncated raster at byte {pos + 1 + len(raster)}")
    except FormatError as exc:
        return str(exc)
    return ImageGrid(np.frombuffer(raster, dtype=np.uint8).reshape(height, width) / maxval).pixels


def read_or_message(path):
    try:
        return read_pgm(path).pixels
    except FormatError as exc:
        return str(exc)


# Header bytes: a magic, then three numbers (some malformed or missing), each
# after a separator run (possibly empty) of whitespace and comments with
# either line end, and one byte where the raster would start.
header_separators = st.lists(st.sampled_from(
    [b" ", b"\t", b"\n", b"\r\n", b"\r", b"", b"#", b"# c\n", b"#c\r\n", b"#\x00\n"]),
    min_size=1, max_size=3).map(b"".join)
header_pieces = st.tuples(
    st.sampled_from([b"P5"] * 6 + [b"P2", b"P", b"", b"#"]),
    *[st.tuples(header_separators,
                st.sampled_from([b"1", b"2", b"3"] * 3 + [b"255", b"256", b"0", b"-1", b"+2",
                                                          b"1_0", b"x", b"", b"\xff"]))
      for _ in range(3)],
    st.sampled_from([b"", b" ", b"\n", b"\r\n", b"#"]),
).map(lambda parts: parts[0] + b"".join(b"".join(p) for p in parts[1:4]) + parts[4])


class TestPgmHeader:
    """One precompiled pattern reads the header; grammar and messages are unchanged."""

    @settings(deadline=None, max_examples=300)
    @given(header_pieces, st.binary(max_size=12))
    def test_same_result_as_the_token_reader(self, tmp_path_factory, header, tail):
        path = tmp_path_factory.getbasetemp() / "header.pgm"  # rewritten per example
        path.write_bytes(header + tail)
        got, want = read_or_message(path), token_read_pgm(path)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @settings(deadline=None)
    @given(quantized_images(), st.integers(1, 255), st.data())
    def test_gaps_line_ends_and_maxval(self, tmp_path_factory, img, maxval, data):
        # The raster write_pgm writes, its levels cut to maxval, under a header
        # with runs of whitespace, CRLF line ends and comments.
        gap = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "  ", "# note\r\n",
                                        "#\n", "#x y\r"]), min_size=1, max_size=4).map("".join)
        levels = (np.round(img.pixels * 255).astype(int) % (maxval + 1)).astype(np.uint8)
        path = tmp_path_factory.getbasetemp() / "maxval.pgm"  # rewritten per example
        write_pgm(path, ImageGrid(levels / 255.0))
        raster = path.read_bytes()[-img.width * img.height:]
        assert raster == levels.tobytes()
        header = "".join(["P5", data.draw(gap), str(img.width), data.draw(gap),
                          str(img.height), data.draw(gap), str(maxval),
                          data.draw(st.sampled_from(" \t\r\n"))])
        path.write_bytes(header.encode("ascii") + raster)
        assert np.array_equal(read_pgm(path).pixels, levels / maxval)

    @pytest.mark.parametrize("content, message", [
        (b"P5\n4 4\n255\n" + bytes(7), "truncated raster at byte 18"),
        (b"P2\n2 2\n255\n0 0 0 0\n", "malformed header at byte 0: expected magic P5"),
        (b"P5\n-2 3\n255\n" + bytes(9), "size -2 x 3 is not positive"),
        (b"P5\n3 0\n255\n", "size 3 x 0 is not positive"),
        (b"P5\n2 2\n300\n" + bytes(4), "unsupported maxval 300"),
        (b"P5 # open comment", "malformed header at byte 3"),
        (b"P5\n2 x\n255\n", "malformed header at byte 6"),
        (b"", "malformed header at byte 0"),
    ])
    def test_messages_are_unchanged(self, tmp_path, content, message):
        path = tmp_path / "m.pgm"
        path.write_bytes(content)
        with pytest.raises(FormatError) as info:
            read_pgm(path)
        assert str(info.value) == f"PGM {path}: {message}" == token_read_pgm(path)


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

    def test_a_token_without_equals_is_malformed(self, tmp_path):
        path = tmp_path / "bad.mix"
        path.write_text("weight=1.0 variance=0 label=A mean=1,2 stray\n")
        with pytest.raises(FormatError, match="malformed record on line 1"):
            read_mixture(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.mix"
        path.write_text("# header\nweight=1.0 label=A mean=1,2\n")
        with pytest.raises(FormatError, match="line 2"):
            read_mixture(path)

    @pytest.mark.parametrize("labels", [["my class", "b"], ["", "b"], [0, 1], [None, "b"]])
    def test_a_label_that_would_not_read_back_is_rejected(self, tmp_path, labels):
        mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.05, 0.0], labels)
        path = tmp_path / "m.mix"
        with pytest.raises(ValueError, match=re.escape(f"mixture label {labels[0]!r} ")):
            write_mixture(path, mix)
        assert not path.exists()


@st.composite
def mixtures(draw):
    """A mixture of 1-4 components in 1-3 dimensions with any finite means and
    variances. Most labels are printable ASCII without whitespace; the rest are
    any ASCII text, integers or None."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    raw = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)))
    means = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=k, max_size=k))
    variances = draw(st.lists(st.floats(0.0, 1e300), min_size=k, max_size=k))
    printable = st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S")),
                        min_size=1)
    label = st.one_of(printable, printable, printable,
                      st.text(st.characters(codec="ascii"), max_size=4), st.integers(), st.none())
    labels = draw(st.lists(label, min_size=k, max_size=k))
    return GaussianMixture(raw / raw.sum(), means, variances, labels)


class TestMixtureFileProperties:
    @settings(deadline=None)
    @given(mixtures())
    def test_write_then_read_is_the_mixture(self, tmp_path_factory, mix):
        """A written mixture reads back bitwise; one with a label that is not a
        non-empty str without whitespace is not written, and the error names it."""
        path = tmp_path_factory.mktemp("mix") / "m.mix"
        try:
            write_mixture(path, mix)
        except ValueError as exc:
            named = re.match(r"mixture label (.+) is not a non-empty", str(exc))[1]
            (label,) = {lb for lb in mix.labels if repr(lb) == named}
            assert not isinstance(label, str) or label.split() != [label]
            assert not path.exists()
            return
        back = read_mixture(path)
        for field in ("weights", "means", "variances"):
            got, want = getattr(back, field), getattr(mix, field)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert back.labels == mix.labels
