"""Bit-exact pixmap/heatmap codecs, the boxes field and the diverging colormap."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvlrp.cli import decode_index
from fvlrp.errors import ParseError, ValidationError
from fvlrp.imaging import (BoundingBox, Heatmap, Image, decode_boxes,
                           decode_heatmap, decode_images, encode_boxes,
                           encode_heatmap, encode_image, encode_png, levels8,
                           load_image, render_heatmap, save_image)


def test_gray_roundtrip_bit_exact(tmp_path, rng):
    quantized = rng.integers(0, 256, (13, 9)).astype(np.float64) / 255.0
    img = Image(quantized)
    path = tmp_path / "g.pgm"
    save_image(img, path)
    back = load_image(path)
    assert back.pixels.shape == (13, 9)
    np.testing.assert_array_equal(back.pixels, img.pixels)
    save_image(back, tmp_path / "g2.pgm")
    assert (tmp_path / "g.pgm").read_bytes() == (tmp_path / "g2.pgm").read_bytes()


def test_color_roundtrip_bit_exact(tmp_path, rng):
    quantized = rng.integers(0, 256, (5, 7, 3)).astype(np.float64) / 255.0
    path = tmp_path / "c.ppm"
    save_image(Image(quantized), path)
    back = load_image(path)
    assert back.channels == 3
    np.testing.assert_array_equal(back.pixels, quantized)


def test_16bit_pixmap_is_refused(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n6 4\n65535\n" + bytes(2 * 6 * 4))
    with pytest.raises(ParseError, match="maxval 65535"):
        load_image(path)
    for maxval in (b"0255", b"254", b"1"):
        with pytest.raises(ParseError, match=f"unsupported maxval {maxval.decode()}"):
            decode_images(b"P5\n3 2\n" + maxval + b"\n" + bytes(6), 1)


def test_save_quantizes_to_nearest(tmp_path):
    img = Image(np.array([[0.0, 0.4 / 255.0, 0.6 / 255.0, 1.0]]))
    path = tmp_path / "q.pgm"
    save_image(img, path)
    back = load_image(path)
    np.testing.assert_allclose(back.pixels * 255.0, [[0.0, 0.0, 1.0, 255.0]])


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(ParseError):
        load_image(p)


def test_load_rejects_truncated_body(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(ParseError, match="image 0: raster has 7 bytes, expected 16"):
        load_image(p)


def _gray(rng, shape) -> Image:
    return Image(rng.integers(0, 256, shape) / 255.0)


def test_multi_image_file_roundtrip(rng):
    images = [_gray(rng, (4, 6)) for _ in range(3)]
    data = b"".join(encode_image(img) for img in images)
    back = list(decode_images(data, 3))
    assert len(back) == 3
    for img, got in zip(images, back):
        assert got.pixels.tobytes() == img.pixels.tobytes()


def test_multi_image_count_mismatch_is_refused(rng):
    data = b"".join(encode_image(_gray(rng, (4, 6))) for _ in range(3))
    with pytest.raises(ParseError, match="3 images, expected 4"):
        decode_images(data, 4)
    with pytest.raises(ParseError, match="2 images, then [0-9]+ trailing bytes"):
        decode_images(data, 2)


def test_multi_image_trailing_bytes_are_refused(rng):
    data = b"".join(encode_image(_gray(rng, (4, 6))) for _ in range(2))
    for tail in (b"\n", b"P5"):
        with pytest.raises(ParseError, match=f"2 images, then {len(tail)} trailing"):
            decode_images(data + tail, 2)
    with pytest.raises(ParseError, match="1 images, then 1 trailing"):
        decode_images(encode_image(_gray(rng, (4, 6))) + b"\n", 1)


def test_multi_image_second_image_has_its_own_header(rng):
    """Each image is read at the size its own header gives; a raster cut
    short, or a bad second header, names the image."""
    first, second = _gray(rng, (4, 6)), _gray(rng, (7, 3))
    data = encode_image(first) + encode_image(second)
    back = list(decode_images(data, 2))
    assert [img.pixels.shape for img in back] == [(4, 6), (7, 3)]
    assert back[1].pixels.tobytes() == second.pixels.tobytes()
    with pytest.raises(ParseError, match="image 1: raster has 20 bytes"):
        decode_images(data[:-1], 2)
    bad = encode_image(first) + encode_image(second).replace(b"255", b"65535", 1)
    with pytest.raises(ParseError, match="image 1: unsupported maxval 65535"):
        decode_images(bad, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 300),
                          st.booleans()), min_size=1, max_size=3),
       st.integers(0, 2 ** 31 - 1))
def test_any_stored_file_decodes_to_its_images(sizes, seed):
    """Gray and colour images of 1 to 300 pixels a side, one after
    another, decode bit for bit from the bytes `encode_image` wrote."""
    rng = np.random.default_rng(seed)
    images = [Image(rng.integers(0, 256, (h, w, 3) if colour else (h, w)) / 255.0)
              for w, h, colour in sizes]
    back = decode_images(b"".join(encode_image(img) for img in images), len(images))
    for img, got in zip(images, back, strict=True):
        assert got.pixels.shape == img.pixels.shape
        assert got.pixels.tobytes() == img.pixels.tobytes()


@pytest.mark.parametrize("header", [
    b"P5\n# made by hand\n3 2\n255\n", b"P5\n3\t2\n255\n",
    b"P5\r\n3 2\r\n255\r\n", b"P5\n3 2\n255\r\n", b"P5\n03 2\n255\n",
    b"P5\n3 02\n255\n", b"P5\n0 2\n255\n", b"P5\n3 0\n255\n",
    b"P5 3 2 255\n", b"P5\n3  2\n255\n", b"P5\n 3 2\n255\n",
    b"P5\n3 2\n255 ", b"P5\n-3 2\n255\n"],
    ids=["comment", "tab", "crlf", "cr-after-maxval", "leading-zero-width",
         "leading-zero-height", "zero-width", "zero-height", "one-line",
         "two-spaces", "leading-space", "space-after-maxval", "negative-width"])
def test_only_the_written_header_is_read(header):
    """The one header grammar is the one `encode_image` writes."""
    assert encode_image(Image(np.zeros((2, 3)))) == b"P5\n3 2\n255\n" + bytes(6)
    with pytest.raises(ParseError, match="image 0: header is not"):
        decode_images(header + bytes(6), 1)


def test_boxes_field_roundtrip():
    boxes = [BoundingBox("disk", 0, 1, 5, 6), BoundingBox("cross", 2, 2, 3, 9)]
    field = encode_boxes(boxes)
    assert field == "disk 0 1 5 6;cross 2 2 3 9"
    assert decode_boxes(field) == boxes
    assert encode_boxes([]) == "" and decode_boxes("") == []
    for bad in ("disk 0 1 5", "disk 0 1 5 6;", "disk 0 1 x 6"):
        with pytest.raises(ParseError):
            decode_boxes(bad)


def test_image_validates_range():
    with pytest.raises(ValidationError):
        Image(np.array([[1.5]]))
    with pytest.raises(ValidationError):
        Image(np.zeros((0, 3)))


def test_bounding_box_mask_and_contains():
    box = BoundingBox("x", 1, 2, 3, 4)
    mask = box.mask(6, 6)
    assert mask.sum() == 3 * 3
    assert mask[2, 1] and mask[4, 3]
    assert not mask[1, 1] and not mask[5, 4]
    assert mask[3, 2] and not mask[3, 4]
    corner = BoundingBox("x", 0, 0, 0, 0).mask(3, 2)
    assert corner.sum() == 1 and corner[0, 0]


def test_bounding_box_mask_clips_to_image():
    box = BoundingBox("x", 4, 4, 9, 9)
    assert box.mask(6, 6).sum() == 2 * 2
    assert not BoundingBox("x", 6, 0, 7, 2).mask(6, 6).any()
    assert not BoundingBox("x", 0, 6, 2, 7).mask(6, 6).any()


def read_png(data: bytes) -> tuple[tuple, np.ndarray]:
    """The IHDR fields and the RGB samples of a PNG as `encode_png`
    writes it, each chunk's CRC checked."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, i = [], 8
    while i < len(data):
        (length,), tag = struct.unpack(">I", data[i:i + 4]), data[i + 4:i + 8]
        body = data[i + 8:i + 8 + length]
        (crc,) = struct.unpack(">I", data[i + 8 + length:i + 12 + length])
        assert crc == zlib.crc32(tag + body)
        chunks.append((tag, body))
        i += 12 + length
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    ihdr = struct.unpack(">IIBBBBB", chunks[0][1])
    width, height = ihdr[:2]
    rows = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8)
    rows = rows.reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any()  # filter type 0 on every row
    return ihdr, rows[:, 1:].reshape(height, width, 3)


def test_png_holds_the_8bit_levels_of_every_channel(rng):
    gray = Image(rng.random((5, 7)))
    colour = Image(rng.random((5, 7, 3)))
    for img, rgb in ((gray, np.repeat(levels8(gray.pixels)[:, :, None], 3, axis=2)),
                     (colour, levels8(colour.pixels))):
        ihdr, samples = read_png(encode_png(img))
        assert ihdr == (7, 5, 8, 2, 0, 0, 0)  # 8-bit RGB, not interlaced
        np.testing.assert_array_equal(samples, rgb)


def test_levels8_rounds_to_the_nearest_level():
    # 0.5 and 254.5 are ties, which go to the even level as in `np.rint`
    v = np.array([0.0, 0.5 / 255, 0.49 / 255, 1.51 / 255, 254.5 / 255, 1.0])
    np.testing.assert_array_equal(levels8(v), [0, 0, 0, 2, 254, 255])
    assert levels8(v).dtype == np.uint8


def test_bounding_box_rejects_inverted():
    with pytest.raises(ValidationError):
        BoundingBox("x", 3, 0, 1, 4)


def test_annotations_roundtrip():
    """A box's annotation is one `label xmin ymin xmax ymax` item of the
    corpus index's `boxes` field."""
    boxes = [BoundingBox("disk", 0, 1, 5, 6), BoundingBox("cross", 2, 2, 3, 9),
             BoundingBox("tag", 7, 7, 7, 7)]
    assert decode_boxes(encode_boxes(boxes)) == boxes
    assert decode_boxes(encode_boxes(boxes[:1])) == boxes[:1]


def test_annotations_reject_malformed():
    for item in ("disk 1 2 3", "disk 1 2 3 4 5", "", "disk"):
        with pytest.raises(ParseError, match="expected 5 fields"):
            decode_boxes(f"cross 0 0 1 1;{item}")


def test_annotations_reject_non_ascii():
    """The boxes are a field of the corpus index, whose decoder refuses
    bytes that are not ASCII."""
    row = b"test\ttest-disk-0000\tdisk\t-\tdisk 1 2 3 \xff\n"
    with pytest.raises(ParseError, match="not ASCII"):
        decode_index(b"split\timage\tlabels\tflags\tboxes\n" + row)


def test_annotations_reject_non_integer_coordinate():
    for item in ("disk 1 2 3 4.0", "disk 1 2 x 4", "disk 1e1 2 3 4"):
        with pytest.raises(ParseError, match="non-integer coordinate"):
            decode_boxes(item)


def test_heatmap_roundtrip_bit_exact(rng):
    values = rng.normal(0.0, 3.0, (11, 7))
    data = b"".join(encode_heatmap(Heatmap(values)))
    assert len(data) == 13 + 8 * values.size
    assert decode_heatmap(data).values.tobytes() == values.tobytes()


def test_render_extremes_and_zero():
    img = render_heatmap(Heatmap(np.array([[2.0, -2.0], [0.0, 1.0]])))
    px = np.rint(img.pixels * 255.0)
    np.testing.assert_array_equal(px[0, 0], [255, 0, 0])      # max -> red
    np.testing.assert_array_equal(px[0, 1], [0, 0, 255])      # min -> blue
    np.testing.assert_array_equal(px[1, 0], [255, 255, 255])  # zero -> white


def test_render_is_scale_invariant(rng):
    values = rng.normal(size=(6, 5))
    a = render_heatmap(Heatmap(values)).pixels
    b = render_heatmap(Heatmap(values * 7.5)).pixels
    np.testing.assert_array_equal(a, b)


def test_render_all_zero_is_white():
    img = render_heatmap(Heatmap(np.zeros((3, 3))))
    np.testing.assert_array_equal(img.pixels, np.ones((3, 3, 3)))
