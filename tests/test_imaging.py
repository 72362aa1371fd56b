"""Bit-exact pixmap/heatmap codecs, the boxes field and the diverging colormap."""

import numpy as np
import pytest

from fvlrp.cli import decode_index
from fvlrp.errors import ParseError, ValidationError
from fvlrp.imaging import (BoundingBox, Heatmap, Image, decode_boxes,
                           decode_heatmap, decode_images, encode_boxes,
                           encode_heatmap, encode_image, load_image,
                           render_heatmap, save_image)


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
    with pytest.raises(ParseError):
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


def test_bounding_box_mask_clips_to_image():
    box = BoundingBox("x", 4, 4, 9, 9)
    assert box.mask(6, 6).sum() == 2 * 2


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
