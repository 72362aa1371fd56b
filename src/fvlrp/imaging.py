"""Bit-exact image and heatmap codecs.

Pixel data lives in portable pixmaps (binary P5 for grayscale, P6 for
color) because they round-trip exactly without any codec dependency.
Heatmaps are stored as a raw binary matrix dump (format ``HMAP1``);
:func:`render_heatmap` maps one onto a fixed symmetric diverging
colormap for display.
Report figures are encoded as PNG by a minimal stdlib encoder.
Each format is encoded to and decoded from bytes (``encode_*`` and
``decode_*``); only the pixmaps also have ``save_image`` and
``load_image``, which add `fvlrp.util`'s file I/O.

File formats
------------
P5 / P6
    The ASCII header ``P5|P6\\n<width> <height>\\n255\\n`` and nothing
    else: decimal sizes of at least 1 with no leading zero, one space,
    one newline after each line, no comments. Then row-major samples,
    one byte each, the 8-bit levels of :func:`levels8`. A multi-image
    file is such images one after another, with nothing between them.
PNG
    Write-only: signature, IHDR (8-bit RGB), one IDAT holding every
    row with filter type 0, compressed by ``zlib`` at level
    ``_PNG_ZLIB_LEVEL``, then IEND. No ancillary chunks.
HMAP1
    Magic ``HMAP1``, two little-endian uint32 (width, height), then
    width*height little-endian float64, row-major.
Boxes
    :func:`encode_boxes` writes ``label xmin ymin xmax ymax`` items,
    with inclusive integer pixel coordinates, joined by ``;`` into one
    field of the corpus index.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .util import (container_chunks, load_file, parse_container,
                   write_file)

_HMAP_MAGIC = b"HMAP1"
_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_ZLIB_LEVEL = 9


@dataclass(frozen=True)
class Image:
    """A grayscale or color raster with intensities in [0, 1].

    ``pixels`` has shape (height, width) for 1 channel or
    (height, width, 3) for color, dtype float64, row-major.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if not (px.ndim == 2 or (px.ndim == 3 and px.shape[2] == 3)):
            raise ValidationError(f"pixel array must be (h, w) or (h, w, 3), got {px.shape}")
        if px.size == 0:
            raise ValidationError("image must contain at least one pixel")
        if not np.all(np.isfinite(px)):
            raise ValidationError("image intensities must be finite")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValidationError("image intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    def gray(self) -> np.ndarray:
        """Luminance view: channel mean for color, the plane itself for gray."""
        if self.channels == 1:
            return self.pixels
        return self.pixels.mean(axis=2)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with inclusive integer pixel coordinates."""

    label: str
    xmin: int
    ymin: int
    xmax: int
    ymax: int

    def __post_init__(self):
        if self.xmin < 0 or self.ymin < 0:
            raise ValidationError(f"box corners must be non-negative: {self}")
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise ValidationError(f"box max corner precedes min corner: {self}")

    def mask(self, width: int, height: int) -> np.ndarray:
        """Boolean (height, width) mask of the covered pixels, clipped
        (the corners are non-negative, so slicing clips)."""
        m = np.zeros((height, width), dtype=bool)
        m[self.ymin:self.ymax + 1, self.xmin:self.xmax + 1] = True
        return m


@dataclass(frozen=True)
class Heatmap:
    """One signed relevance value per pixel of the source image."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise ValidationError(f"heatmap must be a non-empty 2-d array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("heatmap values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def levels8(pixels: np.ndarray) -> np.ndarray:
    """Intensities in [0, 1] as the 8-bit levels round(255 * v), the one
    quantization every stored or rendered image goes through."""
    return np.rint(pixels * 255.0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Portable pixmap I/O


# The header `encode_image` writes and the only one `decode_images` reads:
# magic, width and height without a leading zero, and maxval, each field
# ended by exactly the byte shown.
_PNM_HEADER = re.compile(rb"(P[56])\n([1-9][0-9]*) ([1-9][0-9]*)\n([0-9]+)\n")


def _read_pnm_header(data: bytes, start: int) -> tuple[tuple[int, ...], int]:
    """The pixel shape of the P5/P6 map whose header is at `start`, and
    the offset of its raster, which must fit in `data`."""
    header = _PNM_HEADER.match(data, start)
    if header is None:
        raise ParseError("header is not `P5|P6\\n<width> <height>\\n255\\n`")
    magic, width, height, maxval = header.groups()
    if maxval != b"255":
        raise ParseError(f"unsupported maxval {maxval.decode()}")
    shape = (int(height), int(width)) + ((3,) if magic == b"P6" else ())
    offset, nbytes = header.end(), math.prod(shape)
    if len(data) - offset < nbytes:
        raise ParseError(f"raster has {len(data) - offset} bytes, expected {nbytes}")
    return shape, offset


def decode_images(data: bytes, count: int) -> Iterator[Image]:
    """The `count` images of a multi-image file of 8-bit binary P5
    (grayscale) or P6 (color) portable maps, in file order.

    Each image has its own header, so sizes may differ. Every header is
    parsed when this is called: a file that holds more or fewer images,
    a truncated raster or bytes after the last image are a `ParseError`
    then. Each image is then decoded as it is reached; intensities are
    scaled by 1/255 into [0, 1].
    """
    rasters, offset = [], 0
    for k in range(count):
        if offset == len(data):
            raise ParseError(f"{k} images, expected {count}")
        try:
            shape, offset = _read_pnm_header(data, offset)
        except ParseError as exc:
            raise ParseError(f"image {k}: {exc}") from None
        rasters.append((shape, offset))
        offset += math.prod(shape)
    if offset != len(data):
        raise ParseError(f"{count} images, then {len(data) - offset} trailing bytes")
    return (Image((np.frombuffer(data, np.uint8, math.prod(shape), start)
                   .astype(np.float64) / 255.0).reshape(shape))
            for shape, start in rasters)


def decode_image(data: bytes) -> Image:
    """Decode one 8-bit binary P5 (grayscale) or P6 (color) portable map."""
    (img,) = decode_images(data, 1)
    return img


def encode_image(img: Image) -> bytes:
    """`img` as 8-bit binary P5/P6 with a canonical header.

    Intensities are quantized to round(v * 255); an image previously
    decoded from such bytes round-trips bit-exactly.
    """
    magic = b"P5" if img.channels == 1 else b"P6"
    return (b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
            + levels8(img.pixels).tobytes())


def load_image(path) -> Image:
    return load_file(path, decode_image)


def save_image(img: Image, path) -> str:
    """Write `img` to `path`; returns the sha256 of the bytes written."""
    return write_file(path, [encode_image(img)])


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data)))


def encode_png(img: Image) -> bytes:
    """`img` as an 8-bit RGB PNG; grayscale is replicated to RGB.

    Samples are quantized to round(v * 255) as in :func:`encode_image`.
    It holds no metadata, so its bytes depend only on the pixels and
    the zlib build.
    """
    q = levels8(img.pixels)
    if img.channels == 1:
        q = np.repeat(q[:, :, None], 3, axis=2)
    rows = np.zeros((img.height, 1 + 3 * img.width), dtype=np.uint8)
    rows[:, 1:] = q.reshape(img.height, 3 * img.width)  # column 0: filter 0
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, 2, 0, 0, 0)
    idat = zlib.compress(rows.tobytes(), _PNG_ZLIB_LEVEL)
    return b"".join((_PNG_SIGNATURE, _png_chunk(b"IHDR", ihdr),
                     _png_chunk(b"IDAT", idat), _png_chunk(b"IEND", b"")))


# ---------------------------------------------------------------------------
# Heatmaps


def render_heatmap(h: Heatmap) -> Image:
    """Map relevances onto the fixed blue-white-red diverging colormap.

    With s = max|value| (the symmetric scale) and t = value/s in [-1, 1]:

    * t >= 0: (R, G, B) = (255, round(255*(1-t)), round(255*(1-t)))
    * t <  0: (R, G, B) = (round(255*(1+t)), round(255*(1+t)), 255)

    Zero maps to white; an all-zero heatmap renders all-white. Rendering
    depends only on value/max|value|, so positive rescaling of the
    heatmap yields the identical image.
    """
    scale = np.abs(h.values).max()
    t = h.values / scale if scale else np.zeros_like(h.values)
    # Red is 255 where t >= 0 and blue is 255 where t < 0, so green, which
    # follows the other channel's ramp, is the smaller of the two.
    red, blue = levels8(1.0 + np.minimum(t, 0.0)), levels8(1.0 - np.maximum(t, 0.0))
    return Image(np.stack((red, np.minimum(red, blue), blue), axis=2) / 255.0)


def encode_heatmap(h: Heatmap) -> Iterator[bytes]:
    """A heatmap as an HMAP1 binary dump."""
    return container_chunks(_HMAP_MAGIC, (h.width, h.height),
                            [h.values.astype("<f8").tobytes()])


def decode_heatmap(data: bytes) -> Heatmap:
    """Decode an HMAP1 dump that :func:`encode_heatmap` wrote."""
    (width, height), body = parse_container(data, _HMAP_MAGIC, 2,
                                            lambda w, h: 8 * w * h)
    values = np.frombuffer(body, dtype="<f8").reshape(height, width)
    return Heatmap(values.copy())


# ---------------------------------------------------------------------------
# Bounding boxes


def _decode_box(item: str) -> BoundingBox:
    parts = item.split()
    if len(parts) != 5:
        raise ParseError(f"expected 5 fields, got {len(parts)}")
    try:
        coords = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise ParseError("non-integer coordinate") from exc
    return BoundingBox(parts[0], *coords)


def _encode_box(b: BoundingBox) -> str:
    return f"{b.label} {b.xmin} {b.ymin} {b.xmax} {b.ymax}"


def decode_boxes(field: str) -> list[BoundingBox]:
    """The boxes of one field that :func:`encode_boxes` wrote; an empty
    field holds none."""
    return [_decode_box(item) for item in field.split(";")] if field else []


def encode_boxes(boxes) -> str:
    """The boxes as one field: `label xmin ymin xmax ymax` items joined
    by `;`, with no tab or newline in it."""
    return ";".join(_encode_box(b) for b in boxes)

