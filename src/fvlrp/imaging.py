"""Bit-exact image, heatmap and annotation I/O.

Pixel data lives in portable pixmaps (binary P5 for grayscale, P6 for
color) because they round-trip exactly without any codec dependency.
Heatmaps are stored as a raw binary matrix dump (format ``HMAP1``);
:func:`render_heatmap` maps one onto a fixed symmetric diverging
colormap for display.
Report figures are written as PNG by a minimal stdlib encoder.

File formats
------------
P5 / P6
    ASCII header ``P5|P6 <width> <height> <maxval>`` (``#`` comments
    allowed, maxval 255 or 65535), a single whitespace byte, then
    row-major samples: one byte per sample for maxval 255, two bytes
    big-endian for maxval 65535.
PNG
    Write-only: signature, IHDR (8-bit RGB), one IDAT holding every
    row with filter type 0, compressed by ``zlib`` at level
    ``_PNG_ZLIB_LEVEL``, then IEND. No ancillary chunks.
HMAP1
    Magic ``HMAP1``, two little-endian uint32 (width, height), then
    width*height little-endian float64, row-major.
Annotations
    One box per line: ``label xmin ymin xmax ymax`` with inclusive
    integer pixel coordinates.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import IoError, ParseError, ValidationError
from .util import read_container, write_container

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
        if px.ndim == 2:
            pass
        elif px.ndim == 3 and px.shape[2] == 3:
            pass
        else:
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
        """Boolean (height, width) mask of the covered pixels, clipped."""
        m = np.zeros((height, width), dtype=bool)
        x0, y0 = max(self.xmin, 0), max(self.ymin, 0)
        x1, y1 = min(self.xmax, width - 1), min(self.ymax, height - 1)
        if x1 >= x0 and y1 >= y0:
            m[y0:y1 + 1, x0:x1 + 1] = True
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


# ---------------------------------------------------------------------------
# Portable pixmap I/O


def _read_pnm_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` ASCII integer tokens after the magic, skipping comments.

    Returns the tokens and the offset of the first raster byte (one
    whitespace byte after the last token is consumed).
    """
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise ParseError("unexpected end of header")
        tok = data[start:i]
        if not tok.isdigit():
            raise ParseError(f"non-numeric header token {tok!r}")
        tokens.append(int(tok))
    if i >= n:
        raise ParseError("missing whitespace after header")
    i += 1  # single whitespace byte separating header from raster
    return tokens, i


def load_image(path) -> Image:
    """Load a binary P5 (grayscale) or P6 (color) portable map.

    Intensities are scaled by 1/maxval into [0, 1].
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(data) < 2:
        raise ParseError(f"{path}: too short for a pixmap header")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path}: unsupported magic {magic!r}")
    channels = 1 if magic == b"P5" else 3
    (width, height, maxval), offset = _read_pnm_tokens(data, 3)
    if width <= 0 or height <= 0:
        raise ParseError(f"{path}: non-positive dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ParseError(f"{path}: unsupported maxval {maxval}")
    nsamples = width * height * channels
    nbytes = nsamples * (1 if maxval == 255 else 2)
    body = data[offset:]
    if len(body) < nbytes:
        raise ParseError(f"{path}: truncated body ({len(body)} of {nbytes} bytes)")
    if len(body) > nbytes:
        raise ParseError(f"{path}: {len(body) - nbytes} trailing bytes after raster")
    if maxval == 255:
        raw = np.frombuffer(body, dtype=np.uint8)
    else:
        raw = np.frombuffer(body, dtype=">u2")
    px = raw.astype(np.float64) / float(maxval)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Image(px.reshape(shape))


def save_image(img: Image, path, maxval: int = 255) -> None:
    """Write `img` as binary P5/P6 with a canonical header.

    Intensities are quantized to round(v * maxval); an image previously
    loaded at the same maxval round-trips bit-exactly.
    """
    if maxval not in (255, 65535):
        raise ValidationError(f"unsupported maxval {maxval}")
    magic = b"P5" if img.channels == 1 else b"P6"
    q = np.rint(img.pixels * maxval).astype(np.uint32)
    q = np.clip(q, 0, maxval)
    if maxval == 255:
        body = q.astype(np.uint8).tobytes()
    else:
        body = q.astype(">u2").tobytes()
    header = b"%s\n%d %d\n%d\n" % (magic, img.width, img.height, maxval)
    try:
        with open(path, "wb") as fh:
            fh.write(header + body)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data)))


def save_png(img: Image, path) -> None:
    """Write `img` as an 8-bit RGB PNG; grayscale is replicated to RGB.

    Samples are quantized to round(v * 255) as in :func:`save_image`.
    The file holds no metadata, so its bytes depend only on the pixels
    and the zlib build.
    """
    q = np.rint(img.pixels * 255.0).astype(np.uint8)
    if img.channels == 1:
        q = np.repeat(q[:, :, None], 3, axis=2)
    rows = np.zeros((img.height, 1 + 3 * img.width), dtype=np.uint8)
    rows[:, 1:] = q.reshape(img.height, 3 * img.width)  # column 0: filter 0
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, 2, 0, 0, 0)
    payload = (_PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", zlib.compress(rows.tobytes(), _PNG_ZLIB_LEVEL))
               + _png_chunk(b"IEND", b""))
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Heatmap I/O


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
    if scale == 0.0:
        t = np.zeros_like(h.values)
    else:
        t = h.values / scale
    ramp_pos = np.rint(255.0 * (1.0 - np.maximum(t, 0.0)))
    ramp_neg = np.rint(255.0 * (1.0 + np.minimum(t, 0.0)))
    rgb = np.empty((h.height, h.width, 3), dtype=np.float64)
    rgb[:, :, 0] = np.where(t >= 0.0, 255.0, ramp_neg)
    rgb[:, :, 1] = np.where(t >= 0.0, ramp_pos, ramp_neg)
    rgb[:, :, 2] = np.where(t >= 0.0, ramp_pos, 255.0)
    return Image(rgb / 255.0)


def save_heatmap(h: Heatmap, path) -> None:
    """Write a heatmap as an HMAP1 binary dump."""
    write_container(path, _HMAP_MAGIC, (h.width, h.height),
                    h.values.astype("<f8").tobytes())


def load_heatmap(path) -> Heatmap:
    """Load an HMAP1 dump written by :func:`save_heatmap`."""
    (width, height), body = read_container(path, _HMAP_MAGIC, 2,
                                           lambda w, h: 8 * w * h)
    values = np.frombuffer(body, dtype="<f8").reshape(height, width)
    return Heatmap(values.copy())


# ---------------------------------------------------------------------------
# Bounding box annotations


def load_annotations(path) -> list[BoundingBox]:
    """Parse a text annotation file, one `label xmin ymin xmax ymax` per line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    boxes = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        label = parts[0]
        try:
            coords = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer coordinate") from exc
        boxes.append(BoundingBox(label, *coords))
    return boxes


def save_annotations(boxes: list[BoundingBox], path) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            for b in boxes:
                fh.write(f"{b.label} {b.xmin} {b.ymin} {b.xmax} {b.ymax}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
