"""Synthetic labeled corpora with controllable context correlation.

Images are composed of a full-frame procedural background texture plus
one textured object shape (disk or cross) with a tight bounding box.
Every texture is an oriented sinusoid grating with a random phase. The
context correlation rho controls how predictive the background is: with
probability rho an image gets its class's own background texture,
otherwise one drawn uniformly from the shared pool of all class
backgrounds — so at rho=0 the background carries no label information
at all, and at rho=1 it identifies the class.

Every image is generated from its own ``SeedSequence((corpus seed,
split, class, index))`` stream, so corpora are reproducible bit for bit
and generation order (serial or parallel) cannot matter. A corpus builds
each texture's argument grid once and evaluates the object grating only
under its mask, by the same elementwise operations, so its images equal
the full-frame formula bit for bit. Pixels are quantized by
:func:`fvlrp.imaging.levels8`, so an image equals what its PGM decodes to.

The two presets, :func:`two_class_spec` and :func:`artefact_pair_spec`,
build every class from one recipe: the same object and background
gratings, differing only in shape, size and the two orientations.

:func:`inject_artefact` stamps a small high-contrast checkerboard tag
into a corner of selected-class images, reproducing the mechanism by
which a class-correlated artefact (rather than the object) can drive a
classifier.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecError
from .imaging import BoundingBox, Image, levels8

SHAPES = ("disk", "cross")


@dataclass(frozen=True)
class TextureParams:
    """Procedural texture: an oriented sinusoid grating.

    `frequency` is in cycles per pixel and `orientation` radians from
    the x axis. Values oscillate around `level` with amplitude
    `contrast`, at a phase drawn per image.
    """

    frequency: float
    orientation: float = 0.0
    contrast: float = 0.3
    level: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.frequency <= 0.5:
            raise SpecError("texture frequency must be in (0, 0.5] cycles/px")
        if self.contrast < 0.0 or not 0.0 <= self.level <= 1.0:
            raise SpecError("texture contrast/level out of range")


@dataclass(frozen=True)
class ClassSpec:
    name: str
    shape: str
    shape_size: int
    object_texture: TextureParams
    background_texture: TextureParams

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise SpecError(f"unknown shape {self.shape!r}")
        if self.shape_size < 3:
            raise SpecError("shape size must be at least 3 pixels")


def centre_range(shape_size: int, side: int) -> tuple[int, int]:
    """The [low, high) range an object's centre is drawn from along an
    image side of `side` pixels; empty when the object does not fit."""
    half = shape_size // 2 + 1
    return half, side - half


@dataclass(frozen=True)
class CorpusSpec:
    width: int
    height: int
    classes: tuple[ClassSpec, ...]
    context_correlation: float
    train_per_class: int
    test_per_class: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.context_correlation <= 1.0:
            raise SpecError("context correlation must lie in [0, 1]")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise SpecError("train/test counts must be >= 1")
        if len(self.classes) < 1:
            raise SpecError("need at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise SpecError("class names must be distinct")
        bgs = [c.background_texture for c in self.classes]
        objs = [c.object_texture for c in self.classes]
        if len(set(bgs)) != len(bgs) or len(set(objs)) != len(objs):
            raise SpecError("textures must be distinct across classes")
        for c in self.classes:
            for side in (self.width, self.height):
                low, high = centre_range(c.shape_size, side)
                if low >= high:
                    raise SpecError(
                        f"object {c.name!r} of size {c.shape_size} has no room "
                        f"in a {self.width}x{self.height} image")

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)


@dataclass(frozen=True)
class LabeledImage:
    image: Image
    labels: tuple[str, ...]
    boxes: tuple[BoundingBox, ...]
    image_id: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for box in self.boxes:
            if box.xmax >= self.image.width or box.ymax >= self.image.height:
                raise SpecError(f"box {box} exceeds image bounds")


def _texture_argument(params: TextureParams, width: int, height: int) -> np.ndarray:
    """2*pi*f*(x cos o + y sin o), shape (height, width): the phase-free argument."""
    y, x = np.ogrid[0:height, 0:width]
    carrier = x * np.cos(params.orientation) + y * np.sin(params.orientation)
    return 2.0 * np.pi * params.frequency * carrier


def _grating(params: TextureParams, argument: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """The texture at each `argument` value, at a phase drawn from `rng`."""
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return np.clip(params.level + params.contrast * np.sin(argument + phase), 0.0, 1.0)


def render_texture(params: TextureParams, width: int, height: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Texture values in [0, 1], shape (height, width)."""
    return _grating(params, _texture_argument(params, width, height), rng)


def shape_mask(shape: str, size: int, center: tuple[int, int],
               width: int, height: int) -> np.ndarray:
    """Boolean object mask; `center` is (cx, cy)."""
    cx, cy = center
    y, x = np.ogrid[0:height, 0:width]
    dx, dy = x - cx, y - cy
    half = size / 2.0
    if shape == "disk":
        return dx * dx + dy * dy <= half * half
    arm = max(size // 4, 1) / 2.0
    horiz = (np.abs(dy) <= arm) & (np.abs(dx) <= half)
    vert = (np.abs(dx) <= arm) & (np.abs(dy) <= half)
    return horiz | vert


def _tight_box(mask: np.ndarray, label: str) -> BoundingBox:
    ys, xs = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    return BoundingBox(label, int(xs[0]), int(ys[0]), int(xs[-1]), int(ys[-1]))


def _render_one(spec: CorpusSpec, arguments: dict, class_idx: int, split: int,
                index: int) -> LabeledImage:
    cls = spec.classes[class_idx]
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, split, class_idx, index)))
    # Background choice implements the context correlation.
    if rng.random() < spec.context_correlation:
        background = cls.background_texture
    else:
        background = spec.classes[rng.integers(0, len(spec.classes))].background_texture
    pixels = _grating(background, arguments[background], rng)
    cx = int(rng.integers(*centre_range(cls.shape_size, spec.width)))
    cy = int(rng.integers(*centre_range(cls.shape_size, spec.height)))
    mask = shape_mask(cls.shape, cls.shape_size, (cx, cy), spec.width, spec.height)
    pixels[mask] = _grating(cls.object_texture, arguments[cls.object_texture][mask], rng)
    # 8-bit levels, so an image equals what save_image/load_image return.
    pixels = levels8(pixels) / 255.0
    split_name = "train" if split == 0 else "test"
    image_id = f"{split_name}-{cls.name}-{index:04d}"
    return LabeledImage(Image(pixels), (cls.name,), (_tight_box(mask, cls.name),),
                        image_id)


def generate_corpus(spec: CorpusSpec) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Deterministic (train, test) lists, grouped by class then index. Each
    texture's argument grid is built once per call and the object grating
    is evaluated only under its mask; images equal the full-frame formula
    bit for bit."""
    arguments = {tex: _texture_argument(tex, spec.width, spec.height)
                 for cls in spec.classes
                 for tex in (cls.object_texture, cls.background_texture)}
    train = [_render_one(spec, arguments, ci, 0, i)
             for ci in range(len(spec.classes))
             for i in range(spec.train_per_class)]
    test = [_render_one(spec, arguments, ci, 1, i)
            for ci in range(len(spec.classes))
            for i in range(spec.test_per_class)]
    return train, test


def checkerboard_tag(size: int = 8, cell: int = 2) -> np.ndarray:
    """High-contrast checkerboard patch used as the corner artefact."""
    y, x = np.mgrid[0:size, 0:size]
    return (((x // cell) + (y // cell)) % 2).astype(np.float64)


def inject_artefact(img: LabeledImage, class_filter: str) -> LabeledImage:
    """Stamp the checkerboard tag into a corner of filtered-class images.

    The bottom-left corner is preferred; if it intersects a bounding
    box, the other corners are tried. When no corner is box-free the
    patch still goes bottom-left and the image is flagged.
    """
    if class_filter not in img.labels:
        return img
    tag = checkerboard_tag()
    th, tw = tag.shape
    w, h = img.image.width, img.image.height
    if tw > w or th > h:
        raise SpecError(f"tag {tw}x{th} does not fit in a {w}x{h} image")
    corners = [(0, h - th), (w - tw, h - th), (0, 0), (w - tw, 0)]
    flags = tuple(f for f in img.flags
                  if f != "tag-overlaps-box" and not f.startswith("tag-at-"))

    def overlaps(x0, y0):
        return any(box.xmin <= x0 + tw - 1 and box.xmax >= x0 and
                   box.ymin <= y0 + th - 1 and box.ymax >= y0
                   for box in img.boxes)

    placed = next(((x0, y0) for x0, y0 in corners if not overlaps(x0, y0)), None)
    if placed is None:
        placed = corners[0]
        flags = flags + ("tag-overlaps-box",)
    x0, y0 = placed
    flags = flags + (f"tag-at-{x0}-{y0}",)
    pixels = img.image.pixels.copy()
    # a trailing unit axis per channel axis broadcasts the tag over them
    pixels[y0:y0 + th, x0:x0 + tw] = tag.reshape(tag.shape + (1,) * (pixels.ndim - 2))
    return replace(img, image=Image(pixels), flags=flags)


def label_vectors(images: Sequence, classes: tuple[str, ...]) -> dict:
    """Per-class +/-1 label arrays aligned with the list; only each
    item's `.labels` is read, so any labelled record will do."""
    return {c: np.array([1.0 if c in im.labels else -1.0 for im in images])
            for c in classes}


# ---------------------------------------------------------------------------
# Corpus presets used by the experiments and the command-line pipeline.


def _preset_class(name: str, shape: str, shape_size: int,
                  object_orientation: float,
                  background_orientation: float) -> ClassSpec:
    """A preset class: a bright, coarsely textured object on a mid-gray,
    mid-frequency background grating. Preset classes differ only in
    name, shape, size and the two grating orientations."""
    return ClassSpec(
        name, shape, shape_size,
        TextureParams(0.125, object_orientation, contrast=0.15, level=0.82),
        TextureParams(0.25, background_orientation, contrast=0.35, level=0.45))


def two_class_spec(rho: float, seed: int = 0, train_per_class: int = 100,
                   test_per_class: int = 20, size: int = 64) -> CorpusSpec:
    """Disk-vs-cross corpus with orientation-coded background context.

    Backgrounds are mid-frequency gratings whose orientation (vertical
    vs horizontal stripes) is the context signal; they oscillate around
    mid-gray with a random phase per image, so after block-mean
    downscaling their class identity is hard to read off raw pixels.
    Objects are bright, coarsely textured shapes: easy for a pixel
    model (silhouette on mid-gray) and discriminative for a gradient
    descriptor at full resolution (boundary statistics + fill
    orientation).
    """
    disk = _preset_class("disk", "disk", 22, np.pi / 4.0, 0.0)
    cross = _preset_class("cross", "cross", 30, 3.0 * np.pi / 4.0, np.pi / 2.0)
    return CorpusSpec(size, size, (disk, cross), rho, train_per_class,
                      test_per_class, seed)


def artefact_pair_spec(seed: int = 0, train_per_class: int = 100,
                       test_per_class: int = 20, size: int = 64) -> CorpusSpec:
    """Two classes whose content is practically indistinguishable.

    The texture parameters differ only by a rotation far below the
    descriptor's orientation resolution, so neither objects nor
    backgrounds carry a usable class signal. Pair this corpus with
    ``inject_artefact`` on one class: the stamped corner tag is then
    the only reliable cue, the setting in which a classifier provably
    keys on an artefact rather than on content.
    """
    classes = tuple(_preset_class(name, "disk", 22, np.pi / 4.0 + tilt, tilt)
                    for name, tilt in (("tagged", 0.0), ("plain", 0.02)))
    return CorpusSpec(size, size, classes, 0.0, train_per_class,
                      test_per_class, seed)
