"""Corpus generation: determinism, context statistics, and the corner tag."""

from dataclasses import replace

import numpy as np
import pytest

from fvlrp.errors import SpecError
from fvlrp.imaging import BoundingBox, Image, levels8, load_image, save_image
from fvlrp.synth import (SHAPES, ClassSpec, CorpusSpec, LabeledImage, TextureParams,
                         artefact_pair_spec, checkerboard_tag, generate_corpus,
                         inject_artefact, label_vectors, render_texture,
                         shape_mask, two_class_spec)


def tiny_spec(rho, seed=0, n=6, m=3):
    return two_class_spec(rho, seed=seed, train_per_class=n,
                          test_per_class=m, size=48)


def test_generation_is_deterministic():
    spec = tiny_spec(0.5, seed=11)
    a_train, a_test = generate_corpus(spec)
    b_train, b_test = generate_corpus(spec)
    for a, b in zip(a_train + a_test, b_train + b_test):
        np.testing.assert_array_equal(a.image.pixels, b.image.pixels)
        assert a.image_id == b.image_id and a.boxes == b.boxes


def test_counts_ids_and_value_range():
    spec = tiny_spec(0.0, n=4, m=2)
    train, test = generate_corpus(spec)
    assert len(train) == 8 and len(test) == 4
    assert len({im.image_id for im in train + test}) == 12
    assert train[0].image_id.startswith("train-")
    assert test[0].image_id.startswith("test-")
    for im in train + test:
        assert im.image.pixels.min() >= 0.0
        assert im.image.pixels.max() <= 1.0
        assert len(im.labels) == 1 and len(im.boxes) == 1


def test_pixels_survive_pgm_round_trip(tmp_path):
    train, test = generate_corpus(tiny_spec(0.5, seed=3))
    for im in train + test:
        path = tmp_path / f"{im.image_id}.pgm"
        save_image(im.image, path)
        back = load_image(path).pixels
        assert back.dtype == im.image.pixels.dtype
        assert back.tobytes() == im.image.pixels.tobytes(), im.image_id


def test_boxes_are_tight():
    """On flat white objects over a black background the object is the
    set of white pixels: each box's centre redraws exactly that mask, and
    the box is the mask's extremes."""
    mask = shape_mask("disk", 10, (20, 24), 48, 48)
    ys, xs = np.nonzero(mask)
    assert (xs.min(), xs.max(), ys.min(), ys.max()) == (15, 25, 19, 29)
    classes = tuple(
        ClassSpec(shape, shape, size, TextureParams(f, contrast=0.0, level=1.0),
                  TextureParams(f, contrast=0.0, level=0.0))
        for shape, size, f in (("disk", 11, 0.1), ("cross", 14, 0.2)))
    train, test = generate_corpus(CorpusSpec(48, 40, classes, 0.0, 8, 4, seed=2))
    for im in train + test:
        box, cls = im.boxes[0], classes[SHAPES.index(im.labels[0])]
        centre = ((box.xmin + box.xmax) // 2, (box.ymin + box.ymax) // 2)
        mask = shape_mask(cls.shape, cls.shape_size, centre, 48, 40)
        np.testing.assert_array_equal(mask, im.image.pixels == 1.0, im.image_id)
        ys, xs = np.nonzero(mask)
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (
            xs.min(), ys.min(), xs.max(), ys.max()), im.image_id


def _full_frame_render(spec):
    """(pixels, box, image id) of every image by the full-frame formula:
    both gratings over an `np.mgrid` frame, the object's taken under its
    mask by `np.where`, the box from the mask's nonzero coordinates."""
    y, x = np.mgrid[0:spec.height, 0:spec.width].astype(np.float64)

    def grating(tex, rng):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        carrier = x * np.cos(tex.orientation) + y * np.sin(tex.orientation)
        values = tex.level + tex.contrast * np.sin(
            2.0 * np.pi * tex.frequency * carrier + phase)
        return np.clip(values, 0.0, 1.0)

    rendered = []
    for split, name, count in ((0, "train", spec.train_per_class),
                               (1, "test", spec.test_per_class)):
        for ci, cls in enumerate(spec.classes):
            for i in range(count):
                rng = np.random.default_rng(
                    np.random.SeedSequence((spec.seed, split, ci, i)))
                bg = (cls if rng.random() < spec.context_correlation
                      else spec.classes[rng.integers(0, len(spec.classes))])
                background = grating(bg.background_texture, rng)
                half = cls.shape_size // 2 + 1
                dx = x - rng.integers(half, spec.width - half)
                dy = y - rng.integers(half, spec.height - half)
                r = cls.shape_size / 2.0
                if cls.shape == "disk":
                    mask = dx * dx + dy * dy <= r * r
                else:
                    arm = max(cls.shape_size // 4, 1) / 2.0
                    mask = (((np.abs(dy) <= arm) & (np.abs(dx) <= r)) |
                            ((np.abs(dx) <= arm) & (np.abs(dy) <= r)))
                pixels = np.where(mask, grating(cls.object_texture, rng), background)
                rows, cols = np.nonzero(mask)
                box = BoundingBox(cls.name, int(cols.min()), int(rows.min()),
                                  int(cols.max()), int(rows.max()))
                rendered.append((levels8(pixels) / 255.0, box,
                                 f"{name}-{cls.name}-{i:04d}"))
    return rendered


@pytest.mark.parametrize("spec", [
    *(pytest.param(two_class_spec(rho, seed=size, train_per_class=4, test_per_class=2,
                                  size=size), id=f"two-class-{rho}-{size}")
      for rho in (0.0, 0.5, 1.0) for size in (33, 48)),
    pytest.param(artefact_pair_spec(seed=7, train_per_class=4, test_per_class=2),
                 id="artefact-pair"),
    pytest.param(CorpusSpec(48, 40, two_class_spec(0.5).classes, 0.5, 6, 3, seed=9),
                 id="two-class-48x40"),
])
def test_corpus_equals_the_full_frame_render_byte_for_byte(spec):
    """Every image, box and id, also after `inject_artefact` on the
    `tagged` class of the artefact pair, equals the full-frame render."""
    train, test = generate_corpus(spec)
    rendered = _full_frame_render(spec)
    assert len(train + test) == len(rendered)
    for im, (pixels, box, image_id) in zip(train + test, rendered):
        ref = LabeledImage(Image(pixels), im.labels, (box,), image_id)
        for a, b in ((im, ref), (inject_artefact(im, "tagged"),
                                 inject_artefact(ref, "tagged"))):
            assert (a.image_id, a.boxes, a.flags) == (b.image_id, b.boxes, b.flags)
            assert a.image.pixels.tobytes() == b.image.pixels.tobytes(), image_id


def _orientation_energy(gray):
    gx = np.diff(gray, axis=1)
    gy = np.diff(gray, axis=0)
    return float((gx * gx).sum()), float((gy * gy).sum())


def _background_looks_vertical(im):
    """True when the outside-the-box texture varies mostly along x."""
    mask = np.ones((im.image.height, im.image.width), dtype=bool)
    b = im.boxes[0]
    mask[max(b.ymin - 2, 0):b.ymax + 3, max(b.xmin - 2, 0):b.xmax + 3] = False
    gray = np.where(mask, im.image.gray(), 0.5)
    ex, ey = _orientation_energy(gray)
    return ex > ey


def test_full_context_correlation_ties_background_to_class():
    spec = tiny_spec(1.0, seed=3, n=12)
    train, _ = generate_corpus(spec)
    first = spec.class_names[0]
    # two_class_spec gives class 0 a vertical background grating
    for im in train:
        assert _background_looks_vertical(im) == (first in im.labels)


def test_zero_context_correlation_mixes_backgrounds():
    spec = tiny_spec(0.0, seed=3, n=40)
    train, _ = generate_corpus(spec)
    vertical = {name: 0 for name in spec.class_names}
    for im in train:
        if _background_looks_vertical(im):
            vertical[im.labels[0]] += 1
    # both classes should draw both backgrounds; at n=40 per class a
    # 10/30 split or wider is astronomically unlikely
    for name in spec.class_names:
        assert 10 <= vertical[name] <= 30


def test_tag_injection_targets_class_and_corner():
    spec = tiny_spec(0.0, n=5)
    train, _ = generate_corpus(spec)
    tagged = [inject_artefact(im, spec.class_names[0]) for im in train]
    tag = checkerboard_tag()
    for before, after in zip(train, tagged):
        if spec.class_names[0] not in before.labels:
            assert after is before
            continue
        flag = [f for f in after.flags if f.startswith("tag-at-")]
        assert len(flag) == 1
        x0, y0 = map(int, flag[0].split("-")[2:])
        np.testing.assert_array_equal(
            after.image.gray()[y0:y0 + 8, x0:x0 + 8], tag)
        if "tag-overlaps-box" not in after.flags:
            b = after.boxes[0]
            assert (x0 + 7 < b.xmin or x0 > b.xmax or
                    y0 + 7 < b.ymin or y0 > b.ymax)


def test_tag_injection_is_idempotent():
    spec = tiny_spec(0.0, n=3)
    train, _ = generate_corpus(spec)
    im = next(t for t in train if spec.class_names[0] in t.labels)
    once = inject_artefact(im, spec.class_names[0])
    twice = inject_artefact(once, spec.class_names[0])
    np.testing.assert_array_equal(once.image.pixels, twice.image.pixels)
    assert once.flags == twice.flags


def test_tag_falls_back_when_every_corner_is_occupied():
    big = ClassSpec("big", "disk", 44,
                    TextureParams(0.2), TextureParams(0.3))
    spec = CorpusSpec(48, 48, (big,), 0.0, 1, 1, seed=0)
    train, _ = generate_corpus(spec)
    tagged = inject_artefact(train[0], "big")
    assert "tag-overlaps-box" in tagged.flags
    assert "tag-at-0-40" in tagged.flags  # bottom-left fallback


@pytest.mark.parametrize("floor", [False, True], ids=["open", "floor-taken"])
def test_tag_takes_the_first_corner_that_shares_no_pixel_with_a_box(floor):
    """Against every small box of a 20x24 image, alone or with a box
    taking both bottom corners, the tag goes to the first free corner
    in the order bottom-left, bottom-right, top-left, top-right."""
    w, h = 20, 24
    corners = [(0, 16), (12, 16), (0, 0), (12, 0)]
    extra = (BoundingBox("a", 0, 16, 19, 23),) if floor else ()
    for bw in (1, 2):
        for bh in (1, 2):
            for x in range(w - bw + 1):
                for y in range(h - bh + 1):
                    boxes = (BoundingBox("a", x, y, x + bw - 1, y + bh - 1),) + extra
                    taken = np.zeros((h, w), dtype=bool)
                    for box in boxes:
                        taken |= box.mask(w, h)
                    free = [f"tag-at-{x0}-{y0}" for x0, y0 in corners
                            if not taken[y0:y0 + 8, x0:x0 + 8].any()]
                    im = LabeledImage(Image(np.zeros((h, w))), ("a",), boxes, "i")
                    flags = inject_artefact(im, "a").flags
                    assert flags == ((free[0],) if free else
                                     ("tag-overlaps-box", "tag-at-0-16")), boxes


def test_tag_is_stamped_into_every_channel_of_a_colour_image():
    rng = np.random.default_rng(8)
    pixels = rng.random((16, 20, 3))
    im = LabeledImage(Image(pixels), ("a",), (), "colour")
    tagged = inject_artefact(im, "a")
    assert tagged.flags == ("tag-at-0-8",)
    tag = checkerboard_tag()
    for c in range(3):
        np.testing.assert_array_equal(tagged.image.pixels[8:, :8, c], tag)
    outside = np.ones((16, 20), dtype=bool)
    outside[8:, :8] = False
    np.testing.assert_array_equal(tagged.image.pixels[outside], pixels[outside])


def test_tag_must_fit():
    small = LabeledImage(Image(np.zeros((6, 6))), ("a",), (), "small")
    with pytest.raises(SpecError, match="does not fit"):
        inject_artefact(small, "a")


def test_label_vectors_signs():
    spec = tiny_spec(0.0, n=2, m=1)
    train, _ = generate_corpus(spec)
    vecs = label_vectors(train, spec.class_names)
    for name in spec.class_names:
        y = vecs[name]
        assert set(np.unique(y)) == {-1.0, 1.0}
        assert np.sum(y > 0) == 2
        for yi, im in zip(y, train):
            assert (yi > 0) == (name in im.labels)


def test_spec_validation():
    tex = TextureParams(0.25)
    cls = ClassSpec("a", "disk", 10, tex, TextureParams(0.125))
    with pytest.raises(SpecError):
        CorpusSpec(32, 32, (cls,), 1.5, 1, 1)
    with pytest.raises(SpecError):
        CorpusSpec(32, 32, (cls, cls), 0.0, 1, 1)  # duplicate names/textures
    for bad in (0.0, -0.1, 0.9):
        with pytest.raises(SpecError, match="frequency"):
            TextureParams(bad)
    for bad in ({"contrast": -0.01}, {"level": -0.01}, {"level": 1.01}):
        with pytest.raises(SpecError, match="contrast/level"):
            TextureParams(0.25, **bad)
    TextureParams(0.5, contrast=0.0, level=0.0)
    TextureParams(1e-9, level=1.0)
    with pytest.raises(SpecError):
        ClassSpec("a", "square", 10, tex, tex)


def test_box_on_the_last_row_and_column_fits_the_image():
    img = Image(np.zeros((5, 7)))
    LabeledImage(img, ("a",), (BoundingBox("a", 6, 4, 6, 4),), "edge")
    for box in (BoundingBox("a", 0, 0, 7, 4), BoundingBox("a", 0, 0, 6, 5)):
        with pytest.raises(SpecError, match="exceeds image bounds"):
            LabeledImage(img, ("a",), (box,), "over")


def test_cross_arms_are_a_quarter_of_its_size_and_at_least_one_pixel():
    for size, thickness in ((3, 1), (7, 1), (8, 3), (30, 7)):
        mask = shape_mask("cross", size, (20, 20), 40, 40)
        assert mask[:, 20].sum() == mask[20, :].sum() == 2 * (size // 2) + 1
        assert mask[:, 20 + size // 2].sum() == thickness, size  # the arm's end


def test_spec_refuses_objects_with_no_room_to_be_placed():
    # The cross (size 30) draws its centre from [16, size - 16).
    with pytest.raises(SpecError, match="'cross'"):
        two_class_spec(0.0, size=32)
    spec = two_class_spec(0.0, size=33, train_per_class=2, test_per_class=1)
    train, _ = generate_corpus(spec)
    cross = [im for im in train if im.labels == ("cross",)]
    assert all(im.boxes[0].xmin >= 0 and im.boxes[0].xmax < 33 for im in cross)


def test_render_texture_orientation_and_determinism():
    rng = np.random.default_rng(4)
    vert = render_texture(TextureParams(0.2, orientation=0.0), 32, 32, rng)
    ex, ey = _orientation_energy(vert)
    assert ex > 10 * ey  # varies along x only
    saturated = render_texture(TextureParams(0.25, contrast=2.0), 32, 32, rng)
    assert saturated.min() == 0.0 and saturated.max() == 1.0
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    tilted = TextureParams(0.2, orientation=0.7)
    np.testing.assert_array_equal(render_texture(tilted, 32, 32, rng_a),
                                  render_texture(tilted, 32, 32, rng_b))


def test_texture_phase_is_uniform_over_the_circle():
    """At f = 1/4 and orientation 0, pixels x = 0 and x = 1 read the sine
    and cosine of the drawn phase; their mean phasor is near 0 only when
    the phase covers the circle evenly."""
    params = TextureParams(0.25, orientation=0.0, contrast=0.3, level=0.5)
    rng = np.random.default_rng(0)
    rows = np.array([render_texture(params, 2, 1, rng)[0] for _ in range(2000)])
    sin, cos = (rows - params.level).T / params.contrast
    assert abs(np.mean(cos + 1j * sin)) < 0.08


def test_preset_gratings_stay_inside_the_pixel_range():
    """No preset grating is clipped, so each stays a pure sinusoid."""
    for spec in (two_class_spec(0.5), artefact_pair_spec()):
        for cls in spec.classes:
            for tex in (cls.object_texture, cls.background_texture):
                assert 0.0 <= tex.level - tex.contrast, cls.name
                assert tex.level + tex.contrast <= 1.0, cls.name


def test_artefact_pair_preset_is_valid_and_subtle():
    spec = artefact_pair_spec(seed=1, train_per_class=2, test_per_class=1)
    assert spec.class_names == ("tagged", "plain")
    train, test = generate_corpus(spec)
    assert len(train) == 4 and len(test) == 2
    # the two classes differ only by a sub-resolution texture tilt
    a, b = spec.classes
    assert a.object_texture != b.object_texture
    assert abs(a.object_texture.orientation - b.object_texture.orientation) < 0.1


def test_every_preset_class_turns_its_object_grating_from_its_background():
    """Each preset class's object grating lies pi/4 from its background
    grating; the tilt of `plain` turns both."""
    for spec in (two_class_spec(0.5), artefact_pair_spec()):
        for cls in spec.classes:
            turn = cls.object_texture.orientation - cls.background_texture.orientation
            assert turn == pytest.approx(np.pi / 4.0, abs=1e-12), cls.name


def test_presets_default_to_the_fixed_workload_sizes():
    """Both presets default to seed 0, 100 train and 20 test images per
    class, 64 px a side."""
    assert two_class_spec(0.0) == two_class_spec(0.0, 0, 100, 20, 64)
    assert artefact_pair_spec() == artefact_pair_spec(0, 100, 20, 64)


def test_artefact_pair_is_the_disk_class_and_its_tilted_twin():
    disk = two_class_spec(0.0).classes[0]
    tagged, plain = artefact_pair_spec().classes
    assert replace(tagged, name=disk.name) == disk
    assert (plain.shape, plain.shape_size) == (disk.shape, disk.shape_size)
