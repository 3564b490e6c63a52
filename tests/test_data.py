"""Manifests, augmentation, resampling, synthetic data, image IO."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merlib import imageio
from merlib.data import (AugmentConfig, Manifest, Sample, augment, box_smooth,
                         class_roi_mask, crop_square, load_manifest,
                         load_sample_image, merge_manifests, resample_balance,
                         rotate_image, save_manifest, shift_colors,
                         synth_dataset)
from merlib.errors import ConfigError, ManifestError, ValidationError

EMOTIONS = ["happiness", "surprise", "anger", "disgust", "sadness"]


def label_counts(manifest):
    """Samples per class, every class of the vocabulary included."""
    counts = Counter(s.label for s in manifest.samples)
    return {name: counts[name] for name in manifest.class_names}


def make_samples(counts: dict, subject="s1", database="db"):
    out = []
    for label, n in counts.items():
        for i in range(n):
            out.append(Sample(image=f"{label}_{i}.ppm", subject_id=subject,
                              database_id=database, raw_label=label, label=label))
    return out


class TestManifestFile:
    def _write(self, tmp_path, rows, header="image,subject,database,label,apex,clip_len"):
        """Write the CSV and a tiny PPM for the image each row names."""
        for row in rows:
            imageio.write_ppm(str(tmp_path / row.split(",")[0]),
                              np.zeros((2, 2, 3), dtype=np.uint8))
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_well_formed_rows_load_in_order(self, tmp_path):
        path = self._write(tmp_path, [
            "a.ppm,s1,casme2,happiness,30,60",
            "b.ppm,s2,casme2,anger,,",
            "c.ppm,s1,samm,sadness,5,9",
        ])
        m = load_manifest(path)
        assert [s.subject_id for s in m.samples] == ["s1", "s2", "s1"]
        assert m.samples[1].apex_index is None
        assert m.samples[2].clip_len == 9
        assert m.class_names == ["happiness", "anger", "sadness"]
        # relative paths resolve against the CSV's directory
        assert m.samples[0].image == str(tmp_path / "a.ppm")

    def test_missing_column_is_named(self, tmp_path):
        path = self._write(tmp_path, ["a.ppm,s1,x,happy"],
                           header="image,subject,database,label")
        with pytest.raises(ManifestError, match="apex"):
            load_manifest(path)

    def test_apex_outside_clip_cites_row(self, tmp_path):
        path = self._write(tmp_path, [
            "a.ppm,s1,db,happiness,3,10",
            "b.ppm,s1,db,anger,10,10",
        ])
        with pytest.raises(ManifestError, match=":3"):
            load_manifest(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            "a.ppm,s1,db,happiness,,",
            "a.ppm,s1,db,happiness,,",
        ])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_non_integer_apex_rejected(self, tmp_path):
        path = self._write(tmp_path, ["a.ppm,s1,db,happiness,peak,10"])
        with pytest.raises(ManifestError, match="apex"):
            load_manifest(path)

    def test_image_validation_flags_missing_files(self, tmp_path):
        path = self._write(tmp_path, ["here.ppm,s1,db,happiness,,",
                                      "gone.ppm,s1,db,anger,,"])
        (tmp_path / "gone.ppm").unlink()
        with pytest.raises(ManifestError, match=r":3: .*gone\.ppm"):
            load_manifest(path)

    def test_save_load_roundtrip(self, tmp_path):
        m = synth_dataset(3, 2, 2, image_size=16, seed=5)
        save_manifest(m, tmp_path / "out")
        back = load_manifest(tmp_path / "out" / "manifest.csv")
        assert len(back) == len(m)
        assert back.class_names == m.class_names
        assert [s.subject_id for s in back.samples] == [s.subject_id for s in m.samples]
        for orig, loaded in zip(m.samples, back.samples):
            assert np.array_equal(load_sample_image(loaded), orig.image)


class FixedDraw:
    """Generator stand-in: random() always returns `value`, so with
    value 0.0 every enabled augmentation fires and with 0.99 none does;
    every other draw goes to a real generator."""

    def __init__(self, value, seed=0):
        self.value = value
        self.rng = np.random.default_rng(seed)

    def random(self):
        return self.value

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestAugment:
    def _image(self, seed=0, size=16):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (size, size, 3), dtype=np.uint8)

    def test_all_draws_missing_leaves_image_untouched(self):
        img = self._image()
        cfg = AugmentConfig(color_shift_max=20, rotation_max_deg=10,
                            smooth_window_max=6)
        out = augment(img, cfg, FixedDraw(0.99))
        assert out.tobytes() == img.tobytes()

    def test_zero_rotation_is_identity(self):
        img = self._image(3)
        assert rotate_image(img, 0.0).tobytes() == img.tobytes()

    def test_color_shift_saturates(self):
        img = np.full((4, 4, 3), 255, dtype=np.uint8)
        out = shift_colors(img, (20, 20, 20))
        assert np.all(out == 255)

    def test_color_shift_clamps_at_zero(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        assert np.all(shift_colors(img, (-20, -5, -1)) == 0)

    def test_box_smooth_constant_image_unchanged(self):
        img = np.full((8, 8, 3), 77, dtype=np.uint8)
        for window in range(2, 7):
            assert np.all(box_smooth(img, window) == 77)

    def test_box_smooth_averages_neighbors(self):
        img = np.zeros((3, 3, 1), dtype=np.uint8)
        img[1, 1, 0] = 90
        out = box_smooth(img, 3)
        assert out[1, 1, 0] == 10  # 90 / 9

    def test_crop_corners_and_center(self):
        img = np.arange(6 * 6 * 3, dtype=np.uint8).reshape(6, 6, 3)
        assert np.array_equal(crop_square(img, 4, "top_left"), img[:4, :4])
        assert np.array_equal(crop_square(img, 4, "bottom_right"), img[2:, 2:])
        assert np.array_equal(crop_square(img, 4, "center"), img[1:5, 1:5])

    def test_crop_always_emits_target_size(self):
        img = self._image(5, size=12)
        cfg = AugmentConfig(crop=(12, 8))
        # the corner draw misses, the output is still 8x8 (center crop)
        out = augment(img, cfg, FixedDraw(0.99, seed=1))
        assert out.shape == (8, 8, 3)
        assert np.array_equal(out, img[2:10, 2:10])

    def test_crop_rejects_small_images(self):
        img = self._image(6, size=10)
        cfg = AugmentConfig(crop=(12, 8))
        with pytest.raises(ValidationError):
            augment(img, cfg, FixedDraw(0.0))

    def test_same_seed_same_output(self):
        img = self._image(7, size=20)
        cfg = AugmentConfig(color_shift_max=20, rotation_max_deg=10,
                            smooth_window_max=6, crop=(20, 16))
        a = augment(img, cfg, np.random.default_rng(123))
        b = augment(img, cfg, np.random.default_rng(123))
        assert a.tobytes() == b.tobytes()
        assert a.shape == (16, 16, 3)

    def test_dimensions_preserved_without_crop(self):
        img = self._image(8, size=18)
        cfg = AugmentConfig(color_shift_max=20, rotation_max_deg=10,
                            smooth_window_max=6)
        assert augment(img, cfg, FixedDraw(0.0, seed=2)).shape == img.shape

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AugmentConfig(color_shift_max=-1)
        with pytest.raises(ConfigError):
            AugmentConfig(smooth_window_max=1)
        with pytest.raises(ConfigError):
            AugmentConfig(crop=(10, 12))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                AugmentConfig(rotation_max_deg=bad)
            with pytest.raises(ConfigError):
                AugmentConfig(color_shift_max=bad)


class TestResample:
    def test_minority_class_cycled_up(self):
        m = Manifest(make_samples({"a": 3, "b": 1}), ["a", "b"])
        out = resample_balance(m)
        assert label_counts(out) == {"a": 3, "b": 3}
        # originals first, then the cycled duplicates of b's single sample
        assert out.samples[:4] == m.samples
        assert out.samples[4] is m.samples[3]
        assert out.samples[5] is m.samples[3]

    def test_balanced_input_is_a_noop(self):
        m = Manifest(make_samples({"a": 2, "b": 2}), ["a", "b"])
        assert resample_balance(m).samples == m.samples

    def test_pooled_table_counts(self):
        counts = dict(zip(EMOTIONS, (49, 28, 119, 34, 23)))
        m = Manifest(make_samples(counts), EMOTIONS)
        out = resample_balance(m)
        assert label_counts(out) == {name: 119 for name in EMOTIONS}
        assert len(out) == 595

    def test_distinct_sample_sets_unchanged(self):
        m = Manifest(make_samples({"a": 5, "b": 2}), ["a", "b"])
        out = resample_balance(m)
        assert {id(s) for s in out.samples} == {id(s) for s in m.samples}

    def test_empty_manifest_rejected(self):
        with pytest.raises(ManifestError):
            resample_balance(Manifest([], ["a"]))


class TestSynthDataset:
    def test_counts_and_fields(self):
        m = synth_dataset(5, 6, 4, image_size=16, seed=0)
        assert len(m) == 120
        assert m.class_names == [f"class{i}" for i in range(5)]
        assert len({s.subject_id for s in m.samples}) == 6
        per_class = label_counts(m)
        assert all(v == 24 for v in per_class.values())
        for s in m.samples[:5]:
            assert s.image.shape == (16, 16, 3)
            assert s.image.dtype == np.uint8

    def test_same_seed_is_bit_identical(self):
        a = synth_dataset(3, 2, 2, image_size=16, seed=9)
        b = synth_dataset(3, 2, 2, image_size=16, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.image.tobytes() == sb.image.tobytes()
        c = synth_dataset(3, 2, 2, image_size=16, seed=10)
        assert any(sa.image.tobytes() != sc.image.tobytes()
                   for sa, sc in zip(a.samples, c.samples))

    def test_images_are_pinned(self):
        # The digest of an earlier per-image implementation: the pixel
        # stream's draw order and the images' arithmetic must not change,
        # or every dataset made from a seed changes.
        m = synth_dataset(3, 2, 2, image_size=9, seed=4)
        digest = hashlib.sha256(b"".join(s.image.tobytes() for s in m.samples))
        assert digest.hexdigest() == (
            "83e6a5dcb6742a4bc98f7c7d3b329ee330d19a435d7356a67b03e3db999a5d5d")
        assert [s.label for s in m.samples[:6]] == [
            "class0", "class1", "class2"] * 2
        assert [s.subject_id for s in m.samples] == ["s00"] * 6 + ["s01"] * 6

    def test_class_signal_sits_in_its_quadrant(self):
        # Every subject contributes equally to every class mean, so texture
        # cancels in pairwise class-mean differences; what remains is the two
        # blobs, whose energy must concentrate in the two class quadrants.
        m = synth_dataset(4, 6, 6, image_size=32, seed=3)
        imgs = np.stack([s.image.astype(np.float64) for s in m.samples])
        labels = m.label_indices()
        means = [imgs[labels == c].mean(axis=0) for c in range(4)]
        for c in range(4):
            for d in range(c + 1, 4):
                diff = np.abs(means[c] - means[d]).sum(axis=2)
                union = class_roi_mask(c, 32, 32) | class_roi_mask(d, 32, 32)
                inside = diff[union].mean()
                outside = diff[~union].mean()
                assert inside > 5 * outside, \
                    f"classes {c},{d}: {inside:.2f} vs {outside:.2f}"

    def test_roi_masks_tile_the_image(self):
        masks = [class_roi_mask(c, 16, 16) for c in range(4)]
        total = np.zeros((16, 16), dtype=int)
        for mask in masks:
            total += mask.astype(int)
        assert np.all(total == 1)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            synth_dataset(1, 2, 2)
        with pytest.raises(ConfigError):
            synth_dataset(3, 0, 2)


class TestMerge:
    def test_pooling_keeps_order(self):
        a = Manifest(make_samples({"x": 2}, database="d1"), ["x"])
        b = Manifest(make_samples({"x": 1}, database="d2"), ["x"])
        merged = merge_manifests([a, b])
        assert len(merged) == 3
        assert [s.database_id for s in merged.samples] == ["d1", "d1", "d2"]

    def test_vocabulary_mismatch_rejected(self):
        a = Manifest(make_samples({"x": 1}), ["x"])
        b = Manifest(make_samples({"y": 1}), ["y"])
        with pytest.raises(ManifestError):
            merge_manifests([a, b])


@st.composite
def ppm_headers(draw):
    """(magic, (width, height, maxval) tokens, separators, raster length
    minus the header's need): each part is well formed three times in four."""
    def part(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))

    magic = part([b"P6", b"P5"], [b"P6x", b"P5\x00", b"P3", b"p6"])
    bad_numbers = [b"0", b"1_0", b"+2", b"-1", b"2.0", b"0x2", "\uff12".encode()]
    fields = (part([b"1", b"2", b"3", b"02"], bad_numbers),
              part([b"1", b"2", b"3", b"02"], bad_numbers),
              part([b"255", b"0255"], [b"256", b"2_55", b"+255", b"65535"]))
    # Any whitespace or comments between tokens; exactly one whitespace byte
    # between the last token and the raster.
    seps = (*draw(st.lists(st.sampled_from([b" ", b"\n", b"\t\r", b"\n# note\n"]),
                           min_size=3, max_size=3)),
            draw(st.sampled_from([b" ", b"\n", b"\t", b"\r"])))
    return magic, fields, seps, part([0, 0, 1, 5], [-1, -3])


class TestImageIO:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        imageio.write_ppm(path, img)
        assert np.array_equal(imageio.read_image(path), img)

    def test_pgm_reads_as_three_channels(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        imageio.write_pgm(path, img)
        back = imageio.read_image(path)
        assert back.shape == (3, 4, 3)
        assert np.array_equal(back[:, :, 0], img)
        assert np.array_equal(back[:, :, 1], img)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        raster = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + raster)
        img = imageio.read_image(path)
        assert img.shape == (2, 2, 3)
        assert img.tobytes() == raster

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(ValidationError, match="maxval"):
            imageio.read_image(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ValidationError, match="raster"):
            imageio.read_image(path)

    def test_non_pnm_rejected(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"JFIF....")
        with pytest.raises(ValidationError):
            imageio.read_image(path)

    @pytest.mark.parametrize("header", [
        b"P6x 2 2 255\n",       # used to decode as grayscale
        b"P5\x00 2 2 255\n",
        b"P6 1_0 1 255\n",      # used to read as width 10
        b"P6 +2 2 255\n",
        b"P6 2 2 2_55\n",
        "P6 \uff12 2 255\n".encode(),  # a fullwidth digit
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "h.ppm"
        path.write_bytes(header + bytes(30))
        with pytest.raises(ValidationError):
            imageio.read_image(path)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(header=ppm_headers(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_headers_give_validation_error_or_exact_image(
            self, tmp_path_factory, header, seed):
        magic, fields, seps, extra = header
        width, height, maxval = (int(f) if f.isdigit() else 0 for f in fields)
        channels = 3 if magic == b"P6" else 1
        need = width * height * channels
        raster = np.random.default_rng(seed).bytes(max(need + extra, 0))
        path = tmp_path_factory.getbasetemp() / "property.ppm"
        header = b"".join(token + sep for token, sep in zip((magic, *fields), seps))
        path.write_bytes(header + raster)
        if not (magic in (b"P6", b"P5") and all(f.isdigit() for f in fields)
                and width >= 1 and height >= 1 and maxval == 255
                and len(raster) >= need):
            with pytest.raises(ValidationError):
                imageio.read_image(path)
            return
        want = np.frombuffer(raster[:need], np.uint8).reshape(height, width, channels)
        assert np.array_equal(imageio.read_image(path), np.repeat(want, 3 // channels, axis=2))
