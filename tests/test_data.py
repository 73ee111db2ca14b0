"""Synthetic generation, raster round trips, augmentation."""

import numpy as np
import pytest

from arcd.data import (AugmentationPolicy, BiTemporalSample,
                       SyntheticSceneSpec, augment, generate, generate_sample,
                       list_ids, read_dataset, read_gray, read_image,
                       read_mask, write_dataset, write_gray,
                       write_image, write_mask)
from arcd.errors import DataError, PnmParseError


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = SyntheticSceneSpec(seed=9)
        a = generate(spec, 3)
        b = generate(spec, 3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image_t1, sb.image_t1)
            assert np.array_equal(sa.image_t2, sb.image_t2)
            assert np.array_equal(sa.gt_change, sb.gt_change)

    def test_zero_change_fraction_gives_empty_masks(self):
        spec = SyntheticSceneSpec(change_fraction=0.0, seed=1)
        for s in generate(spec, 5):
            assert (s.gt_change == 0).all()

    def test_full_change_single_object_marks_footprint(self):
        spec = SyntheticSceneSpec(n_objects=(1, 1), change_fraction=1.0,
                                  noise=0.0, seed=2)
        s = generate_sample(spec, 0)
        # With one object toggled, the mask is exactly where the pair differs.
        diff = (np.abs(s.image_t1 - s.image_t2).max(axis=0) > 0)
        assert np.array_equal(s.gt_change.astype(bool), diff)
        assert s.gt_change.sum() > 0

    def test_mask_exactness_without_noise(self):
        spec = SyntheticSceneSpec(noise=0.0, change_fraction=0.6, seed=3)
        for s in generate(spec, 6):
            diff = (np.abs(s.image_t1 - s.image_t2).max(axis=0) > 0)
            assert np.array_equal(s.gt_change.astype(bool), diff)

    def test_images_in_unit_range(self):
        for s in generate(SyntheticSceneSpec(seed=4), 4):
            for img in (s.image_t1, s.image_t2):
                assert img.min() >= 0.0 and img.max() <= 1.0

    def test_indivisible_size_rejected(self):
        with pytest.raises(DataError, match="divisible by 32"):
            SyntheticSceneSpec(size=60)

    def test_sample_validation(self):
        good = generate_sample(SyntheticSceneSpec(seed=5), 0)
        with pytest.raises(DataError):
            BiTemporalSample(good.image_t1, good.image_t2[:, :32, :],
                             good.gt_change)
        with pytest.raises(DataError, match="binary"):
            BiTemporalSample(good.image_t1, good.image_t2,
                             good.gt_change + 2)


class TestAugment:
    def _sample(self, seed=0):
        return generate_sample(SyntheticSceneSpec(noise=0.0, seed=seed), 0)

    def test_all_probabilities_zero_is_identity(self):
        s = self._sample()
        out = augment(s, AugmentationPolicy(0.0, 0.0, 0.0),
                      np.random.default_rng(0))
        assert np.array_equal(out.image_t1, s.image_t1)
        assert np.array_equal(out.image_t2, s.image_t2)
        assert np.array_equal(out.gt_change, s.gt_change)

    def test_double_hflip_is_identity(self):
        s = self._sample(1)
        policy = AugmentationPolicy(1.0, 0.0, 0.0)
        once = augment(s, policy, np.random.default_rng(0))
        twice = augment(once, policy, np.random.default_rng(0))
        assert np.array_equal(twice.image_t1, s.image_t1)
        assert np.array_equal(twice.gt_change, s.gt_change)

    def test_temporal_exchange_swaps_images_only(self):
        s = self._sample(2)
        out = augment(s, AugmentationPolicy(0.0, 0.0, 1.0),
                      np.random.default_rng(0))
        assert np.array_equal(out.image_t1, s.image_t2)
        assert np.array_equal(out.image_t2, s.image_t1)
        assert np.array_equal(out.gt_change, s.gt_change)

    def test_pixel_correspondence_preserved(self):
        # The mask transforms exactly like the appearance difference.
        s = self._sample(3)
        policy = AugmentationPolicy(1.0, 1.0, 0.0)
        out = augment(s, policy, np.random.default_rng(7))
        diff = (np.abs(out.image_t1 - out.image_t2).max(axis=0) > 0)
        assert np.array_equal(out.gt_change.astype(bool), diff)

    def test_invalid_policy_rejected(self):
        with pytest.raises(DataError):
            AugmentationPolicy(p_hflip=1.5)


class TestPnm:
    def test_mask_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(10)
        mask = (rng.uniform(size=(33, 17)) < 0.5).astype(np.uint8)
        path = tmp_path / "m.pgm"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_mask_threshold_at_128(self, tmp_path):
        path = tmp_path / "m.pgm"
        header = b"P5\n3 1\n255\n"
        path.write_bytes(header + bytes([127, 128, 255]))
        assert np.array_equal(read_mask(path), [[0, 1, 1]])

    def test_maxval_not_255_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes(4))
        with pytest.raises(PnmParseError, match="maxval"):
            read_mask(path)

    def test_malformed_header_cites_byte_offset(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
        with pytest.raises(PnmParseError, match="at byte 3"):
            read_mask(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(PnmParseError, match="truncated"):
            read_mask(path)

    def test_comment_in_header_accepted(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([255, 0]))
        assert np.array_equal(read_mask(path), [[1, 0]])

    def test_image_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(11)
        img = np.round(rng.uniform(0, 1, (3, 8, 6)) * 255) / 255.0
        path = tmp_path / "i.ppm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == (3, 8, 6)
        assert np.abs(back - img).max() < 1e-12

    def test_image_scaling_by_255(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 128]))
        img = read_image(path)
        assert img[:, 0, 0] == pytest.approx([1.0, 0.0, 128 / 255])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes(1))
        with pytest.raises(PnmParseError, match="magic"):
            read_image(path)

    def test_gray_write_rounds_half_up(self, tmp_path):
        path = tmp_path / "u.pgm"
        write_gray(path, np.array([[0.0, 0.5, 1.0]]))
        raw = path.read_bytes()
        assert raw[-3:] == bytes([0, 128, 255])
        assert read_gray(path)[0, 1] == pytest.approx(128 / 255)


class TestDatasetLayout:
    def test_write_read_roundtrip(self, tmp_path):
        samples = generate(SyntheticSceneSpec(seed=12), 3)
        root = tmp_path / "ds"
        write_dataset(root, samples)
        assert list_ids(root) == ["0000", "0001", "0002"]
        back = read_dataset(root)
        assert len(back) == 3
        for orig, loaded in zip(samples, back):
            assert np.array_equal(loaded.gt_change, orig.gt_change)
            # Images survive up to the 8-bit quantization of the format.
            assert np.abs(loaded.image_t1 - orig.image_t1).max() <= 0.5 / 255

    def test_nonempty_dir_requires_force(self, tmp_path):
        samples = generate(SyntheticSceneSpec(seed=13), 1)
        root = tmp_path / "ds"
        write_dataset(root, samples)
        with pytest.raises(DataError, match="not empty"):
            write_dataset(root, samples)
        write_dataset(root, samples, force=True)

    def test_missing_epoch_image_rejected(self, tmp_path):
        samples = generate(SyntheticSceneSpec(seed=14), 1)
        root = tmp_path / "ds"
        write_dataset(root, samples)
        (root / "B" / "0000.ppm").unlink()
        with pytest.raises(DataError, match="0000"):
            read_dataset(root)
