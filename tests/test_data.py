"""Synthetic generation, raster round trips, augmentation."""

import hashlib

import numpy as np
import pytest

from arcd.data import synth
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

    # sha256 over dtype and bytes of image_t1, image_t2 and gt_change of
    # generate(SyntheticSceneSpec(size, change_fraction, seed=15), 3),
    # computed before the generator built footprints lazily and painted in
    # place; both must leave every byte as it was.
    GENERATE_SHA256 = {
        (64, 0.0): "8540aea85eb248a81107be62da383741c2b786533c89cc4ca3f29e8ef1763be7",
        (64, 0.5): "8e0f494958e77dfedacc9259f2cbdd1af58e4296b760279bdf656340700d6eca",
        (64, 1.0): "a181ae8fa7c46e25a5ddc8532ab51b61ada893f8fb6158fbd224733cbe16e915",
        (128, 0.0): "b51302b7d65055a67dc38d927360eed1d73ff93655ba989fb22cde7725697396",
        (128, 0.5): "2f9241469ea6b558e13d9f35ab53d10fe4695b4fa5300e6f6091ca2fb5b74618",
        (128, 1.0): "1f39a50a872479491a02da9582bf9aaad7aa0c0895f1725f7606c0b73da9a109",
        (256, 0.0): "42a7d804edd37e9c2e2b048ede8562e527453f78bba1535f7d6f8721ae42f3d2",
        (256, 0.5): "d63011477bbe39efe5d634025833d02711176f4273394a33d3b3a8e06d4cbe28",
        (256, 1.0): "4737a75008805de2ad34aba6725d538e777a15e777cb1c8c3eae23dd8f0e695f",
    }

    @pytest.mark.parametrize("size,change_fraction", list(GENERATE_SHA256))
    def test_generate_outputs_are_pinned(self, size, change_fraction):
        spec = SyntheticSceneSpec(size=size, change_fraction=change_fraction,
                                  seed=15)
        h = hashlib.sha256()
        for s in generate(spec, 3):
            for a in (s.image_t1, s.image_t2, s.gt_change):
                h.update(a.dtype.str.encode())
                h.update(a.tobytes())
        assert h.hexdigest() == self.GENERATE_SHA256[size, change_fraction]

    def test_footprint_built_once_per_placed_object(self, monkeypatch):
        counts = {"boxes": 0, "footprints": 0, "placed": 0}
        real_box, real_footprint = synth._draw_box, synth._footprint
        real_place = synth._place_objects

        def draw_box(*args):
            counts["boxes"] += 1
            return real_box(*args)

        def footprint(*args):
            counts["footprints"] += 1
            return real_footprint(*args)

        def place(*args):
            objects = real_place(*args)
            counts["placed"] += len(objects)
            return objects

        monkeypatch.setattr(synth, "_draw_box", draw_box)
        monkeypatch.setattr(synth, "_footprint", footprint)
        monkeypatch.setattr(synth, "_place_objects", place)
        generate(SyntheticSceneSpec(size=128, seed=16), 12)
        assert counts["placed"] > 0
        assert counts["footprints"] == counts["placed"]
        # Rejected tries draw boxes but build no footprint.
        assert counts["boxes"] > counts["placed"]

    @pytest.mark.parametrize("field,value", [
        ("size", 0), ("size", -32), ("n_objects", (3, 1)),
        ("n_objects", (-2, 1)), ("noise", float("nan")),
        ("noise", float("inf")), ("noise", -0.01),
    ], ids=lambda v: str(v).replace(" ", ""))
    def test_bad_spec_rejected_naming_field(self, field, value):
        with pytest.raises(DataError, match=field):
            SyntheticSceneSpec(**{field: value})

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

    @staticmethod
    def _levels(shape, seed, dtype=np.float64):
        """Uniform draws in [-0.1, 1.1] with, scattered among them, every
        exact half level (k + 0.5) / 255 in ``dtype``, its neighbours on
        both sides, both ends of [0, 1] and values outside it."""
        half = ((np.arange(255) + 0.5) / 255.0).astype(dtype)
        special = np.concatenate([
            half, np.nextafter(half, dtype(-np.inf)),
            np.nextafter(half, dtype(np.inf)),
            np.array([0.0, 1.0, -0.25, 1.25, -np.inf, np.inf, -1e-300,
                      1.0 + 1e-15], dtype=dtype)])
        rng = np.random.default_rng(seed)
        values = rng.uniform(-0.1, 1.1, int(np.prod(shape))).astype(dtype)
        values[rng.permutation(values.size)[:special.size]] = special
        return values.reshape(shape)

    # sha256 of the files written from these arrays, computed before the
    # writers quantized in row blocks.  The float shapes span several
    # blocks and end in a partial one; float32 input is quantized in
    # float32 arithmetic, integer input in float64.
    WRITERS = {
        "image": lambda self, path: write_image(
            path, self._levels((3, 200, 300), 21)),
        "image-float32": lambda self, path: write_image(
            path, self._levels((3, 200, 300), 22, np.float32)),
        "gray": lambda self, path: write_gray(
            path, self._levels((300, 200), 23)),
        "gray-float32": lambda self, path: write_gray(
            path, self._levels((600, 200), 24, np.float32)),
        "gray-int": lambda self, path: write_gray(
            path, np.random.default_rng(25).integers(-2, 3, (60, 70))),
        "mask": lambda self, path: write_mask(
            path, (self._levels((70, 90), 26) > 0.5) * 3),
    }
    WRITER_SHA256 = {
        "image": "6ce3b67a6c6be17b98419716eaf680c714426e3e915d2e3f10a73be25c5e32bf",
        "image-float32": "8586564892dd5106bc319207e7764709a903d4d825c331d488cd36176466a9fb",
        "gray": "53040dadfd0909a1b62c6d866d60ce8c6d7f72f622620fed2f62e6b06a2bd7a7",
        "gray-float32": "b273352778e55b3c869649259f88ac7aade64393d9b16efbe425847196208b07",
        "gray-int": "37ab54e2df6952544f412f697d8bfb4f76f0197bf21fe128bd86b9435e9c0bc8",
        "mask": "3ca4e791dfc5d19c74cc2ef416df27afeffc4d7112410d325b296425ca350197",
    }

    @pytest.mark.parametrize("kind", list(WRITER_SHA256))
    def test_writer_bytes_are_pinned(self, tmp_path, kind):
        path = tmp_path / "out.pnm"
        self.WRITERS[kind](self, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.WRITER_SHA256[kind]

    def test_strided_input_writes_same_bytes(self, tmp_path):
        values = self._levels((3, 64, 96), 24)
        view = values.transpose(0, 2, 1)[:, ::2, 1::3]
        write_image(tmp_path / "a.ppm", view)
        write_image(tmp_path / "b.ppm", np.ascontiguousarray(view))
        write_gray(tmp_path / "a.pgm", view[1].T)
        write_gray(tmp_path / "b.pgm", np.ascontiguousarray(view[1].T))
        for ext in ("ppm", "pgm"):
            assert ((tmp_path / f"a.{ext}").read_bytes()
                    == (tmp_path / f"b.{ext}").read_bytes())

    def test_readers_return_c_contiguous_float64(self, tmp_path):
        write_image(tmp_path / "i.ppm", self._levels((3, 20, 30), 25))
        write_gray(tmp_path / "g.pgm", self._levels((30, 40), 26))
        for arr, shape in ((read_image(tmp_path / "i.ppm"), (3, 20, 30)),
                           (read_gray(tmp_path / "g.pgm"), (30, 40))):
            assert arr.shape == shape
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous

    @pytest.mark.parametrize("writer,shape", [(write_image, (3, 600, 100)),
                                              (write_gray, (600, 100))])
    def test_nan_rejected_before_file_opened(self, tmp_path, writer, shape):
        values = np.full(shape, 0.5)
        values[..., 500, 3] = np.nan   # in a later block than the first
        path = tmp_path / "nan.pnm"
        with pytest.raises(PnmParseError, match="nan.pnm.*NaN"):
            writer(path, values)
        assert not path.exists()


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
