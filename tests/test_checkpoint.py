"""Checkpoint persistence: exact round trips and mismatch diagnostics."""

import hashlib
import struct

import numpy as np
import pytest

from arcd import checkpoint
from arcd.autodiff import Tensor, no_grad
from arcd.errors import CheckpointError
from arcd.network import VARIANTS, ChangeDetector, variant_config
from arcd.nn import BatchNorm


def _state(model):
    """Copies of every parameter and running statistic."""
    arrays = [p.data.copy() for _, p in model.named_parameters()]
    for _, m in model.named_modules():
        if isinstance(m, BatchNorm):
            arrays += [m.running_mean.copy(), m.running_var.copy()]
    return arrays


def _trained_ish_model(seed=0):
    # Nudge running stats away from init so persistence must carry them.
    model = ChangeDetector(seed=seed, dtype=np.float32)
    rng = np.random.default_rng(seed + 100)
    t1 = Tensor(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
    t2 = Tensor(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
    model.train()
    model(t1, t2)
    from arcd.autodiff import clear_record
    clear_record()
    return model


class TestRoundTrip:
    def test_save_load_infer_bit_identical(self, tmp_path):
        model = _trained_ish_model(0)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, path)
        rng = np.random.default_rng(1)
        model.eval()
        inputs = [(Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)),
                   Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)))
                  for _ in range(3)]
        with no_grad():
            want = [model(a, b).change.data.copy() for a, b in inputs]

        fresh = ChangeDetector(seed=7, dtype=np.float32)  # different init
        checkpoint.load(fresh, path)
        fresh.eval()
        with no_grad():
            got = [fresh(a, b).change.data.copy() for a, b in inputs]
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    def test_running_stats_restored(self, tmp_path):
        model = _trained_ish_model(2)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, path)
        fresh = ChangeDetector(seed=2, dtype=np.float32)
        checkpoint.load(fresh, path)
        bn = model.encoder.stage2[0].bn
        bn2 = fresh.encoder.stage2[0].bn
        assert np.array_equal(bn.running_mean, bn2.running_mean)
        assert np.array_equal(bn.running_var, bn2.running_var)
        assert not np.allclose(bn2.running_mean, 0.0)

    def test_load_keeps_model_bound_to_optimizer(self, tmp_path):
        # Weights are views into the optimizer's buffer; a load that
        # rebound them would leave later steps moving a detached copy.
        from arcd.trainer import AdamW, TrainConfig
        saved = ChangeDetector(seed=3, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        checkpoint.save(saved, path)
        model = ChangeDetector(seed=0, dtype=np.float32)
        params = list(model.named_parameters())
        opt = AdamW(params, TrainConfig())
        checkpoint.load(model, path)
        for (name, p), (_, q) in zip(params, saved.named_parameters()):
            assert np.array_equal(p.data, q.data), name
            p.grad = np.ones_like(p.data)
        opt.step(1e-3)
        for (name, p), (_, q) in zip(params, saved.named_parameters()):
            assert np.shares_memory(p.data, opt.data), name
            assert not np.array_equal(p.data, q.data), name

    def test_double_save_identical_bytes(self, tmp_path):
        model = _trained_ish_model(3)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save(model, a)
        checkpoint.save(model, b)
        assert a.read_bytes() == b.read_bytes()


# sha256 of a saved ChangeDetector(variant_config(v), seed=5).  The bytes
# fix the initialization draws, their order, the parameter names and
# shapes and the file layout; the five variants that differ only in what
# the forward computes share one digest.
_FULL_INIT = "c2d536237190ad4a460d0135b52d5e4c2ec3d83dc8cbcfbe0134cc1ff421a7f8"
INIT_DIGESTS = {
    "full": _FULL_INIT,
    "fam-wo-gate":
        "f36a99353fde7626f9f31ca6b4099b6d8c87636488fa3e8e94aa92a722526149",
    "wo-oue":
        "d23d1714f1d81ce367a476af9c6ca15f3a558a045f43af8299b2f62119474d69",
    "oue-wo-ual":
        "fe174b0423981accb65c3dfa4afbc7936c9534e41aa295f8a790214dd435b79c",
    "oue-boundary-sup": _FULL_INIT,
    "wo-krm":
        "971504b61bc6cd8e0457b5acf01c59dfd400357dbca52936b710ced0201195ce",
    "krm-wo-coa": _FULL_INIT,
    "krm-wo-rea": _FULL_INIT,
    "krm-wo-coa-rea": _FULL_INIT,
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_init_checkpoint_bytes_are_pinned(tmp_path, variant):
    path = tmp_path / "init.ckpt"
    checkpoint.save(ChangeDetector(variant_config(variant), seed=5), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == INIT_DIGESTS[variant]


class TestMismatch:
    def test_wrong_architecture_names_first_parameter(self, tmp_path):
        model = ChangeDetector(seed=0)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, path)
        other = ChangeDetector(variant_config("wo-oue"), seed=0)
        with pytest.raises(CheckpointError, match="first mismatched parameter"):
            checkpoint.load(other, path)

    def test_truncated_file_reports_parameter(self, tmp_path):
        model = ChangeDetector(seed=0)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            checkpoint.load(ChangeDetector(seed=0), path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = ChangeDetector(seed=0)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint.load(ChangeDetector(seed=0), path)

    @pytest.mark.parametrize("damage", ["truncate", "trailing byte",
                                        "oversized header"])
    def test_failed_load_leaves_model_unchanged(self, tmp_path, damage):
        path = tmp_path / "m.ckpt"
        checkpoint.save(_trained_ish_model(0), path)
        data = path.read_bytes()
        if damage == "truncate":
            data = data[: len(data) // 2]
        elif damage == "trailing byte":
            data += b"x"
        else:
            # The last record, [2, C] statistics, claims (2^31, 2^31).
            at = data.rindex(b"ARCT\x01\x02") + 6
            data = data[:at] + struct.pack("<2I", 2 ** 31, 2 ** 31) \
                + data[at + 8:]
        path.write_bytes(data)
        target = ChangeDetector(seed=1, dtype=np.float32)
        before = _state(target)
        with pytest.raises(CheckpointError):
            checkpoint.load(target, path)
        after = _state(target)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    BAD_VALUES = {
        "nan-weight": r"parameter 'final_head\.weight' has non-finite",
        # Two bad records: the first one in file order is named.
        "two-bad-weights": r"parameter 'encoder\.stage2\.0\.conv\.weight' "
                           r"has non-finite",
        "inf-mean": r"running statistics for 'diffs\.1\.bn' have non-finite",
        "negative-variance": r"running variance for 'encoder\.stage2\.0\.bn' "
                             r"is negative",
    }

    @pytest.mark.parametrize("damage", list(BAD_VALUES))
    def test_bad_values_rejected_and_model_unchanged(self, tmp_path, damage):
        source = _trained_ish_model(0)
        if damage in ("nan-weight", "two-bad-weights"):
            source.final_head.weight.data[0, 0] = np.nan
        if damage == "two-bad-weights":
            source.encoder.stage2[0].conv.weight.data[0, 0, 0, 0] = -np.inf
        elif damage == "inf-mean":
            source.diffs[1].bn.running_mean[3] = np.inf
        elif damage == "negative-variance":
            source.encoder.stage2[0].bn.running_var[1] = -1.0
        path = tmp_path / "m.ckpt"
        checkpoint.save(source, path)
        target = ChangeDetector(seed=1, dtype=np.float32)
        before = _state(target)
        with pytest.raises(CheckpointError, match=self.BAD_VALUES[damage]):
            checkpoint.load(target, path)
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, _state(target)))

    def test_non_utf8_name_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.save(ChangeDetector(seed=0), path)
        data = bytearray(path.read_bytes())
        data[2] = 0xFF   # first byte of the first parameter name
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="UTF-8"):
            checkpoint.load(ChangeDetector(seed=0), path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        model = ChangeDetector(seed=0)
        checkpoint.save(model, tmp_path / "m.ckpt")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_save_leaves_no_tmp_and_keeps_the_target(
            self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"previous checkpoint")
        write_record = checkpoint.arct.write_record
        written = []

        def failing(f, arr):
            if written:
                raise OSError("disk full")
            written.append(arr)
            write_record(f, arr)

        monkeypatch.setattr(checkpoint.arct, "write_record", failing)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save(ChangeDetector(seed=0), path)
        assert len(written) == 1
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == b"previous checkpoint"
