"""Architecture contracts: shapes, symmetry, ablation semantics, wiring."""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest

from arcd import network
from arcd.autodiff import (Parameter, ShapeError, Tensor, backward,
                           clear_record, no_grad, ops, tensor)
from arcd.network import (STRIDES, VARIANTS, ChangeDetector, Encoder,
                          GatedFusion, ReviewBlock, TemporalDifference,
                          conflict_attention, reverse_attention,
                          variant_config)
from arcd.nn import BatchNorm
from arcd.loss import total_loss
from arcd.trainer import predict

import predict_digest
from test_tensor_ops import logged_starts


def rand_images(rng, n=1, size=64, dtype=np.float64):
    return (Tensor(rng.uniform(0, 1, (n, 3, size, size)).astype(dtype)),
            Tensor(rng.uniform(0, 1, (n, 3, size, size)).astype(dtype)))


class TestEncoder:
    def test_level_spatial_sizes(self):
        rng = np.random.default_rng(0)
        enc = Encoder(rng=rng, dtype=np.float64)
        enc.eval()
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 3, 64, 64)))
        with no_grad():
            feats = enc(x)
        assert [f.shape[2] for f in feats] == [16, 8, 4, 2]
        assert [f.shape[1] for f in feats] == [16, 32, 64, 128]

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(0)
        enc = Encoder(rng=rng)
        with pytest.raises(ShapeError, match="divisible by 32"):
            enc(Tensor(np.zeros((1, 3, 48, 64))))

    def test_shared_weights_identical_pyramids(self):
        rng = np.random.default_rng(2)
        model = ChangeDetector(seed=0, dtype=np.float64)
        model.eval()
        img = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 3, 64, 64)))
        with no_grad():
            f1 = model.encoder(img)
            f2 = model.encoder(img)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.data, b.data)


class TestGatedFusion:
    def test_closed_gate_zeroes_calibration(self):
        rng = np.random.default_rng(4)
        fam = GatedFusion(6, 4, 4, gated=True, rng=rng, dtype=np.float64)
        fam.gate.bias.data[:] = -40.0  # sigmoid ~ 0 everywhere
        high = Tensor(rng.standard_normal((1, 6, 4, 4)))
        low = Tensor(rng.standard_normal((1, 4, 8, 8)))
        up = ops.upsample_bilinear(high, 2)
        weight = ops.sigmoid(fam.gate(up))
        assert np.abs(weight.data).max() < 1e-12
        assert np.abs(ops.mul(low, weight).data).max() < 1e-10

    def test_ungated_has_no_gate_parameters(self):
        rng = np.random.default_rng(5)
        gated = GatedFusion(6, 4, 4, gated=True, rng=rng, dtype=np.float64)
        plain = GatedFusion(6, 4, 4, gated=False,
                            rng=np.random.default_rng(5), dtype=np.float64)
        names_gated = {n for n, _ in gated.named_parameters()}
        names_plain = {n for n, _ in plain.named_parameters()}
        assert names_plain < names_gated
        assert all(not n.startswith("gate.") for n in names_plain)

    def test_equal_resolution_mode(self):
        rng = np.random.default_rng(6)
        fam = GatedFusion(4, 4, 4, gated=True, rng=rng, dtype=np.float64)
        a = Tensor(rng.standard_normal((1, 4, 8, 8)))
        b = Tensor(rng.standard_normal((1, 4, 8, 8)))
        assert fam(a, b).shape == (1, 4, 8, 8)

    def test_wrong_factor_rejected(self):
        rng = np.random.default_rng(7)
        fam = GatedFusion(4, 4, 4, gated=True, rng=rng, dtype=np.float64)
        a = Tensor(rng.standard_normal((1, 4, 2, 2)))
        b = Tensor(rng.standard_normal((1, 4, 8, 8)))
        with pytest.raises(ShapeError, match="factor"):
            fam(a, b)


class TestTemporalDifference:
    def test_exact_symmetry(self):
        # In training the block takes the pair stacked, as the network
        # passes it.
        rng = np.random.default_rng(8)
        tde = TemporalDifference(4, rng=rng, dtype=np.float64)
        a = rng.standard_normal((2, 4, 6, 6))
        b = rng.standard_normal((2, 4, 6, 6))
        with no_grad():
            ab = tde(Tensor(np.concatenate([a, b])))
            ba = tde(Tensor(np.concatenate([b, a])))
        assert np.array_equal(ab.data, ba.data)

    def test_equal_inputs_double_single_response(self):
        rng = np.random.default_rng(9)
        tde = TemporalDifference(4, rng=rng, dtype=np.float64)
        tde.eval()  # frozen stats make the order response a pure function
        a = Tensor(np.random.default_rng(10).standard_normal((1, 4, 5, 5)))
        with no_grad():
            single = tde._order_response(a, a)
            summed = ops.add(tde._order_response(a, a),
                             tde._order_response(a, a))
        assert np.array_equal(summed.data, 2.0 * single.data)

    def test_shape_mismatch_rejected(self):
        # A tuple pair of unequal maps, and a stacked pair of odd batch.
        rng = np.random.default_rng(11)
        tde = TemporalDifference(4, rng=rng, dtype=np.float64)
        with pytest.raises(ShapeError):
            tde((Tensor(np.zeros((1, 4, 5, 5))),
                 Tensor(np.zeros((1, 4, 4, 5)))))
        with pytest.raises(ShapeError):
            tde(Tensor(np.zeros((3, 4, 5, 5))))


class TestAttentionMaps:
    def test_conflict_full_disagreement(self):
        one = Tensor(np.ones((1, 1, 2, 2)))
        zero = Tensor(np.zeros((1, 1, 2, 2)))
        assert np.allclose(conflict_attention(one, zero).data, 1.0)

    def test_conflict_agreement_curve(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            t = Tensor(np.full((1, 1, 2, 2), p))
            got = conflict_attention(t, t).data
            assert np.allclose(got, 2 * p * (1 - p))
        assert conflict_attention(Tensor(np.ones((1, 1, 1, 1))),
                                  Tensor(np.ones((1, 1, 1, 1)))).data.max() == 0.0

    def test_conflict_worked_value(self):
        a = Tensor(np.full((1, 1, 1, 1), 0.8))
        b = Tensor(np.full((1, 1, 1, 1), 0.3))
        assert conflict_attention(a, b).data.item() == pytest.approx(0.62)

    def test_conflict_range_random(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(0, 1, (1, 1, 16, 16)))
        b = Tensor(rng.uniform(0, 1, (1, 1, 16, 16)))
        coa = conflict_attention(a, b).data
        assert (coa >= 0.0).all() and (coa <= 1.0).all()

    def test_reverse_attention(self):
        assert reverse_attention(Tensor(np.array(1.0))).data == 0.0
        assert reverse_attention(Tensor(np.array(0.0))).data == 1.0
        assert reverse_attention(Tensor(np.array(0.25))).data == \
            pytest.approx(0.75)


class TestReviewBlock:
    def _inputs(self, rng):
        return (Tensor(rng.standard_normal((1, 4, 8, 8))),
                Tensor(rng.standard_normal((1, 6, 4, 4))),
                Tensor(rng.uniform(0.1, 0.9, (1, 1, 8, 8))),
                Tensor(rng.uniform(0.1, 0.9, (1, 1, 4, 4))))

    def test_disabled_conflict_is_never_executed(self):
        # Disabling the branch removes its recorded operations entirely,
        # not just their numeric effect.
        from arcd.autodiff.tensor import clear_record, record_length
        rng = np.random.default_rng(13)
        on = ReviewBlock(4, 6, use_conflict=True, use_reverse=True,
                         rng=np.random.default_rng(99), dtype=np.float64)
        off = ReviewBlock(4, 6, use_conflict=False, use_reverse=True,
                          rng=np.random.default_rng(99), dtype=np.float64)
        inputs = tuple(Tensor(t.data, requires_grad=True)
                       for t in self._inputs(rng))
        on.eval(), off.eval()
        clear_record()
        on(*inputs)
        n_on = record_length()
        clear_record()
        off(*inputs)
        n_off = record_length()
        clear_record()
        assert n_off < n_on

    def test_attention_flags_change_output(self):
        rng = np.random.default_rng(14)
        base = ReviewBlock(4, 6, use_conflict=True, use_reverse=True,
                           rng=np.random.default_rng(50), dtype=np.float64)
        ablated = ReviewBlock(4, 6, use_conflict=False, use_reverse=True,
                              rng=np.random.default_rng(50), dtype=np.float64)
        inputs = self._inputs(rng)
        base.eval(), ablated.eval()
        with no_grad():
            full, _ = base(*inputs)
            cut, _ = ablated(*inputs)
        assert not np.allclose(full.data, cut.data)

    @staticmethod
    def _concat_oracle(block, d_low, d_high, p_low, p_high):
        """The block as first written: upsample the coarse level, concatenate
        it with the trunk, apply each transition to the concatenation."""
        factor = d_low.shape[2] // d_high.shape[2]
        d_up = ops.upsample_bilinear(d_high, factor)
        p_up = ops.upsample_bilinear(p_high, factor)
        x = ops.concat([d_low, d_up], axis=1)
        k1, k2, k3 = block.trans1(x), block.trans2(x), block.trans3(x)
        if block.use_conflict:
            coa = conflict_attention(p_low, p_up)
            k1 = ops.add(k1, ops.mul(k1, coa))
        if block.use_reverse:
            k2 = ops.add(k2, ops.mul(k2, reverse_attention(p_up)))
        b = ops.add(ops.add(block.conv1(block.attn1(k1)),
                            block.conv2(block.attn2(k2))),
                    block.conv3(block.attn3(k3)))
        refined = ops.add(block.fuse(ops.concat([p_low, b], axis=1)), d_low)
        return refined, block.head(refined)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("use_conflict", [False, True])
    @pytest.mark.parametrize("use_reverse", [False, True])
    def test_matches_concat_then_transition_oracle(self, factor, use_conflict,
                                                   use_reverse):
        rng = np.random.default_rng(17 + factor)
        block = ReviewBlock(4, 6, use_conflict=use_conflict,
                            use_reverse=use_reverse, rng=rng,
                            dtype=np.float64)
        for _, p in block.named_parameters():
            if p.ndim == 1:   # biases start at zero; make them count
                p.data[:] = rng.standard_normal(p.shape)
        block.eval()
        side = 4 * factor
        inputs = (Tensor(rng.standard_normal((2, 4, side, side))),
                  Tensor(rng.standard_normal((2, 6, 4, 4))),
                  Tensor(rng.uniform(0.05, 0.95, (2, 1, side, side))),
                  Tensor(rng.uniform(0.05, 0.95, (2, 1, 4, 4))))
        with no_grad():
            got = block(*inputs)
            want = self._concat_oracle(block, *inputs)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g.data - w.data).max() < 1e-12

    def test_upsamples_only_mixed_channels(self):
        # The coarse level is mixed down to out_ch channels before it is
        # upsampled, so the wide upsampled level and its concatenation with
        # the trunk are never built.
        rng = np.random.default_rng(18)
        block = ReviewBlock(16, 128, use_conflict=True, use_reverse=True,
                            rng=rng)
        block.eval()
        inputs = (Tensor(rng.standard_normal((1, 16, 128, 128))
                         .astype(np.float32)),
                  Tensor(rng.standard_normal((1, 128, 16, 16))
                         .astype(np.float32)),
                  Tensor(rng.uniform(0, 1, (1, 1, 128, 128))
                         .astype(np.float32)),
                  Tensor(rng.uniform(0, 1, (1, 1, 16, 16))
                         .astype(np.float32)))
        tracemalloc.start()
        try:
            with no_grad():
                outputs = block(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        io_bytes = sum(t.data.nbytes for t in (*inputs, *outputs))
        assert peak < 6 * io_bytes

    def test_zero_features_stay_finite(self):
        rng = np.random.default_rng(15)
        block = ReviewBlock(4, 6, use_conflict=True, use_reverse=True,
                            rng=rng, dtype=np.float64)
        block.eval()
        zero_low = Tensor(np.zeros((1, 4, 8, 8)))
        zero_high = Tensor(np.zeros((1, 6, 4, 4)))
        p_low = Tensor(np.full((1, 1, 8, 8), 0.5))
        p_high = Tensor(np.full((1, 1, 4, 4), 0.5))
        with no_grad():
            refined, prob = block(zero_low, zero_high, p_low, p_high)
        assert np.isfinite(refined.data).all()
        assert np.isfinite(prob.data).all()


class TestFullNetwork:
    def test_output_contracts(self):
        model = ChangeDetector(seed=1, dtype=np.float64)
        model.eval()
        rng = np.random.default_rng(16)
        t1, t2 = rand_images(rng)
        with no_grad():
            bundle = model(t1, t2)
        assert bundle.change.shape == (1, 1, 64, 64)
        assert bundle.uncertainty.shape == (1, 1, 64, 64)
        assert [lg.shape for lg in bundle.level_logits] == \
            [(1, 1, 64 // s, 64 // s) for s in STRIDES]
        assert [lg.shape for lg in bundle.refined_logits] == \
            [(1, 1, 16, 16)] * 3
        with no_grad():
            side = bundle.side_probs()
        assert len(side) == 7
        for p in side:
            assert p.shape == (1, 1, 64, 64)
            assert (p.data > 0.0).all() and (p.data < 1.0).all()
        assert bundle.features.shape == (1, 16, 16, 16)

    def test_eval_forward_builds_only_the_two_full_resolution_maps(
            self, monkeypatch):
        model = ChangeDetector(seed=1, dtype=np.float64)
        model.eval()
        t1, t2 = rand_images(np.random.default_rng(16))
        shapes = []
        upsample = ops.upsample_bilinear

        def recording_upsample(x, factor):
            out = upsample(x, factor)
            shapes.append(out.shape[2:])
            return out

        monkeypatch.setattr(ops, "upsample_bilinear", recording_upsample)
        with no_grad():
            model(t1, t2)
        # The change map and the uncertainty map; no side map.
        assert shapes.count((64, 64)) == 2

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_temporal_swap_bit_exact_float64(self, train_mode):
        model = ChangeDetector(seed=2, dtype=np.float64)
        model.train(train_mode)
        rng = np.random.default_rng(17)
        t1, t2 = rand_images(rng, n=2)
        with no_grad():
            a = model(t1, t2)
            b = model(t2, t1)
            maps_a = [*a.side_probs(), a.change]
            maps_b = [*b.side_probs(), b.change]
        assert len(maps_a) == 8
        for pa, pb in zip(maps_a, maps_b):
            assert np.array_equal(pa.data, pb.data)
        assert np.array_equal(a.uncertainty.data, b.uncertainty.data)

    def test_temporal_swap_float32(self):
        model = ChangeDetector(seed=3, dtype=np.float32)
        model.eval()
        rng = np.random.default_rng(18)
        t1, t2 = rand_images(rng, dtype=np.float32)
        with no_grad():
            a = model(t1, t2)
            b = model(t2, t1)
        assert np.abs(a.change.data - b.change.data).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_eval_forward_equals_recorded_eval_forward(self, dtype):
        # Unrecorded ops finish in place and modules drop dead maps; the
        # recorded forward keeps everything. Both must give the same bits.
        model = ChangeDetector(seed=4, dtype=dtype)
        rng = np.random.default_rng(24)
        model(*rand_images(rng, n=2, dtype=dtype))   # moves running stats
        clear_record()
        assert not np.allclose(model.encoder.stage2[0].bn.running_mean, 0.0)
        model.eval()
        t1, t2 = rand_images(rng, dtype=dtype)
        with no_grad():
            lean = model(t1, t2)
        recorded = model(t1, t2)
        clear_record()

        def maps(bundle):
            return [bundle.change, bundle.uncertainty, bundle.features,
                    *bundle.level_logits, *bundle.refined_logits]

        for a, b in zip(maps(lean), maps(recorded)):
            assert a.dtype == dtype
            assert np.array_equal(a.data, b.data)

    def test_eval_forward_peak_memory_256(self):
        # Each map is freed after its last use; holding the dead ones
        # peaked at 5.86 MB.
        model = ChangeDetector(seed=0)
        model.eval()
        t1, t2 = rand_images(np.random.default_rng(0), size=256,
                             dtype=np.float32)
        tracemalloc.start()
        try:
            with no_grad():
                model(t1, t2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0e6

    def test_eval_difference_block_peak_memory_256(self):
        # The pair goes straight into each order's phase buffer: stacking
        # it into a [1,16,2,256,256] copy first peaked at 6.2 outputs.
        rng = np.random.default_rng(26)
        tde = TemporalDifference(16, rng=rng, dtype=np.float32)
        tde.eval()
        a, b = (Tensor(rng.standard_normal((1, 16, 256, 256))
                       .astype(np.float32)) for _ in range(2))
        tracemalloc.start()
        try:
            with no_grad():
                out = tde((a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * out.data.nbytes

    # sha256 of predict's change then uncertainty bytes for
    # ChangeDetector(seed=5) on a fixed 1x256^2 pair, by OpenBLAS kernel
    # at one BLAS thread (tests/predict_digest.py prints them): GEMM
    # kernels sum in different orders.  The SkylakeX pair was computed
    # before the Siamese trunk was stacked in training: the eval path must
    # keep these bits.  The others were recorded later through
    # OPENBLAS_CORETYPE, which selects Katmai for Prescott and Core2,
    # Nehalem for Atom, Sandybridge for Bulldozer and Haswell for Zen.
    PREDICT_SHA256 = {
        "SkylakeX": {
            "float32": "50770c71c9f57942535add1475a2253a"
                       "3b7bd629d32faa32f96dd48b49b21dcd",
            "float64": "aedbd2b55edce004f5da9261fb0c8866"
                       "1b79397b405abb21d0a075d26248697b",
        },
        "Haswell": {
            "float32": "349f794bd80bdf4bbe4aa00d2a264ec6"
                       "d7ae91e86d3186ff673ff2394a9c97f5",
            "float64": "77b85fe3e5d38dfacd33d1b21d882400"
                       "1f2a898a0ea14c982f024f8435c96619",
        },
        "Sandybridge": {
            "float32": "2bf614ce5dd82d3e404625c44f5d85f3"
                       "28668b5a9568e466f24cb824278cc83c",
            "float64": "e2c516e34c0c59e6c5b33aa315b5158c"
                       "6cd515fed09bf669972f818f6c854bf7",
        },
        "Nehalem": {
            "float32": "46bf151882eed8b4c6a7b9cfa53c3d8a"
                       "67f006412edea0a1ad4c6f926c9d7efe",
            "float64": "ce4b8fb0c39a7fc931817f95d2f822af"
                       "28ec1e113bacc337de34abf1807c0507",
        },
        "Katmai": {
            "float32": "3143a349c5b311d30a950b38d3086b7e"
                       "2323ae91664fd1bf0f660230611a103d",
            "float64": "4f3605e1b5a881efd069332557bc4684"
                       "6425050efb95af8916c931e9da5c74bf",
        },
    }

    @pytest.mark.parametrize("dtype", predict_digest.DTYPES)
    def test_predict_outputs_are_pinned(self, dtype):
        core = predict_digest.blas_core()
        if core not in self.PREDICT_SHA256:
            pytest.fail(f"no predict digest recorded for OpenBLAS kernel "
                        f"{core!r}; `PYTHONPATH=src python "
                        f"tests/predict_digest.py` prints its digests")
        change, unc = predict_digest.predict_outputs(dtype)
        assert change.dtype == dtype
        assert (predict_digest.digest(change, unc)
                == self.PREDICT_SHA256[core][dtype])

    def test_predict_bits_unchanged_by_two_thread_convs(self, monkeypatch):
        # At 512^2 the stems, the stride-2 maps and the largest batch
        # norms, ReLUs and full-resolution sigmoids split their work.
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 2)
        splits = []
        share = ops._share

        def logged(fn, blocks):
            splits.append(blocks)
            share(fn, blocks)

        monkeypatch.setattr(ops, "_share", logged)
        model = ChangeDetector(seed=5, dtype=np.float32)
        img1, img2 = np.random.default_rng(512).uniform(0.0, 1.0,
                                                        (2, 3, 512, 512))

        def digest():
            change, unc = predict(model, img1, img2)
            return hashlib.sha256(change.tobytes() + unc.tobytes()).digest()

        threaded = digest()
        assert len(splits) >= 20
        monkeypatch.setattr(ops, "_splits", lambda *gate: False)
        assert digest() == threaded

    def test_split_work_leaves_primitives_on_the_calling_thread(
            self, monkeypatch):
        # The benchmark's tracer keeps one span stack for all threads, so
        # helper threads may run only private closures: every public
        # primitive and every record entry stays on the caller.
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 2)
        caller = threading.get_ident()
        seen = []

        def on_caller(name, fn):
            def wrapped(*args, **kwargs):
                seen.append((name, threading.get_ident() == caller))
                return fn(*args, **kwargs)
            return wrapped

        for name in ops.__all__:
            monkeypatch.setattr(ops, name, on_caller(name, getattr(ops, name)))
        record = on_caller("record", tensor.record)
        monkeypatch.setattr(ops, "record", record)
        monkeypatch.setattr(tensor, "record", record)
        splits = []
        share = ops._share

        def logged(fn, blocks):
            splits.append(blocks)
            share(fn, blocks)

        monkeypatch.setattr(ops, "_share", logged)
        model = ChangeDetector(seed=5, dtype=np.float32)
        img1, img2 = np.random.default_rng(512).uniform(0.0, 1.0,
                                                        (2, 3, 512, 512))
        predict(model, img1, img2)
        assert len(splits) >= 20
        assert {name for name, _ in seen} >= {"conv2d", "batch_norm",
                                              "relu", "sigmoid",
                                              "upsample_bilinear", "record"}
        assert [name for name, here in seen if not here] == []

    @pytest.mark.parametrize("size,n,training", [(256, 1, False),
                                                 (64, 4, True)])
    def test_small_maps_stay_serial(self, monkeypatch, size, n, training):
        # Every map of a 256^2 input and of a 4x64^2 training step's
        # forward is below the gates, even where two CPUs are free, and
        # backward starts no thread.
        def no_split(fn, blocks):
            raise AssertionError("a small map split its work")

        monkeypatch.setattr(ops, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(ops, "_share", no_split)
        model = ChangeDetector(seed=0, dtype=np.float32)
        t1, t2 = rand_images(np.random.default_rng(3), n=n, size=size,
                             dtype=np.float32)
        if training:
            bundle = model(t1, t2)
            g = np.zeros((n, 1, size, size), dtype=np.float32)
            loss = total_loss(bundle.side_probs(), bundle.change,
                              bundle.uncertainty, g, model.cfg).total
            started = logged_starts(monkeypatch)
            backward(loss)
            assert started == []
        else:
            predict(model, t1.data[0], t2.data[0])

    @staticmethod
    def _training_step_record(variant):
        """The loss and the operation record of a float32 4x64^2
        training step's forward and loss."""
        clear_record()
        cfg = VARIANTS[variant]
        model = ChangeDetector(cfg, seed=0, dtype=np.float32)
        rng = np.random.default_rng(4)
        t1, t2 = rand_images(rng, n=4, dtype=np.float32)
        g = (rng.uniform(0, 1, (4, 1, 64, 64)) > 0.5).astype(np.float32)
        bundle = model(t1, t2)
        loss = total_loss(bundle.side_probs(), bundle.change,
                          bundle.uncertainty, g, cfg).total
        entries = tensor._STATE.entries
        clear_record()
        return loss, entries

    # Record entries of that step, per variant.
    RECORD_LENGTHS = {
        "full": 372, "fam-wo-gate": 357, "wo-oue": 334, "oue-wo-ual": 364,
        "oue-boundary-sup": 372, "wo-krm": 162, "krm-wo-coa": 351,
        "krm-wo-rea": 363, "krm-wo-coa-rea": 336,
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_training_step_records_no_dead_work(self, variant):
        # Every recorded op feeds the loss: nothing computes a map that
        # no gradient reaches.
        loss, entries = self._training_step_record(variant)
        live, dead = {id(loss)}, []
        for entry in reversed(entries):
            if id(entry.output) in live:
                live.update(id(t) for t in entry.inputs)
            else:
                dead.append(entry.op)
        assert len(entries) == self.RECORD_LENGTHS[variant]
        assert dead == []

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_training_step_never_rejoins_split_halves(self, variant):
        # No concat takes narrow views of one tensor and joins them back
        # into that tensor: the stacked pair stays stacked.
        _, entries = self._training_step_record(variant)
        source = {id(e.output): e.inputs[0] for e in entries
                  if e.op == "narrow"}
        for e in entries:
            if e.op == "concat" and all(id(t) in source for t in e.inputs):
                src = source[id(e.inputs[0])]
                assert not (all(source[id(t)] is src for t in e.inputs)
                            and np.array_equal(e.output.data, src.data))

    @staticmethod
    def _batches_seen(monkeypatch):
        """Wrap every primitive to log the batch size of each activation
        it reads (not weights, which a conv takes after its maps)."""
        seen = []
        maps = {"conv2d": 1, "conv3d": 2}

        def wrap(name, fn):
            def logged(*args, **kwargs):
                data = args[:maps.get(name, len(args))]
                for a in data:
                    for t in (a if isinstance(a, list) else [a]):
                        if (isinstance(t, Tensor)
                                and not isinstance(t, Parameter)
                                and t.ndim >= 2):
                            seen.append((name, t.shape[0]))
                return fn(*args, **kwargs)
            return logged

        for name in ops.__all__:
            monkeypatch.setattr(ops, name, wrap(name, getattr(ops, name)))
        return seen

    def test_no_grad_eval_forward_sees_only_batch_one(self, monkeypatch):
        model = ChangeDetector(seed=1)
        t1, t2 = rand_images(np.random.default_rng(25), dtype=np.float32)
        seen = self._batches_seen(monkeypatch)
        model(t1, t2)                   # training stacks the pair: 2N
        clear_record()
        assert ("conv2d", 2) in seen and ("batch_norm", 2) in seen
        seen.clear()
        model.eval()
        with no_grad():
            model(t1, t2)
        assert {"conv2d", "conv3d", "batch_norm", "concat"} <= \
            {name for name, _ in seen}
        assert max(n for _, n in seen) == 1

    def test_stacked_training_step_matches_per_epoch_reference(
            self, monkeypatch):
        # The reference runs every Siamese part once per epoch (and each
        # difference block once per stacking order), with ungrouped batch
        # norms: the two-call forward that stacking replaced.
        rng = np.random.default_rng(26)
        t1, t2 = rand_images(rng, n=2)
        g = (rng.uniform(size=(2, 1, 64, 64)) < 0.3).astype(np.float64)

        def step(model):
            bundle = model(t1, t2)
            backward(total_loss(bundle.side_probs(), bundle.change,
                                bundle.uncertainty, g, model.cfg).total)
            maps = [bundle.change, bundle.uncertainty, bundle.features,
                    *bundle.level_logits, *bundle.refined_logits]
            grads = {n: p.grad.copy() for n, p in model.named_parameters()}
            stats = [(m.running_mean.copy(), m.running_var.copy())
                     for _, m in model.named_modules()
                     if isinstance(m, BatchNorm)]
            return maps, grads, stats

        stacked = step(ChangeDetector(seed=9, dtype=np.float64))

        reference = ChangeDetector(seed=9, dtype=np.float64)
        for _, m in reference.named_modules():
            if isinstance(m, BatchNorm):
                m.groups = 1

        monkeypatch.setattr(network, "siamese_pair",
                            lambda training, first, second: (first, second))
        want = step(reference)

        for a, b in zip(stacked[0], want[0]):
            assert np.abs(a.data - b.data).max() < 1e-12
        assert stacked[1].keys() == want[1].keys()
        for name, grad in stacked[1].items():
            assert np.abs(grad - want[1][name]).max() < 1e-10, name
        assert len(stacked[2]) == len(want[2]) == 21
        for (mean, var), (mean_ref, var_ref) in zip(stacked[2], want[2]):
            assert not np.array_equal(mean, 0.0)
            assert np.array_equal(mean, mean_ref)
            assert np.array_equal(var, var_ref)

    def test_parameter_count_regression_guard(self):
        # Architecture wiring fingerprints at desk scale.
        assert ChangeDetector(seed=0).num_parameters() == 943453
        assert ChangeDetector(variant_config("wo-krm"),
                              seed=0).num_parameters() == 900598

    def test_ablations_strictly_exclude_component_parameters(self):
        full_names = {n for n, _ in
                      ChangeDetector(seed=0).named_parameters()}
        removal = {
            "fam-wo-gate": "gate.",
            "wo-oue": "uncertainty.",
            "oue-wo-ual": "final_fuse.",
            "wo-krm": "reviews.",
        }
        for variant, marker in removal.items():
            names = {n for n, _ in
                     ChangeDetector(variant_config(variant),
                                    seed=0).named_parameters()}
            assert names < full_names, variant
            assert all(marker not in n for n in names), variant

    def test_attention_only_ablations_keep_parameter_set(self):
        full_names = {n for n, _ in ChangeDetector(seed=0).named_parameters()}
        for variant in ("krm-wo-coa", "krm-wo-rea", "krm-wo-coa-rea",
                        "oue-boundary-sup"):
            names = {n for n, _ in
                     ChangeDetector(variant_config(variant),
                                    seed=0).named_parameters()}
            assert names == full_names, variant

    def test_all_variants_forward(self):
        rng = np.random.default_rng(19)
        t1, t2 = rand_images(rng)
        for name, cfg in VARIANTS.items():
            model = ChangeDetector(cfg, seed=4, dtype=np.float64)
            model.eval()
            with no_grad():
                bundle = model(t1, t2)
            assert np.isfinite(bundle.change.data).all(), name
            if cfg.use_oue:
                assert bundle.uncertainty is not None
            else:
                assert bundle.uncertainty is None
            expected_refined = 3 if cfg.use_krm else 0
            assert len(bundle.level_logits) == 4, name
            assert len(bundle.refined_logits) == expected_refined, name

    def test_unknown_variant_lists_names(self):
        with pytest.raises(ValueError, match="full"):
            variant_config("nope")

    def test_same_seed_same_model(self):
        a = ChangeDetector(seed=7)
        b = ChangeDetector(seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_level_strides_against_contract(self):
        model = ChangeDetector(seed=5, dtype=np.float64)
        model.eval()
        rng = np.random.default_rng(20)
        t1, t2 = rand_images(rng)
        with no_grad():
            feats = model.encoder(t1)
        for f, stride in zip(feats, STRIDES):
            assert f.shape[2] == 64 // stride

    def test_decoder_levels_match_encoder_shapes(self):
        model = ChangeDetector(seed=6, dtype=np.float64)
        model.eval()
        rng = np.random.default_rng(21)
        t1, _ = rand_images(rng)
        with no_grad():
            feats = model.encoder(t1)
            dec = model.decoder(feats)
        for f, p in zip(feats, dec):
            assert p.shape == f.shape
            assert np.isfinite(p.data).all()

    def test_uncertainty_branch_spatial_contract(self):
        model = ChangeDetector(seed=7, dtype=np.float64)
        model.eval()
        rng = np.random.default_rng(22)
        t1, t2 = rand_images(rng)
        with no_grad():
            bundle = model(t1, t2)
        assert bundle.features.shape[2:] == (16, 16)      # H/4 x W/4
        assert bundle.uncertainty.shape[2:] == (64, 64)   # full resolution

    def test_identical_epochs_uncertainty_well_defined(self):
        model = ChangeDetector(seed=8, dtype=np.float64)
        model.eval()
        rng = np.random.default_rng(23)
        t1, _ = rand_images(rng)
        with no_grad():
            bundle = model(t1, t1)
        assert np.isfinite(bundle.uncertainty.data).all()
        assert (bundle.uncertainty.data > 0).all()
