"""Optimizer math, schedule, config parsing, and the training loop."""

import numpy as np
import pytest

from arcd.autodiff import Parameter, Tensor, backward
from arcd.autodiff.tensor import accumulate
from arcd.data import AugmentationPolicy, SyntheticSceneSpec, generate
from arcd.errors import (ConfigError, DataError, OptimizerError,
                         TrainingDiverged)
from arcd.network import ChangeDetector, variant_config
from arcd.trainer import (AdamW, TrainConfig, parse_config, poly_lr,
                          step_loss, train)

DESK = TrainConfig()


class TestPolySchedule:
    def test_initial_rate(self):
        assert poly_lr(0, DESK) == 5e-4

    def test_paper_constants_midpoint(self):
        cfg = TrainConfig(lr0=5e-4, power=0.9, max_iteration=20000)
        assert poly_lr(10000, cfg) == pytest.approx(5e-4 * 0.5 ** 0.9,
                                                    rel=1e-15)

    def test_closed_form_at_reference_iterations(self):
        cfg = TrainConfig(lr0=5e-4, power=0.9, max_iteration=20000)
        for it in (0, 1, 10000, 19999):
            want = 5e-4 * (1 - it / 20000) ** 0.9
            assert abs(poly_lr(it, cfg) - want) < 1e-12

    def test_strictly_decreasing(self):
        cfg = TrainConfig(max_iteration=500)
        rates = [poly_lr(i, cfg) for i in range(500)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_past_end_is_zero(self):
        assert poly_lr(DESK.max_iteration, DESK) == 0.0
        assert poly_lr(DESK.max_iteration + 5, DESK) == 0.0

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            poly_lr(-1, DESK)


class TestAdamW:
    def _param(self, value, decay=True):
        p = Parameter(np.array([value]), decay=decay)
        return p

    def test_zero_grads_no_decay_is_noop(self):
        p = self._param(1.5)
        p.grad = np.zeros(1)
        opt = AdamW([("p", p)], TrainConfig(weight_decay=0.0))
        opt.step(0.1)
        assert p.data[0] == 1.5
        assert (opt.m["p"] == 0).all() and (opt.v["p"] == 0).all()

    def test_hand_evaluated_first_step(self):
        # p=1, g=1, lr=0.1, wd=0: corrected moments are exactly 1.
        p = self._param(1.0)
        p.grad = np.ones(1)
        opt = AdamW([("p", p)], TrainConfig(weight_decay=0.0, beta1=0.9,
                                            beta2=0.99, eps=1e-8))
        opt.step(0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), rel=1e-12)

    def test_pure_decay_shrinks_exponentially(self):
        p = self._param(2.0)
        cfg = TrainConfig(weight_decay=0.01)
        opt = AdamW([("p", p)], cfg)
        for _ in range(3):
            p.grad = np.zeros(1)
            opt.step(0.5)
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.5 * 0.01) ** 3,
                                          rel=1e-12)

    def test_no_decay_flag_exempts_parameter(self):
        p = self._param(2.0, decay=False)
        opt = AdamW([("p", p)], TrainConfig(weight_decay=0.01))
        p.grad = np.zeros(1)
        opt.step(0.5)
        assert p.data[0] == 2.0

    def test_norm_and_bias_parameters_are_exempt(self):
        model = ChangeDetector(seed=0)
        for name, p in model.named_parameters():
            if name.endswith("bn.weight") or name.endswith("bias"):
                assert not p.decay, name
            if name.endswith("conv.weight") or name.endswith("fc1.weight"):
                assert p.decay, name

    def test_missing_gradient_names_parameter(self):
        p = self._param(1.0)
        opt = AdamW([("encoder.w", p)], TrainConfig())
        with pytest.raises(OptimizerError, match="encoder.w"):
            opt.step(0.1)

    def test_non_finite_gradient_names_parameter(self):
        p = self._param(1.0)
        p.grad = np.array([np.nan])
        opt = AdamW([("blk.weight", p)], TrainConfig())
        with pytest.raises(OptimizerError, match="blk.weight"):
            opt.step(0.1)

    @pytest.mark.parametrize("bad, missing, want", [
        ({"b.weight"}, None, "non-finite .* 'b.weight'"),
        ({"a.bias", "c.weight"}, None, "non-finite .* 'a.bias'"),
        ({"a.bias"}, "c.weight", "non-finite .* 'a.bias'"),
    ])
    def test_first_bad_parameter_in_model_order(self, bad, missing, want):
        # The arena stores decayed weights before the exempt bias; errors
        # still follow the order the parameters were given in.
        params = [("a.bias", self._param(0.0, decay=False)),
                  ("b.weight", self._param(1.0)),
                  ("c.weight", self._param(2.0))]
        opt = AdamW(params, TrainConfig())
        for name, p in params:
            p.grad = (None if name == missing else
                      np.array([np.inf if name in bad else 0.5]))
        with pytest.raises(OptimizerError, match=want):
            opt.step(0.1)


class ReferenceAdamW:
    """The per-tensor AdamW loop the fused arena update must reproduce."""

    def __init__(self, named_params, cfg):
        self.params = list(named_params)
        self.cfg = cfg
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr):
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - cfg.beta1 ** t
        c2 = 1.0 - cfg.beta2 ** t
        for name, p in self.params:
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            if p.decay and cfg.weight_decay:
                p.data -= lr * cfg.weight_decay * p.data
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)


class TestFusedAdamW:
    def test_bit_identical_to_per_tensor_loop(self):
        fused = list(ChangeDetector(seed=0).named_parameters())
        ref = [(name, Parameter(p.data.copy(), decay=p.decay))
               for name, p in fused]
        cfg = TrainConfig(weight_decay=0.05)
        opt, ref_opt = AdamW(fused, cfg), ReferenceAdamW(ref, cfg)
        rng = np.random.default_rng(17)
        for it in range(5):
            for i, ((_, p), (_, q)) in enumerate(zip(fused, ref)):
                g = (np.zeros(p.shape, p.dtype) if (i + it) % 7 == 0 else
                     rng.standard_normal(p.shape).astype(p.dtype))
                q.grad = g.copy()
                p.grad = None
                if it % 2:
                    p.grad = g          # assigned: step copies it in
                else:
                    accumulate(p, g)    # written into the arena slot
            lr = poly_lr(it, TrainConfig(lr0=1e-3, max_iteration=5))
            opt.step(lr)
            ref_opt.step(lr)
        for (name, p), (_, q) in zip(fused, ref):
            assert np.array_equal(p.data, q.data), name
            assert np.array_equal(opt.m[name], ref_opt.m[name]), name
            assert np.array_equal(opt.v[name], ref_opt.v[name]), name
            assert np.shares_memory(p.data, opt.data), name



class TestConfigFile:
    def test_roundtrip_known_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr0=0.001\nmax_iteration=50\nbatch_size=2\n"
                        "variant=wo-krm\n# comment\n\nseed=9\n")
        cfg = parse_config(path)
        assert cfg.lr0 == 0.001
        assert cfg.max_iteration == 50
        assert cfg.batch_size == 2
        assert cfg.seed == 9
        assert not cfg.ablation.use_krm

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr0=0.001\nnot_a_key=3\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr0=0.001\nmax_iteration\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_missing_lr0_warns_and_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("max_iteration=10\n")
        warnings = []
        cfg = parse_config(path, warn=warnings.append)
        assert cfg.lr0 == 5e-4
        assert len(warnings) == 1 and "0.0005" in warnings[0]

    def test_bad_value_cites_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr0=fast\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    @pytest.mark.parametrize("text, field", [
        ("lr0=nan", "lr0"),
        ("lr0=inf", "lr0"),
        ("weight_decay=-1", "weight_decay"),
        ("eps=0", "eps"),
        ("eps=nan", "eps"),
        ("power=nan", "power"),
        ("power=-1", "power"),
        ("checkpoint_every=-3", "checkpoint_every"),
        ("lr0=0.001\nlr0=5", "line 2: repeated key 'lr0'"),
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, text, field):
        path = tmp_path / "cfg.txt"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=field):
            parse_config(path)

    def test_invalid_field_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(max_iteration=0)


def _tiny_dataset(n=2, seed=21):
    return generate(SyntheticSceneSpec(size=32, seed=seed), n)


class TestTrainLoop:
    def test_one_iteration_smoke(self, tmp_path):
        samples = _tiny_dataset()
        cfg = TrainConfig(max_iteration=1, batch_size=2, seed=0,
                          checkpoint_every=0)
        result = train(samples, cfg, tmp_path / "run")
        assert np.isfinite(result.final_loss)
        assert result.checkpoint_path.exists()
        log = result.log_path.read_text().splitlines()
        assert len(log) == 1
        fields = log[0].split("\t")
        assert len(fields) == 6 and fields[0] == "0"

    def test_gradients_populated_for_every_parameter(self):
        # 64x64 keeps every batch-norm fed with >1 value at batch 1.
        sample = generate(SyntheticSceneSpec(size=64, seed=22), 1)[0]
        model = ChangeDetector(seed=0, dtype=np.float64)
        t1 = Tensor(sample.image_t1[None])
        t2 = Tensor(sample.image_t2[None])
        g = Tensor(sample.gt_change[None, None].astype(np.float64))
        model.train()
        losses = step_loss(model, t1, t2, g)
        backward(losses.total)
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_step_record_length_is_bounded(self):
        # Each supervised prediction adds one bce and one dice entry; the
        # uncertainty map one bce; adds sum the terms.  A loss rebuilt
        # from elementwise primitives would exceed both bounds.
        from arcd.autodiff.tensor import clear_record, record_length
        from arcd.loss import total_loss
        rng = np.random.default_rng(24)
        t1 = Tensor(rng.uniform(size=(4, 3, 64, 64)).astype(np.float32))
        t2 = Tensor(rng.uniform(size=(4, 3, 64, 64)).astype(np.float32))
        g = (rng.uniform(size=(4, 1, 64, 64)) < 0.3).astype(np.float32)
        model = ChangeDetector(seed=0)
        clear_record()
        try:
            step_loss(model, t1, t2, g)
            assert record_length() <= 450
            clear_record()
            bundle = model(t1, t2)
            sides = bundle.side_probs()
            before = record_length()
            total_loss(sides, bundle.change, bundle.uncertainty, g, model.cfg)
            supervised = len(sides) + 1
            adds = 2 * (supervised - 1) + 2
            assert record_length() - before <= 2 * supervised + 1 + adds
        finally:
            clear_record()

    def test_ablated_parameters_do_not_exist(self):
        model = ChangeDetector(variant_config("wo-oue"), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert all("uncertainty" not in n for n in names)

    def test_same_seed_bit_identical_logs(self, tmp_path):
        samples = _tiny_dataset()
        cfg = TrainConfig(max_iteration=4, batch_size=2, seed=5,
                          checkpoint_every=0)
        a = train(samples, cfg, tmp_path / "a")
        b = train(samples, cfg, tmp_path / "b")
        assert a.log_path.read_text() == b.log_path.read_text()

    def test_log_lr_column_reproduces_closed_form(self, tmp_path):
        samples = _tiny_dataset()
        cfg = TrainConfig(max_iteration=5, batch_size=2, seed=1,
                          checkpoint_every=0)
        result = train(samples, cfg, tmp_path / "run")
        for line in result.log_path.read_text().splitlines():
            it, *_, lr = line.split("\t")
            assert abs(float(lr) - poly_lr(int(it), cfg)) < 1e-12

    def test_divergence_aborts_and_keeps_checkpoint(self, tmp_path):
        samples = _tiny_dataset()
        # A huge learning rate reliably overflows float32 activations.
        cfg = TrainConfig(lr0=1e12, max_iteration=50, batch_size=2, seed=2,
                          checkpoint_every=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train(samples, cfg, tmp_path / "run")
        kept = sorted((tmp_path / "run").glob("ckpt-*.ckpt"))
        assert kept, "periodic checkpoint should survive the abort"
        assert (tmp_path / "run" / "loss_log.tsv").exists()

    def test_divergence_clears_operation_record(self, tmp_path):
        # The aborted step's activations must not stay on the thread.
        from arcd.autodiff import record_length
        cfg = TrainConfig(lr0=1e12, max_iteration=50, batch_size=2, seed=2,
                          checkpoint_every=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train(_tiny_dataset(), cfg, tmp_path / "run")
        assert record_length() == 0

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            train([], TrainConfig(), tmp_path / "run")

    def test_mixed_sample_sizes_rejected_before_training(self, tmp_path):
        samples = (generate(SyntheticSceneSpec(size=64, seed=30), 2)
                   + generate(SyntheticSceneSpec(size=96, seed=31), 1)
                   + generate(SyntheticSceneSpec(size=64, seed=32), 1))
        cfg = TrainConfig(max_iteration=1, batch_size=2, seed=0,
                          checkpoint_every=0)
        with pytest.raises(DataError, match=r"sample 2 .*\(3, 96, 96\)"):
            train(samples, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_temporal_exchange_leaves_loss_identical(self):
        # Exchange-augmented and plain copies of a sample give the same
        # loss under the same weights (single-threaded, 64-bit).
        s = generate(SyntheticSceneSpec(size=64, seed=23), 1)[0]
        policy = AugmentationPolicy(0.0, 0.0, 1.0)
        from arcd.data import augment
        swapped = augment(s, policy, np.random.default_rng(0))
        model = ChangeDetector(seed=3, dtype=np.float64)
        model.train()

        def loss_of(sample):
            t1 = Tensor(sample.image_t1[None])
            t2 = Tensor(sample.image_t2[None])
            g = Tensor(sample.gt_change[None, None].astype(np.float64))
            bundle = step_loss(model, t1, t2, g)
            backward(bundle.total)  # consume the record
            model.zero_grad()
            return bundle.total.item()

        assert loss_of(s) == loss_of(swapped)
