"""Optimization loop: decoupled-weight-decay Adam under a poly schedule.

The loop is deterministic given the config seed: model init, batch
sampling and augmentation all draw from generators derived from it, so
two runs with the same seed produce bit-identical loss logs in
single-threaded mode.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import checkpoint
from .autodiff import Parameter, Tensor, backward, clear_record, no_grad
from .data import AugmentationPolicy, BiTemporalSample, augment
from .errors import (ConfigError, NumericalError, OptimizerError,
                     TrainingDiverged)
from .loss import LossBundle, total_loss
from .metrics import ConfusionMatrix, MetricScores, confusion, score
from .network import AblationConfig, ChangeDetector, variant_config

LOG_NAME = "loss_log.tsv"
# Elements per AdamW pass: the two scratch blocks stay in cache.
_BLOCK = 1 << 15
FINAL_CHECKPOINT = "model.ckpt"
_INT_KEYS = ("max_iteration", "batch_size", "seed", "checkpoint_every")
_FLOAT_KEYS = ("lr0", "weight_decay", "beta1", "beta2", "eps", "power")


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 5e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    power: float = 0.9
    max_iteration: int = 1000
    batch_size: int = 4
    seed: int = 0
    checkpoint_every: int = 250
    ablation: AblationConfig = field(default_factory=AblationConfig)

    def __post_init__(self):
        for name in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got "
                              f"{self.beta1}/{self.beta2}")
        for name, ok, rule in (
                ("lr0", self.lr0 > 0.0, "positive"),
                ("weight_decay", self.weight_decay >= 0.0, ">= 0"),
                ("eps", self.eps > 0.0, "positive"),
                ("power", self.power >= 0.0, ">= 0"),
                ("max_iteration", self.max_iteration >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("checkpoint_every", self.checkpoint_every >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got "
                                  f"{getattr(self, name)}")


def parse_config(path, *, warn=lambda msg: print(f"warning: {msg}",
                                                 file=sys.stderr)) -> TrainConfig:
    """Line-based key=value config; unknown, repeated and bad lines are
    errors."""
    fields: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, "
                              f"got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"{path}: line {lineno}: repeated key {key!r}")
        seen.add(key)
        try:
            if key in _INT_KEYS:
                fields[key] = int(value)
            elif key in _FLOAT_KEYS:
                fields[key] = float(value)
            elif key == "variant":
                fields["ablation"] = variant_config(value)
            else:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        except ValueError as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError(f"{path}: line {lineno}: bad value for "
                              f"{key!r}: {value!r}") from e
    if "lr0" not in fields:
        warn(f"{path}: no lr0 given, falling back to 0.0005")
    return TrainConfig(**fields)


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    """lr0 * (1 - iteration/max_iteration)^power; zero once training ends."""
    if iteration < 0:
        raise ValueError(f"iteration must be non-negative, got {iteration}")
    if iteration >= cfg.max_iteration:
        return 0.0
    return cfg.lr0 * (1.0 - iteration / cfg.max_iteration) ** cfg.power


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments.

    Normalization scales and biases are exempt from decay (their
    parameters carry ``decay=False``).  Weights, gradients and both
    moments live in four flat arrays with the decayed parameters first;
    each parameter's ``data`` and ``grad_slot`` are views into them, as
    are ``m[name]`` and ``v[name]``, so one step is a handful of
    element-wise passes over the whole model.
    """

    def __init__(self, named_params: Sequence[tuple[str, Parameter]],
                 cfg: TrainConfig):
        self.params = list(named_params)
        self.cfg = cfg
        self.step_count = 0
        dtypes = {p.dtype for _, p in self.params}
        if len(dtypes) > 1:
            raise OptimizerError(f"parameters mix dtypes "
                                 f"{sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float64
        layout = sorted(self.params, key=lambda item: not item[1].decay)
        size = sum(p.size for _, p in self.params)
        self.n_decay = sum(p.size for _, p in self.params if p.decay)
        self.data, self.grad, self.m_flat, self.v_flat = (
            np.zeros(size, dtype) for _ in range(4))
        self.m, self.v = {}, {}
        offset = 0
        for name, p in layout:
            span = slice(offset, offset + p.size)
            offset += p.size
            self.data[span] = p.data.reshape(-1)
            p.data = self.data[span].reshape(p.shape)
            p.grad_slot = self.grad[span].reshape(p.shape)
            self.m[name] = self.m_flat[span].reshape(p.shape)
            self.v[name] = self.v_flat[span].reshape(p.shape)
        self._scratch = np.empty((2, min(size, _BLOCK)), dtype)

    def _check_finite(self, stop: int) -> None:
        """Name the first of ``params[:stop]`` whose gradient is not finite."""
        for name, p in self.params[:stop]:
            if not np.isfinite(p.grad_slot).all():
                raise OptimizerError(f"non-finite gradient for parameter "
                                     f"'{name}'")

    def step(self, lr: float) -> None:
        cfg = self.cfg
        for i, (name, p) in enumerate(self.params):
            if p.grad is None:
                self._check_finite(i)
                raise OptimizerError(f"parameter '{name}' has no gradient")
            if p.grad is not p.grad_slot:
                np.copyto(p.grad_slot, p.grad)
        if not np.isfinite(self.grad).all():
            self._check_finite(len(self.params))
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - cfg.beta1 ** t
        c2 = 1.0 - cfg.beta2 ** t
        lr = float(lr)      # a Python float keeps the arithmetic in dtype
        decay = lr * cfg.weight_decay
        n_decay = self.n_decay if cfg.weight_decay else 0
        # Element for element the per-tensor update, in its operation
        # order (the tests hold the two equal bit for bit):
        #   m = m*b1 + (1-b1)*g;  v = v*b2 + (1-b2)*g*g
        #   p -= lr*wd*p (decayed only);  p -= lr*(m/c1) / (sqrt(v/c2) + eps)
        for a in range(0, self.data.size, _BLOCK):
            b = min(a + _BLOCK, self.data.size)
            g, m, v, p = (buf[a:b] for buf in
                          (self.grad, self.m_flat, self.v_flat, self.data))
            s1, s2 = self._scratch[:, :b - a]
            m *= cfg.beta1
            m += np.multiply(g, 1.0 - cfg.beta1, out=s1)
            v *= cfg.beta2
            np.multiply(g, 1.0 - cfg.beta2, out=s1)
            v += np.multiply(s1, g, out=s1)
            if a < n_decay:
                d = min(b, n_decay) - a
                p[:d] -= np.multiply(p[:d], decay, out=s1[:d])
            np.divide(m, c1, out=s1)
            s1 *= lr
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += cfg.eps
            s1 /= s2
            p -= s1


@dataclass
class TrainResult:
    model: ChangeDetector
    checkpoint_path: Path
    log_path: Path
    iterations: int
    first_loss: float
    final_loss: float


def _batch_arrays(samples: Sequence[BiTemporalSample], dtype):
    t1 = np.stack([s.image_t1 for s in samples]).astype(dtype)
    t2 = np.stack([s.image_t2 for s in samples]).astype(dtype)
    g = np.stack([s.gt_change for s in samples])[:, None].astype(dtype)
    return Tensor(t1), Tensor(t2), Tensor(g)


def step_loss(model: ChangeDetector, t1: Tensor, t2: Tensor,
              g: Tensor) -> LossBundle:
    """Forward plus the full deep-supervised objective."""
    bundle = model(t1, t2)
    return total_loss(bundle.side_probs(), bundle.change, bundle.uncertainty,
                      g, model.cfg)


def train(samples: Sequence[BiTemporalSample], cfg: TrainConfig, out_dir, *,
          progress: bool = False) -> TrainResult:
    """Run the optimization loop and leave a checkpoint plus loss log.

    On a non-finite loss or gradient the loop aborts, keeps the last
    periodic checkpoint and the partial log, clears the operation record
    and raises TrainingDiverged.
    """
    if not samples:
        raise ConfigError("train: dataset is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = AugmentationPolicy()

    model = ChangeDetector(cfg.ablation, seed=cfg.seed, dtype=np.float32)
    optimizer = AdamW(list(model.named_parameters()), cfg)
    rng = np.random.default_rng((cfg.seed, 0xA46))
    log_path = out_dir / LOG_NAME
    lines: list[str] = []
    first_loss = final_loss = float("nan")
    start = time.perf_counter()

    def flush_log():
        log_path.write_text("".join(lines))

    for it in range(cfg.max_iteration):
        idx = rng.integers(0, len(samples), size=cfg.batch_size)
        batch = [augment(samples[i], policy, rng) for i in idx]
        t1, t2, g = _batch_arrays(batch, np.float32)
        model.train()
        try:
            losses = step_loss(model, t1, t2, g)
            values = losses.values()
            if not np.isfinite(values["total"]):
                raise NumericalError(f"non-finite loss {values['total']}")
            backward(losses.total)
            # bench/tracing.py's StepClock marks iterations at this call.
            lr = poly_lr(it, cfg)
            optimizer.step(lr)
        except (NumericalError, OptimizerError) as e:
            clear_record()
            flush_log()
            raise TrainingDiverged(
                f"{e} at iteration {it}; last-good checkpoint retained "
                f"in {out_dir}") from e
        model.zero_grad()

        if it == 0:
            first_loss = values["total"]
        final_loss = values["total"]
        lines.append(f"{it}\t{values['l_bce']:.17g}\t{values['l_dice']:.17g}"
                     f"\t{values['l_u']:.17g}\t{values['total']:.17g}"
                     f"\t{lr:.17g}\n")
        if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
            checkpoint.save(model, out_dir / f"ckpt-{it + 1:06d}.ckpt")
        if progress and (it + 1) % 50 == 0:
            elapsed = time.perf_counter() - start
            print(f"iter {it + 1}/{cfg.max_iteration} "
                  f"total={values['total']:.4f} lr={lr:.2e} "
                  f"[{elapsed:.0f}s]", file=sys.stderr)

    final_path = out_dir / FINAL_CHECKPOINT
    checkpoint.save(model, final_path)
    flush_log()
    return TrainResult(model, final_path, log_path, cfg.max_iteration,
                       first_loss, final_loss)


def predict(model: ChangeDetector, img1: np.ndarray, img2: np.ndarray
            ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Eval-mode inference on one [3,H,W] image pair.

    Returns the [H,W] change probabilities and uncertainty (None for a
    variant without the uncertainty branch).
    """
    dtype = model.final_head.weight.dtype
    model.eval()
    with no_grad():
        bundle = model(Tensor(img1[None].astype(dtype)),
                       Tensor(img2[None].astype(dtype)))
    unc = bundle.uncertainty
    return bundle.change.data[0, 0], None if unc is None else unc.data[0, 0]


def evaluate_model(model: ChangeDetector,
                   samples: Sequence[BiTemporalSample]
                   ) -> tuple[MetricScores, ConfusionMatrix]:
    """Micro-averaged scores over a dataset (threshold 0.5)."""
    total = ConfusionMatrix(0, 0, 0, 0)
    for s in samples:
        probs, _ = predict(model, s.image_t1, s.image_t2)
        total = total + confusion(probs >= 0.5, s.gt_change)
    return score(total), total
