"""Siamese change-detection network with pixel-wise uncertainty.

Layout: a shared four-stage encoder (strides 4/8/16/32, channels
16/32/64/128) and a gated-fusion decoder produce per-epoch feature
pyramids.  A temporal-order-symmetric difference block turns each decoder
level pair into change features, which side heads score.  Three review
blocks then walk the pyramid coarse levels into the stride-4 trunk,
guided by conflict and reverse attention between neighbouring
predictions.  An uncertainty branch scores per-pixel confidence from
image texture and the finest difference features, and its features can be
fused into the final change head as a residual on the trunk.

A forward pass returns the full-resolution change and uncertainty maps,
which are all that inference reads, plus the side logits at their own
stride; only the training loss brings those to full resolution.

Every difference path is symmetric under swapping the two input epochs,
so the predicted change map is invariant to temporal order.

The two epochs travel as one Siamese pair (``siamese_pair``): in
training one batch of 2N, whose batch norms normalise each epoch's half
with its own statistics; in eval two batch-N calls, since stacking there
only raises peak memory.  ``siamese`` runs the shared stages on a pair,
and each difference block turns a pair into one batch-N map.

Forwards drop each intermediate map once its last reader has run, so an
eval forward under ``no_grad`` holds only live activations; in training
the operation record keeps what the adjoints need either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, ops
from .errors import ShapeError
from .nn import (BatchNorm, Conv2d, Conv3d, ConvBlock, Module, ModuleList,
                 SqueezeExcite)

STRIDES = (4, 8, 16, 32)
CHANNELS = (16, 32, 64, 128)
TEXTURE_CH = 16
# Batch-norm groups of a layer that sees a Siamese pair stacked: the two
# epochs, or a difference block's two stacking orders.
PAIR = 2


@dataclass(frozen=True)
class AblationConfig:
    """Switchboard for the component-removal variants."""

    use_fam_gate: bool = True
    use_oue: bool = True
    use_uncertainty_aware_fusion: bool = True
    use_krm: bool = True
    use_conflict_attention: bool = True
    use_reverse_attention: bool = True
    uncertainty_supervision: str = "prediction_error"

    def __post_init__(self):
        if self.uncertainty_supervision not in ("prediction_error", "boundary"):
            raise ValueError(
                f"uncertainty_supervision must be 'prediction_error' or "
                f"'boundary', got {self.uncertainty_supervision!r}")

    @property
    def fuse_uncertainty(self) -> bool:
        return self.use_oue and self.use_uncertainty_aware_fusion


VARIANTS: dict[str, AblationConfig] = {
    "full": AblationConfig(),
    "fam-wo-gate": AblationConfig(use_fam_gate=False),
    "wo-oue": AblationConfig(use_oue=False,
                             use_uncertainty_aware_fusion=False),
    "oue-wo-ual": AblationConfig(use_uncertainty_aware_fusion=False),
    "oue-boundary-sup": AblationConfig(uncertainty_supervision="boundary"),
    "wo-krm": AblationConfig(use_krm=False),
    "krm-wo-coa": AblationConfig(use_conflict_attention=False),
    "krm-wo-rea": AblationConfig(use_reverse_attention=False),
    "krm-wo-coa-rea": AblationConfig(use_conflict_attention=False,
                                     use_reverse_attention=False),
}


def variant_config(name: str) -> AblationConfig:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r} "
                         f"(valid: {', '.join(VARIANTS)})") from None


def siamese_pair(training: bool, first: Tensor, second: Tensor):
    """In training the stacked tensor [first; second], else the tuple."""
    if training:
        return ops.concat([first, second], axis=0)
    return first, second


def siamese(stages, pair):
    """Run ``stages`` in turn on a Siamese pair: a stacked pair goes
    through each stage once, a tuple pair's epochs one after the other.
    The result is a pair of the same kind, or a list of them where the
    stages end in a list of maps (a feature pyramid)."""
    if isinstance(pair, Tensor):
        for stage in stages:
            pair = stage(pair)
        return pair
    first, second = pair
    for stage in stages:
        first = stage(first)
        second = stage(second)
    if isinstance(first, list):
        return list(zip(first, second))
    return first, second


def conflict_attention(p_low: Tensor, p_high_up: Tensor) -> Tensor:
    """Soft disagreement of two probability maps at the same resolution.

    p_low*(1-p_high) + p_high*(1-p_low): zero where both maps agree with
    full confidence, largest where they contradict each other.
    """
    a = ops.mul(p_low, ops.one_minus(p_high_up))
    b = ops.mul(p_high_up, ops.one_minus(p_low))
    return ops.add(a, b)


def reverse_attention(p_high_up: Tensor) -> Tensor:
    """Complement of a coarse prediction: focus on what it calls unchanged."""
    return ops.one_minus(p_high_up)


class GatedFusion(Module):
    """Fuse a coarse map into a fine one through an element-wise gate.

    The coarse feature (upsampled if needed) drives a sigmoid gate that
    calibrates the fine feature; both are then concatenated and mixed by
    a 3x3 conv block.  Without the gate the fine feature passes through
    uncalibrated and the gate convolution does not exist.  ``groups`` is
    the fuse block's batch-norm group count.
    """

    def __init__(self, high_ch: int, low_ch: int, out_ch: int, *,
                 gated: bool, groups: int = 1, rng, dtype=np.float32):
        super().__init__()
        self.gated = gated
        if gated:
            self.gate = Conv2d(high_ch, low_ch, 1, rng=rng, dtype=dtype)
        self.fuse = ConvBlock(high_ch + low_ch, out_ch, groups=groups,
                              rng=rng, dtype=dtype)

    def forward(self, high: Tensor, low: Tensor) -> Tensor:
        if low.shape[2] % high.shape[2] or low.shape[3] % high.shape[3]:
            raise ShapeError(f"gated fusion: high map {high.shape} does not "
                             f"divide low map {low.shape} spatially")
        factor = low.shape[2] // high.shape[2]
        if factor not in (1, 2):
            raise ShapeError(f"gated fusion: expected equal or 2x coarser "
                             f"high map, got factor {factor}")
        up = ops.upsample_bilinear(high, factor) if factor > 1 else high
        if self.gated:
            weight = ops.sigmoid(self.gate(up))
            low = ops.mul(low, weight)
            del weight
        cat = ops.concat([up, low], axis=1)
        del up, low
        return self.fuse(cat)


class TemporalDifference(Module):
    """Order-symmetric change features from a Siamese pair of feature maps.

    Both orders (a, b) and (b, a) pass through one shared conv block
    whose 2x3x3 kernel spans the two epochs (for a stacked pair [a; b]
    as one batch, with per-order batch statistics); summing the two
    order responses makes the output exactly symmetric in its inputs.
    """

    def __init__(self, channels: int, *, rng, dtype=np.float32):
        super().__init__()
        self.conv = Conv3d(channels, channels, rng=rng, dtype=dtype)
        self.bn = BatchNorm(channels, groups=PAIR, dtype=dtype)
        self.proj = Conv2d(channels, channels, 1, rng=rng, dtype=dtype)

    def _order_response(self, first: Tensor, second: Tensor) -> Tensor:
        return ops.relu(self.bn(self.conv(first, second)))

    def forward(self, pair) -> Tensor:
        if isinstance(pair, Tensor):
            n = pair.shape[0] // 2
            swapped = ops.concat([ops.narrow(pair, 0, n, 2 * n),
                                  ops.narrow(pair, 0, 0, n)], axis=0)
            r = self._order_response(pair, swapped)
            ab, ba = ops.narrow(r, 0, 0, n), ops.narrow(r, 0, n, 2 * n)
        else:
            a, b = pair
            ab, ba = self._order_response(a, b), self._order_response(b, a)
        return self.proj(ops.add(ab, ba))


class Encoder(Module):
    """Shared four-stage backbone: stem at stride 4, then three stride-2
    stages, two conv blocks each.  In training it sees both epochs
    stacked, so its batch norms keep per-epoch statistics."""

    def __init__(self, *, rng, dtype=np.float32):
        super().__init__()
        c2, c3, c4, c5 = CHANNELS

        def stage(in_ch, out_ch, stride2):
            return ModuleList([
                ConvBlock(in_ch, out_ch, stride=2, groups=PAIR, rng=rng,
                          dtype=dtype),
                ConvBlock(out_ch, out_ch, stride=stride2, groups=PAIR,
                          rng=rng, dtype=dtype),
            ])

        self.stage2 = stage(3, c2, 2)
        self.stage3 = stage(c2, c3, 1)
        self.stage4 = stage(c3, c4, 1)
        self.stage5 = stage(c4, c5, 1)

    def forward(self, x: Tensor) -> list[Tensor]:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"encoder: expected [N,3,H,W] input, got {x.shape}")
        if x.shape[2] % 32 or x.shape[3] % 32:
            raise ShapeError(f"encoder: spatial dims {x.shape[2]}x{x.shape[3]} "
                             f"must be divisible by 32")
        feats = []
        for stage in (self.stage2, self.stage3, self.stage4, self.stage5):
            for block in stage:
                x = block(x)
            feats.append(x)
        return feats


class Decoder(Module):
    """Top-down gated fusion turning encoder features into decoder maps."""

    def __init__(self, *, gated: bool, rng, dtype=np.float32):
        super().__init__()
        c2, c3, c4, c5 = CHANNELS
        self.proj5 = Conv2d(c5, c5, 1, rng=rng, dtype=dtype)
        self.fuse4 = GatedFusion(c5, c4, c4, gated=gated, groups=PAIR,
                                 rng=rng, dtype=dtype)
        self.fuse3 = GatedFusion(c4, c3, c3, gated=gated, groups=PAIR,
                                 rng=rng, dtype=dtype)
        self.fuse2 = GatedFusion(c3, c2, c2, gated=gated, groups=PAIR,
                                 rng=rng, dtype=dtype)

    def forward(self, feats: list[Tensor]) -> list[Tensor]:
        f2, f3, f4, f5 = feats
        p5 = self.proj5(f5)
        p4 = self.fuse4(p5, f4)
        p3 = self.fuse3(p4, f3)
        p2 = self.fuse2(p3, f2)
        return [p2, p3, p4, p5]


class TextureEncoder(Module):
    """Three down-conv blocks (strides 2,2,1) from raw images to stride 4;
    like the encoder, it sees both epochs stacked in training."""

    def __init__(self, out_ch: int, *, rng, dtype=np.float32):
        super().__init__()
        mid = max(out_ch // 2, 1)
        self.block1 = ConvBlock(3, mid, stride=2, groups=PAIR, rng=rng,
                                dtype=dtype)
        self.block2 = ConvBlock(mid, out_ch, stride=2, groups=PAIR, rng=rng,
                                dtype=dtype)
        self.block3 = ConvBlock(out_ch, out_ch, groups=PAIR, rng=rng,
                                dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.block3(self.block2(self.block1(x)))


class UncertaintyBranch(Module):
    """Pixel-wise confidence from image texture and fine change features.

    Texture features of the image pair run through a shared down-conv stack,
    their symmetric temporal difference is fused with the finest change
    features, and a sigmoid head upsampled to full resolution scores how
    likely each pixel is to be mispredicted.
    """

    def __init__(self, d2_ch: int, texture_ch: int, *, gated: bool, rng,
                 dtype=np.float32):
        super().__init__()
        self.texture = TextureEncoder(texture_ch, rng=rng, dtype=dtype)
        self.diff = TemporalDifference(texture_ch, rng=rng, dtype=dtype)
        self.fuse = GatedFusion(d2_ch, texture_ch, texture_ch, gated=gated,
                                rng=rng, dtype=dtype)
        self.head = Conv2d(texture_ch, 1, 1, rng=rng, dtype=dtype)

    def forward(self, images, d2: Tensor) -> tuple[Tensor, Tensor]:
        dt = self.diff(siamese([self.texture], images))
        if dt.shape[2:] != d2.shape[2:]:
            raise ShapeError(f"uncertainty branch: texture features "
                             f"{dt.shape} and change features {d2.shape} "
                             f"disagree spatially")
        u = self.fuse(d2, dt)
        # Logits are upsampled before the sigmoid: interpolating bounded
        # probabilities pins sub-cell boundary placement once neighbours
        # saturate, capping attainable accuracy.
        p_unc = ops.sigmoid(ops.upsample_bilinear(self.head(u), 4))
        return u, p_unc


class ReviewBlock(Module):
    """Refine the fine-level trunk with one coarser difference level.

    Three 1x1 transition convs mix the trunk and the coarse features into
    branches gated by conflict attention, reverse attention, and identity
    (each followed by channel attention and a 3x3 conv); the branch sum,
    concatenated with the fine prediction and fused, is added to the
    trunk as a residual, giving the refined features and their
    prediction.  The residual keeps every branch at the trunk's
    ``low_ch`` channels.  Disabled attention branches keep their convs
    and simply skip the gating product.

    Each transition's weight spans the trunk channels, then the coarse
    ones, as if applied to their concatenation at the trunk resolution.
    A 1x1 conv commutes with bilinear upsampling, so the coarse columns
    are applied at the coarse resolution and only their low_ch-channel
    result is upsampled: the same function without building the upsampled
    coarse level or the concatenation.  The coarse prediction is
    upsampled for the attention maps.
    """

    def __init__(self, low_ch: int, high_ch: int, *, use_conflict: bool,
                 use_reverse: bool, rng, dtype=np.float32):
        super().__init__()
        self.use_conflict = use_conflict
        self.use_reverse = use_reverse
        cat_ch = low_ch + high_ch
        self.trans1 = Conv2d(cat_ch, low_ch, 1, rng=rng, dtype=dtype)
        self.trans2 = Conv2d(cat_ch, low_ch, 1, rng=rng, dtype=dtype)
        self.trans3 = Conv2d(cat_ch, low_ch, 1, rng=rng, dtype=dtype)
        self.attn1 = SqueezeExcite(low_ch, rng=rng, dtype=dtype)
        self.attn2 = SqueezeExcite(low_ch, rng=rng, dtype=dtype)
        self.attn3 = SqueezeExcite(low_ch, rng=rng, dtype=dtype)
        self.conv1 = Conv2d(low_ch, low_ch, 3, rng=rng, dtype=dtype)
        self.conv2 = Conv2d(low_ch, low_ch, 3, rng=rng, dtype=dtype)
        self.conv3 = Conv2d(low_ch, low_ch, 3, rng=rng, dtype=dtype)
        self.fuse = Conv2d(low_ch + 1, low_ch, 3, rng=rng, dtype=dtype)
        self.head = Conv2d(low_ch, 1, 1, rng=rng, dtype=dtype)

    @staticmethod
    def _transition(trans: Conv2d, d_low: Tensor, d_high: Tensor,
                    factor: int) -> Tensor:
        """``trans`` of [d_low, upsampled d_high], upsampling after mixing."""
        low_ch, cat_ch = d_low.shape[1], trans.weight.shape[1]
        w_low = ops.narrow(trans.weight, 1, 0, low_ch)
        w_high = ops.narrow(trans.weight, 1, low_ch, cat_ch)
        k_high = ops.conv2d(d_high, w_high, None)
        if factor > 1:
            k_high = ops.upsample_bilinear(k_high, factor)
        return ops.add(ops.conv2d(d_low, w_low, trans.bias), k_high)

    def forward(self, d_low: Tensor, d_high: Tensor, p_low: Tensor,
                p_high: Tensor) -> tuple[Tensor, Tensor]:
        """Returns the refined features and the new prediction LOGITS.

        Only the attention branches read ``p_high``; a block with neither
        takes None for it."""
        if d_low.shape[2] % d_high.shape[2]:
            raise ShapeError(f"review block: coarse map {d_high.shape} does "
                             f"not divide fine map {d_low.shape} spatially")
        factor = d_low.shape[2] // d_high.shape[2]
        p_up = p_high
        if factor > 1 and (self.use_conflict or self.use_reverse):
            p_up = ops.upsample_bilinear(p_high, factor)
        k1, k2, k3 = (self._transition(t, d_low, d_high, factor)
                      for t in (self.trans1, self.trans2, self.trans3))

        if self.use_conflict:
            coa = conflict_attention(p_low, p_up)
            k1 = ops.add(k1, ops.mul(k1, coa))
            del coa
        if self.use_reverse:
            rea = reverse_attention(p_up)
            k2 = ops.add(k2, ops.mul(k2, rea))
            del rea
        del p_up

        # (b1 + b2) + b3, summed as the branches are produced so that
        # each branch is freed before the next one runs.
        branches = self.conv1(self.attn1(k1))
        del k1
        branches = ops.add(branches, self.conv2(self.attn2(k2)))
        del k2
        branches = ops.add(branches, self.conv3(self.attn3(k3)))
        del k3

        refined = ops.add(self.fuse(ops.concat([p_low, branches], axis=1)),
                          d_low)
        return refined, self.head(refined)


@dataclass
class PredictionBundle:
    """Outputs of one forward pass.

    ``change`` (the final change probability map) and ``uncertainty``
    (the confidence map, None without the uncertainty branch) are at full
    resolution; they are all that inference reads.  The deep-supervision
    side outputs stay logits at their own resolution: ``level_logits``
    holds the four per-level side logits at ``STRIDES``,
    ``refined_logits`` the review-block logits at stride 4 (empty when
    the review cascade is disabled).  ``side_probs`` brings them to full
    resolution for the loss.  ``features`` keeps the stride-4
    uncertainty-aware features.
    """

    level_logits: list[Tensor]
    refined_logits: list[Tensor]
    change: Tensor
    uncertainty: Optional[Tensor]
    features: Optional[Tensor]

    def side_probs(self) -> list[Tensor]:
        """Full-resolution side probabilities, levels then refined maps.

        Logits are upsampled before the sigmoid, as for ``change``.
        """
        size = self.change.shape[2]
        return [ops.sigmoid(ops.upsample_bilinear(lg, size // lg.shape[2]))
                for lg in (*self.level_logits, *self.refined_logits)]


class ChangeDetector(Module):
    """Full network; ``cfg`` selects which components exist at all."""

    def __init__(self, cfg: AblationConfig = AblationConfig(), *,
                 seed: int = 0, dtype=np.float32):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        c2, c3, c4, c5 = CHANNELS
        trunk_ch = c2

        self.encoder = Encoder(rng=rng, dtype=dtype)
        self.decoder = Decoder(gated=cfg.use_fam_gate, rng=rng, dtype=dtype)
        self.diffs = ModuleList([
            TemporalDifference(c, rng=rng, dtype=dtype) for c in CHANNELS])
        self.level_heads = ModuleList([
            Conv2d(c, 1, 1, rng=rng, dtype=dtype) for c in CHANNELS])
        if cfg.use_krm:
            self.reviews = ModuleList([
                ReviewBlock(trunk_ch, ch,
                            use_conflict=cfg.use_conflict_attention,
                            use_reverse=cfg.use_reverse_attention,
                            rng=rng, dtype=dtype)
                for ch in (c3, c4, c5)])
        if cfg.use_oue:
            self.uncertainty = UncertaintyBranch(
                c2, TEXTURE_CH, gated=cfg.use_fam_gate, rng=rng, dtype=dtype)
        if cfg.fuse_uncertainty:
            self.final_fuse = GatedFusion(trunk_ch, TEXTURE_CH, trunk_ch,
                                          gated=cfg.use_fam_gate, rng=rng,
                                          dtype=dtype)
        self.final_head = Conv2d(trunk_ch, 1, 1, rng=rng, dtype=dtype)

    def forward(self, img1: Tensor, img2: Tensor) -> PredictionBundle:
        if img1.shape != img2.shape:
            raise ShapeError(f"change detector: epoch images {img1.shape} and "
                             f"{img2.shape} must match")
        images = siamese_pair(self.training, img1, img2)
        levels = siamese([self.encoder, self.decoder], images)
        diffs = [diff(pair) for diff, pair in zip(self.diffs, levels)]
        del levels
        logits = [head(d) for head, d in zip(self.level_heads, diffs)]

        refined_logits: list[Tensor] = []
        trunk = diffs[0]
        if self.cfg.use_krm:
            # Only the review cascade reads probabilities: each review
            # the finer prediction before it (so the last review's logit
            # is not squashed), its attention branches the coarse one.
            attends = (self.cfg.use_conflict_attention
                       or self.cfg.use_reverse_attention)
            probs = [ops.sigmoid(lg) if attends or i == 0 else None
                     for i, lg in enumerate(logits)]
            p_low = probs[0]
            for review, d_high, p_high in zip(self.reviews, diffs[1:],
                                              probs[1:]):
                if refined_logits:
                    p_low = ops.sigmoid(refined_logits[-1])
                trunk, logit_low = review(trunk, d_high, p_low, p_high)
                refined_logits.append(logit_low)
            del probs, p_low

        u_feats = None
        p_unc = None
        if self.cfg.use_oue:
            u_feats, p_unc = self.uncertainty(images, diffs[0])
        final = trunk
        if self.cfg.fuse_uncertainty:
            final = ops.add(trunk, self.final_fuse(trunk, u_feats))
        # Full-resolution maps interpolate logits, then squash: probability
        # interpolation cannot place boundaries below the cell size once
        # neighbouring cells saturate.
        change = ops.sigmoid(
            ops.upsample_bilinear(self.final_head(final), 4))
        return PredictionBundle(logits, refined_logits, change, p_unc,
                                u_feats)
