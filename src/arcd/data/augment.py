"""Training-time augmentation.

Spatial transforms (flips) always hit both epochs and the mask
identically so pixel correspondence survives; temporal exchange swaps
the two images and leaves the mask untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .synth import BiTemporalSample


@dataclass(frozen=True)
class AugmentationPolicy:
    p_hflip: float = 0.5
    p_vflip: float = 0.5
    p_temporal_exchange: float = 0.5

    def __post_init__(self):
        for name in ("p_hflip", "p_vflip", "p_temporal_exchange"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must be a probability, got {v}")


def augment(sample: BiTemporalSample, policy: AugmentationPolicy,
            rng: np.random.Generator) -> BiTemporalSample:
    """One random draw of the policy applied to a sample."""
    t1, t2, mask = sample.image_t1, sample.image_t2, sample.gt_change
    if policy.p_hflip and rng.uniform() < policy.p_hflip:
        t1, t2 = t1[:, :, ::-1], t2[:, :, ::-1]
        mask = mask[:, ::-1]
    if policy.p_vflip and rng.uniform() < policy.p_vflip:
        t1, t2 = t1[:, ::-1, :], t2[:, ::-1, :]
        mask = mask[::-1, :]
    if policy.p_temporal_exchange and rng.uniform() < policy.p_temporal_exchange:
        t1, t2 = t2, t1
    return BiTemporalSample(np.ascontiguousarray(t1),
                            np.ascontiguousarray(t2),
                            np.ascontiguousarray(mask))

