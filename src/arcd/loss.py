"""Training objectives: hybrid change loss and uncertainty supervision.

The change loss for every supervised prediction is binary cross-entropy
plus dice, summed over predictions with equal weight.  The uncertainty
branch is trained toward the soft mismatch between the final change map
and the ground truth (a detached target: no gradient flows back into the
change branch through it), or toward the ground-truth boundary mask in
the boundary-supervision variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, as_tensor, ops
from .errors import NumericalError, ShapeError
from .network import AblationConfig

PROB_CLAMP = 1e-7
DICE_SMOOTH = 1.0


@dataclass
class LossBundle:
    """Scalar loss terms of one step; ``total`` drives backward.

    change = bce + dice, total = change + uncertainty.  The bce/dice
    fields are sums over all supervised predictions.
    """

    bce: Tensor
    dice: Tensor
    change: Tensor
    uncertainty: Tensor
    total: Tensor

    def values(self) -> dict[str, float]:
        return {"l_bce": self.bce.item(), "l_dice": self.dice.item(),
                "l_u": self.uncertainty.item(), "total": self.total.item()}


def _check_pair(name: str, p: Tensor, g: Tensor) -> None:
    if p.shape != g.shape:
        raise ShapeError(f"{name}: prediction {p.shape} and target {g.shape} "
                         f"must match")
    if np.isnan(p.data).any() or np.isnan(g.data).any():
        raise NumericalError(f"{name}: NaN input")


def bce(p: Tensor, g) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped away from {0,1}."""
    g = as_tensor(g, dtype=p.dtype)
    _check_pair("bce", p, g)
    return ops.bce(p, g, PROB_CLAMP, 1.0 - PROB_CLAMP)


def dice(p: Tensor, g, smooth: float = DICE_SMOOTH) -> Tensor:
    """Soft dice loss 1 - (2*overlap + s) / (sum(p) + sum(g) + s)."""
    g = as_tensor(g, dtype=p.dtype)
    _check_pair("dice", p, g)
    return ops.dice(p, g, smooth)


def uncertainty_target(p_change, g_change) -> Tensor:
    """Soft mismatch p*(1-g) + g*(1-p); equals XOR on binary maps.

    The prediction enters as a constant: the returned target carries no
    gradient path.
    """
    p = p_change.data if isinstance(p_change, Tensor) else np.asarray(p_change)
    g = np.asarray(g_change.data if isinstance(g_change, Tensor) else g_change,
                   dtype=p.dtype)
    if p.shape != g.shape:
        raise ShapeError(f"uncertainty_target: maps {p.shape} and {g.shape} "
                         f"must match")
    return Tensor(p * (1.0 - g) + g * (1.0 - p))


def boundary_target(g_change) -> np.ndarray:
    """Mask of pixels whose value differs from any 4-neighbour.

    Works on [..., H, W]; comparisons never reach across the image edge.
    """
    g = np.asarray(g_change.data if isinstance(g_change, Tensor) else g_change)
    if g.ndim < 2:
        raise ShapeError(f"boundary_target: need at least 2 dims, got {g.shape}")
    edge = np.zeros(g.shape, dtype=bool)
    vert = g[..., :-1, :] != g[..., 1:, :]
    edge[..., :-1, :] |= vert
    edge[..., 1:, :] |= vert
    horiz = g[..., :, :-1] != g[..., :, 1:]
    edge[..., :, :-1] |= horiz
    edge[..., :, 1:] |= horiz
    return edge.astype(g.dtype)


def total_loss(change_probs: Sequence[Tensor], final_prob: Tensor,
               uncertainty_prob: Optional[Tensor], g_change,
               cfg: AblationConfig) -> LossBundle:
    """Deep-supervised change loss plus the uncertainty term.

    ``change_probs`` are the auxiliary full-resolution predictions;
    ``final_prob`` is the final change map (also supervised, and the one
    that defines the uncertainty target).
    """
    g = as_tensor(g_change, dtype=final_prob.dtype)
    supervised = [*change_probs, final_prob]
    bce_total = bce(supervised[0], g)
    dice_total = dice(supervised[0], g)
    for p in supervised[1:]:
        bce_total = ops.add(bce_total, bce(p, g))
        dice_total = ops.add(dice_total, dice(p, g))
    change = ops.add(bce_total, dice_total)

    if cfg.use_oue:
        if uncertainty_prob is None:
            raise ValueError("total_loss: config enables the uncertainty "
                             "branch but no uncertainty map was given")
        if cfg.uncertainty_supervision == "boundary":
            target = Tensor(boundary_target(g).astype(final_prob.data.dtype))
        else:
            target = uncertainty_target(final_prob, g)
        unc = bce(uncertainty_prob, target)
    else:
        unc = Tensor(np.zeros((), dtype=final_prob.data.dtype))

    total = ops.add(change, unc)
    return LossBundle(bce_total, dice_total, change, unc, total)
