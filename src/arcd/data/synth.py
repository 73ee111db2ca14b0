"""Synthetic bi-temporal scenes: flat objects on a plain background.

Each scene draws a handful of non-overlapping rectangles and ellipses on
a gray background.  Between the two epochs every object independently
appears or disappears with the configured probability; unchanged objects
keep their color and position, and only the per-epoch noise differs.
The ground truth marks exactly the pixels whose object occupancy differs
between epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError

BACKGROUND = 0.8
# Object shapes; a scene draws each object's kind uniformly from these.
KINDS = ("rectangle", "ellipse")


@dataclass
class BiTemporalSample:
    """Registered image pair plus binary change mask.

    Images are [3, H, W] floats in [0, 1]; the mask is [H, W] with
    values {0, 1}.  Spatial dims must be divisible by 32 so the encoder
    strides land exactly.
    """

    image_t1: np.ndarray
    image_t2: np.ndarray
    gt_change: np.ndarray

    def __post_init__(self):
        a, b, g = self.image_t1, self.image_t2, self.gt_change
        if a.ndim != 3 or a.shape[0] != 3:
            raise DataError(f"sample: images must be [3,H,W], got {a.shape}")
        if a.shape != b.shape:
            raise DataError(f"sample: epoch shapes {a.shape} vs {b.shape}")
        if g.shape != a.shape[1:]:
            raise DataError(f"sample: mask {g.shape} does not match images "
                            f"{a.shape[1:]}")
        if a.shape[1] % 32 or a.shape[2] % 32:
            raise DataError(f"sample: dims {a.shape[1]}x{a.shape[2]} must be "
                            f"divisible by 32")
        if not np.isin(g, (0, 1)).all():
            raise DataError("sample: mask must be binary")

    @property
    def height(self) -> int:
        return self.image_t1.shape[1]

    @property
    def width(self) -> int:
        return self.image_t1.shape[2]


@dataclass(frozen=True)
class SyntheticSceneSpec:
    size: int = 64
    n_objects: tuple[int, int] = (2, 5)
    change_fraction: float = 0.5
    noise: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.size % 32:
            raise DataError(f"scene size {self.size} must be divisible by 32")
        if not 0.0 <= self.change_fraction <= 1.0:
            raise DataError("change_fraction must be in [0, 1]")


@dataclass
class _SceneObject:
    box: tuple[slice, slice]  # rows and columns of the bounding box
    footprint: np.ndarray     # boolean mask over the box
    color: np.ndarray         # [3]
    in_t1: bool = True
    in_t2: bool = True


def _draw_footprint(rng: np.random.Generator, size: int,
                    kind: str) -> tuple[np.ndarray, int, int]:
    """A [h, w] footprint and the top-left corner of its box."""
    lo = max(size // 5, 6)
    hi = max(size // 2, lo + 2)
    h = int(rng.integers(lo, hi))
    w = int(rng.integers(lo, hi))
    top = int(rng.integers(0, size - h))
    left = int(rng.integers(0, size - w))
    if kind == "rectangle":
        mask = np.ones((h, w), dtype=bool)
    else:
        # The ellipse inscribed in the box never leaves it.
        ry, rx = h / 2.0, w / 2.0
        yy, xx = np.mgrid[0:h, 0:w]
        mask = ((yy + 0.5 - ry) / ry) ** 2 + ((xx + 0.5 - rx) / rx) ** 2 <= 1.0
    return mask, top, left


def _place_objects(rng: np.random.Generator,
                   spec: SyntheticSceneSpec) -> list[_SceneObject]:
    lo, hi = spec.n_objects
    count = int(rng.integers(lo, hi + 1))
    taken = np.zeros((spec.size, spec.size), dtype=bool)
    objects = []
    for _ in range(count):
        # Non-overlapping placement keeps occupancy-change equal to
        # appearance-change; give up on an object after a few tries.
        for _ in range(30):
            kind = KINDS[int(rng.integers(len(KINDS)))]
            mask, top, left = _draw_footprint(rng, spec.size, kind)
            h, w = mask.shape
            # The box plus a one-pixel margin must be free.
            margin = (slice(max(top - 1, 0), top + h + 1),
                      slice(max(left - 1, 0), left + w + 1))
            if not taken[margin].any():
                taken[margin] = True
                color = rng.uniform(0.05, 0.6, size=3)
                box = (slice(top, top + h), slice(left, left + w))
                objects.append(_SceneObject(box, mask, color))
                break
    return objects


def _render(objects: list[_SceneObject], epoch: int, size: int,
            noise: float, rng: np.random.Generator) -> np.ndarray:
    img = np.full((3, size, size), BACKGROUND, dtype=np.float64)
    for obj in objects:
        present = obj.in_t1 if epoch == 1 else obj.in_t2
        if present:
            rows, cols = obj.box
            img[:, rows, cols][:, obj.footprint] = obj.color[:, None]
    if noise > 0.0:
        img += rng.uniform(-noise, noise, size=img.shape)
        np.clip(img, 0.0, 1.0, out=img)
    return img


def generate_sample(spec: SyntheticSceneSpec, index: int) -> BiTemporalSample:
    """Deterministic sample for (spec.seed, index)."""
    rng = np.random.default_rng((spec.seed, index))
    objects = _place_objects(rng, spec)
    for obj in objects:
        if rng.uniform() < spec.change_fraction:
            if rng.uniform() < 0.5:
                obj.in_t2 = False   # disappears
            else:
                obj.in_t1 = False   # appears
    occ1 = np.zeros((spec.size, spec.size), dtype=bool)
    occ2 = np.zeros_like(occ1)
    for obj in objects:
        if obj.in_t1:
            occ1[obj.box] |= obj.footprint
        if obj.in_t2:
            occ2[obj.box] |= obj.footprint
    img1 = _render(objects, 1, spec.size, spec.noise, rng)
    img2 = _render(objects, 2, spec.size, spec.noise, rng)
    gt = (occ1 ^ occ2).astype(np.uint8)
    return BiTemporalSample(img1, img2, gt)


def generate(spec: SyntheticSceneSpec, count: int) -> list[BiTemporalSample]:
    """A dataset of ``count`` scenes, seeded per sample index."""
    return [generate_sample(spec, i) for i in range(count)]
