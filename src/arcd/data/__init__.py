"""Synthetic data generation, raster I/O and augmentation."""

from .augment import AugmentationPolicy, augment
from .dataset import list_ids, read_dataset, sample_id, write_dataset
from .pnm import (read_gray, read_image, read_mask, write_gray, write_image,
                  write_mask)
from .synth import (BiTemporalSample, SyntheticSceneSpec, generate,
                    generate_sample)

__all__ = [
    "BiTemporalSample", "SyntheticSceneSpec", "generate", "generate_sample",
    "AugmentationPolicy", "augment",
    "read_mask", "write_mask", "read_gray", "write_gray",
    "read_image", "write_image",
    "write_dataset", "read_dataset", "list_ids", "sample_id",
]
