"""Model checkpoints.

A checkpoint is the sequence of named parameter records (unsigned 16-bit
little-endian name length, UTF-8 parameter name, ARCT tensor record) in
the model's stable parameter order, followed by one trailing ARCT record
per batch-norm layer holding its running statistics stacked as [2, C]
(mean row, then variance row).  Loading validates names and shapes
against the target model, and rejects non-finite values and negative
running variances; it reports the first bad record, and a file that
fails any check leaves the model untouched.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import arct
from .errors import CheckpointError
from .nn import BatchNorm, Module


def _bn_layers(model: Module) -> list[tuple[str, BatchNorm]]:
    return [(name, m) for name, m in model.named_modules()
            if isinstance(m, BatchNorm)]


def save(model: Module, path) -> None:
    """Atomic write: temp file in the same directory, then rename.  A
    failed write removes the temp file and leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for name, p in model.named_parameters():
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                arct.write_record(f, p.data)
            for _, bn in _bn_layers(model):
                arct.write_record(f, np.stack([bn.running_mean,
                                               bn.running_var]))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load(model: Module, path) -> None:
    """Restore parameters and running statistics in place.

    The whole file is read and checked against the model first; weights
    are assigned only once it has passed, so a failed load leaves the
    model unchanged.  Weights are copied into the existing arrays, so a
    model whose weights are views into an optimizer's buffer stays bound
    to it.
    """
    path = Path(path)
    params = list(model.named_parameters())
    bns = _bn_layers(model)
    arrays, stats = [], []
    with open(path, "rb") as f:
        for expected, p in params:
            raw = f.read(2)
            if len(raw) < 2:
                raise CheckpointError(
                    f"{path}: checkpoint ends before parameter '{expected}'")
            (name_len,) = struct.unpack("<H", raw)
            try:
                name = f.read(name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(
                    f"{path}: name of parameter '{expected}' is not valid "
                    f"UTF-8") from e
            if name != expected:
                raise CheckpointError(
                    f"{path}: first mismatched parameter '{expected}' "
                    f"(file has '{name}')")
            try:
                arr = arct.read_record(f)
            except arct.ArctFormatError as e:
                raise CheckpointError(
                    f"{path}: bad record for parameter '{name}': {e}") from e
            if arr.shape != p.shape:
                raise CheckpointError(
                    f"{path}: first mismatched parameter '{name}': shape "
                    f"{arr.shape} in file, {p.shape} in model")
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"{path}: parameter '{name}' has non-finite values")
            arrays.append(arr)
        for name, bn in bns:
            try:
                record = arct.read_record(f)
            except arct.ArctFormatError as e:
                raise CheckpointError(
                    f"{path}: bad running statistics for '{name}': {e}") from e
            want = (2, bn.running_mean.shape[0])
            if record.shape != want:
                raise CheckpointError(
                    f"{path}: running statistics for '{name}' have shape "
                    f"{record.shape}, expected {want}")
            if not np.isfinite(record).all():
                raise CheckpointError(
                    f"{path}: running statistics for '{name}' have "
                    f"non-finite values")
            if (record[1] < 0).any():
                raise CheckpointError(
                    f"{path}: running variance for '{name}' is negative")
            stats.append(record)
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last "
                                  f"running-statistics record")
    for (_, p), arr in zip(params, arrays):
        np.copyto(p.data, arr)
    for (_, bn), record in zip(bns, stats):
        bn.running_mean = record[0].astype(bn.running_mean.dtype)
        bn.running_var = record[1].astype(bn.running_var.dtype)
