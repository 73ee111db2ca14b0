"""Bit-exact tensor records.

Layout: magic ``ARCT``, version byte 0x01, rank byte, rank unsigned
32-bit little-endian dimensions, then row-major IEEE-754 32-bit
little-endian values.  Used by checkpoints and the inference CLI.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import ArcdError

MAGIC = b"ARCT"
VERSION = 1


class ArctFormatError(ArcdError, ValueError):
    pass


def write_record(f: BinaryIO, arr: np.ndarray) -> None:
    """Append one tensor record to an open binary stream."""
    arr = np.ascontiguousarray(arr)
    if arr.ndim > 255:
        raise ArctFormatError(f"rank {arr.ndim} exceeds the format limit of 255")
    f.write(MAGIC)
    f.write(bytes((VERSION, arr.ndim)))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(arr.astype("<f4", copy=False).tobytes())


def read_record(f: BinaryIO) -> np.ndarray:
    """Read one tensor record; returns a float32 array."""
    head = f.read(6)
    if len(head) < 6:
        raise ArctFormatError("truncated record header")
    if head[:4] != MAGIC:
        raise ArctFormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    if head[4] != VERSION:
        raise ArctFormatError(f"unsupported version {head[4]}")
    rank = head[5]
    raw = f.read(4 * rank)
    if len(raw) < 4 * rank:
        raise ArctFormatError("truncated dimension list")
    shape = struct.unpack(f"<{rank}I", raw) if rank else ()
    nbytes = 4 * math.prod(shape)
    if nbytes > sys.maxsize:
        raise ArctFormatError(f"dimensions {shape} claim {nbytes} bytes, "
                              f"more than one read can return")
    if f.seekable():
        # Checked before reading, which would allocate the claimed size.
        pos = f.tell()
        left = f.seek(0, io.SEEK_END) - pos
        f.seek(pos)
        if nbytes > left:
            raise ArctFormatError(f"truncated payload: expected {nbytes} "
                                  f"bytes, {left} left")
    payload = f.read(nbytes)
    if len(payload) < nbytes:
        raise ArctFormatError(f"truncated payload: expected {nbytes} bytes, "
                              f"got {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save(path, arr: np.ndarray) -> None:
    with open(Path(path), "wb") as f:
        write_record(f, arr)


def load(path) -> np.ndarray:
    with open(Path(path), "rb") as f:
        arr = read_record(f)
        if f.read(1):
            raise ArctFormatError("trailing bytes after tensor record")
    return arr
