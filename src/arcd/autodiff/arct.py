"""Bit-exact tensor records.

Layout: magic ``ARCT``, version byte 0x01, rank byte, rank unsigned
32-bit little-endian dimensions, then row-major IEEE-754 32-bit
little-endian values.  Used by checkpoints and the inference CLI.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import ArcdError

MAGIC = b"ARCT"
VERSION = 1
_CHUNK = 1 << 20


class ArctFormatError(ArcdError, ValueError):
    pass


def write_record(f: BinaryIO, arr: np.ndarray) -> None:
    """Append one tensor record to an open binary stream."""
    arr = np.asarray(arr)   # not ascontiguousarray: it makes rank 0 rank 1
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
    # Bounded reads: a header that claims more than the stream holds costs
    # memory for the bytes present, not for the claimed size, on files and
    # pipes alike.
    payload = bytearray()
    while len(payload) < nbytes:
        chunk = f.read(min(nbytes - len(payload), _CHUNK))
        if not chunk:
            raise ArctFormatError(f"truncated payload: expected {nbytes} "
                                  f"bytes, got {len(payload)}")
        payload += chunk
    return np.frombuffer(payload, dtype="<f4").reshape(shape)


def save(path, arr: np.ndarray) -> None:
    with open(Path(path), "wb") as f:
        write_record(f, arr)


def load(path) -> np.ndarray:
    with open(Path(path), "rb") as f:
        arr = read_record(f)
        if f.read(1):
            raise ArctFormatError("trailing bytes after tensor record")
    return arr
