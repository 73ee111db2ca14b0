"""Binary PGM (P5) and PPM (P6) raster files, maxval 255.

Chosen over compressed formats because the round trip is bit-exact and
the parser fits on one page.  Masks store foreground as 255 and read any
value >= 128 as foreground.  Images and gray maps store
``floor(clip(x, 0, 1) * 255 + 0.5)``, refuse NaN, and read back as
C-contiguous float64 channel bytes over 255.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..errors import PnmParseError

# Bytes per quantization block: a few hundred KiB stays in L2.
_BLOCK_BYTES = 1 << 18


class _HeaderReader:
    """Tokenizer for the PNM header; tracks byte offsets for errors."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, message: str):
        raise PnmParseError(f"{self.path}: {message} at byte {self.pos}")

    def token(self) -> bytes:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos:self.pos + 1]
            if c == b"#":
                while self.pos < n and data[self.pos:self.pos + 1] != b"\n":
                    self.pos += 1
            elif c.isspace():
                self.pos += 1
            else:
                break
        if self.pos >= n:
            self.fail("unexpected end of header")
        start = self.pos
        while self.pos < n and not data[self.pos:self.pos + 1].isspace():
            self.pos += 1
        return data[start:self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.pos -= len(tok)
            self.fail(f"expected integer {what}, got {tok!r}")

    def raster(self, count: int) -> np.ndarray:
        if self.pos >= len(self.data):
            self.fail("missing raster separator")
        if not self.data[self.pos:self.pos + 1].isspace():
            self.fail("expected single whitespace before raster")
        self.pos += 1
        raw = self.data[self.pos:self.pos + count]
        if len(raw) < count:
            self.pos += len(raw)
            self.fail(f"raster truncated, expected {count} bytes")
        return np.frombuffer(raw, dtype=np.uint8)


def _read(path, magic: bytes, channels: int) -> np.ndarray:
    data = Path(path).read_bytes()
    r = _HeaderReader(data, path)
    got = r.token()
    if got != magic:
        r.pos = 0
        r.fail(f"expected magic {magic.decode()}, got {got!r}")
    width = r.int_token("width")
    height = r.int_token("height")
    maxval = r.int_token("maxval")
    if maxval != 255:
        r.pos -= len(str(maxval))
        r.fail(f"unsupported maxval {maxval}, only 255")
    if width <= 0 or height <= 0:
        r.fail(f"invalid dimensions {width}x{height}")
    raster = r.raster(width * height * channels)
    if channels == 1:
        return raster.reshape(height, width)
    return raster.reshape(height, width, channels)


def read_mask(path) -> np.ndarray:
    """PGM file to a binary [H, W] mask (>=128 means foreground)."""
    raw = _read(path, b"P5", 1)
    return (raw >= 128).astype(np.uint8)


def write_mask(path, mask: np.ndarray) -> None:
    """Binary [H, W] mask to a PGM file with foreground 255."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise PnmParseError(f"{path}: mask must be 2-d, got shape {mask.shape}")
    _write(path, b"P5", mask.astype(bool).astype(np.uint8) * 255)


def read_gray(path) -> np.ndarray:
    """PGM file to C-contiguous float64 [H, W] values in [0, 1]."""
    return _scale(_read(path, b"P5", 1))


def write_gray(path, values: np.ndarray) -> None:
    """Float [H, W] values to PGM, clipped to [0, 1] and rounded half-up.

    Raises PnmParseError on a NaN value, before the file is opened."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise PnmParseError(f"{path}: expected 2-d values, got {values.shape}")
    _write(path, b"P5", _quantize(path, values))


def read_image(path) -> np.ndarray:
    """PPM file to C-contiguous float64 [3, H, W] values in [0, 1]."""
    return _scale(_read(path, b"P6", 3).transpose(2, 0, 1))


def write_image(path, image: np.ndarray) -> None:
    """Float [3, H, W] values to PPM, clipped to [0, 1] and rounded half-up.

    Raises PnmParseError on a NaN value, before the file is opened."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise PnmParseError(f"{path}: image must be [3,H,W], got {image.shape}")
    _write(path, b"P6", _quantize(path, image.transpose(1, 2, 0)))


def _scale(raw: np.ndarray) -> np.ndarray:
    """Channel bytes over 255 in one pass, into a C-contiguous float64."""
    return np.divide(raw, 255.0, out=np.empty(raw.shape))


def _quantize(path, values: np.ndarray) -> np.ndarray:
    """``floor(clip(values, 0, 1) * 255 + 0.5)`` as uint8, in the layout
    of ``values``' axes (rows first, as the raster stores them).

    Works through blocks of whole rows of about _BLOCK_BYTES each, so
    every pass after the first reads and writes cache-resident data.
    Each block computes in the dtype that the whole-array formula
    computes in (float32 stays float32, integers become float64), so the
    bytes are the same.  Clipping first leaves every level in [0, 255],
    so the cast needs no second clip.
    """
    out = np.empty(values.shape, dtype=np.uint8)
    dtype = np.result_type(values.dtype, 0.0)
    height = values.shape[0]
    row_bytes = dtype.itemsize * math.prod(values.shape[1:])
    rows = max(1, _BLOCK_BYTES // max(1, row_bytes))
    buf = np.empty((min(rows, height),) + values.shape[1:], dtype=dtype)
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        block = buf[:r1 - r0]
        np.clip(values[r0:r1], 0.0, 1.0, out=block)
        # max propagates NaN, which clipping keeps and the cast would zero.
        if np.isnan(block.max(initial=0.0)):
            raise PnmParseError(f"{path}: NaN value in rows {r0}..{r1 - 1}")
        block *= 255.0
        block += 0.5
        np.floor(block, out=block)
        out[r0:r1] = block
    return out


def _write(path, magic: bytes, payload: np.ndarray) -> None:
    """Header for a [H, W] or [H, W, 3] uint8 payload, then its bytes."""
    height, width = payload.shape[:2]
    with open(Path(path), "wb") as f:
        f.write(magic + b"\n" + f"{width} {height}\n255\n".encode())
        f.write(np.ascontiguousarray(payload).data)
