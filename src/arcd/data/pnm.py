"""Binary PGM (P5) and PPM (P6) raster files, maxval 255.

Chosen over compressed formats because the round trip is bit-exact and
the parser fits on one page.  Masks store foreground as 255 and read any
value >= 128 as foreground; images scale channel bytes by 1/255.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import PnmParseError


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
    payload = (mask.astype(bool).astype(np.uint8) * 255)
    _write(path, b"P5", payload.shape[1], payload.shape[0], payload.tobytes())


def read_gray(path) -> np.ndarray:
    """PGM file to float [H, W] values in [0, 1]."""
    values = _read(path, b"P5", 1).astype(np.float64)
    values /= 255.0
    return values


def write_gray(path, values: np.ndarray) -> None:
    """Float [H, W] values in [0, 1] to PGM, rounding half-up."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise PnmParseError(f"{path}: expected 2-d values, got {values.shape}")
    quantized = np.floor(np.clip(values, 0.0, 1.0) * 255.0 + 0.5)
    quantized = np.clip(quantized, 0, 255).astype(np.uint8)
    _write(path, b"P5", values.shape[1], values.shape[0], quantized.tobytes())


def read_image(path) -> np.ndarray:
    """PPM file to float [3, H, W] values in [0, 1]."""
    raw = _read(path, b"P6", 3)
    image = raw.transpose(2, 0, 1).astype(np.float64)
    image /= 255.0
    return image


def write_image(path, image: np.ndarray) -> None:
    """Float [3, H, W] values in [0, 1] to PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise PnmParseError(f"{path}: image must be [3,H,W], got {image.shape}")
    quantized = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5)
    quantized = np.clip(quantized, 0, 255).astype(np.uint8)
    payload = quantized.transpose(1, 2, 0).tobytes()
    _write(path, b"P6", image.shape[2], image.shape[1], payload)


def _write(path, magic: bytes, width: int, height: int,
           payload: bytes) -> None:
    with open(Path(path), "wb") as f:
        f.write(magic + b"\n" + f"{width} {height}\n255\n".encode())
        f.write(payload)
