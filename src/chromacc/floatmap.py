"""Portable FloatMap (PFM) reading and writing.

Raw images and masks are stored as PFM: a 'PF' (3-channel) or 'Pf'
(1-channel) token, whitespace-separated width and height, a scale whose sign
encodes byte order (negative = little-endian), then rows of 32-bit floats in
bottom-up scanline order.  Values are multiplied by |scale| on read; writes
always use scale -1, so write/read round trips are value-exact at float32
precision.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DataError", "read_pfm", "write_pfm"]


class DataError(ValueError):
    """A file or manifest does not satisfy the data contract."""


def _read_token(fh) -> bytes:
    tok = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise DataError("truncated float map header")
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def read_pfm(path) -> np.ndarray:
    """Load a float map as float64, (H, W, 3) for 'PF' or (H, W) for 'Pf'.
    A malformed header (a non-finite scale included), a short payload or
    bytes after the last scanline raise DataError."""
    with open(path, "rb") as fh:
        magic = _read_token(fh)
        if magic not in (b"PF", b"Pf"):
            raise DataError(f"{path}: not a float map (magic {magic!r})")
        channels = 3 if magic == b"PF" else 1
        try:
            width = int(_read_token(fh))
            height = int(_read_token(fh))
            scale = float(_read_token(fh))
        except ValueError as exc:
            raise DataError(f"{path}: malformed header: {exc}") from None
        if width < 1 or height < 1 or scale == 0.0 or not np.isfinite(scale):
            raise DataError(f"{path}: bad dimensions or scale")
        payload = fh.read()
    # compared as Python ints: a header may claim more floats than any
    # array can hold
    count = width * height * channels
    if len(payload) < 4 * count:
        raise DataError(f"{path}: expected {count} floats, got "
                        f"{len(payload) // 4}")
    if len(payload) > 4 * count:
        raise DataError(f"{path}: trailing bytes after {count} floats")
    endian = "<" if scale < 0 else ">"
    data = np.frombuffer(payload, dtype=f"{endian}f4").astype(np.float64) \
        * abs(scale)
    data = data.reshape(height, width, channels)[::-1]  # bottom-up rows
    return data[..., 0] if channels == 1 else data


def write_pfm(path, data: np.ndarray):
    """Store (H, W, 3) or (H, W) float data little-endian."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        magic, payload = b"Pf", data[..., None]
    elif data.ndim == 3 and data.shape[2] == 3:
        magic, payload = b"PF", data
    else:
        raise ValueError(f"float maps are (H, W) or (H, W, 3), got {data.shape}")
    h, w = payload.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(payload[::-1].astype("<f4").tobytes())
