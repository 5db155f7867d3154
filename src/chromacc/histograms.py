"""Log-chroma image features.

An RGB pixel c = (r, g, b) with strictly positive components maps to two
chroma coordinates that discard absolute intensity:

    u = log(g / r),  v = log(g / b)

An image is summarized as an n x n histogram over (u, v).  Channel 0 bins
pixel colors weighted by pixel brightness ||c||_2, channel 1 bins gradient
colors weighted by gradient magnitude, and channels 2-3 are fixed coordinate
planes holding the bin-center u and v values.  Rows index v, columns index u.

Bins partition [-bound, bound) half-open: bin i covers
[lo + i*eps, lo + (i+1)*eps), so every in-range value lands in exactly one
bin and u == +bound falls outside.

A feature stack walks its image once.  The log of the positive components
is taken a single time, and both histogram channels read it: the pixel
channel as log g - log r and log g - log b, the gradient channel through
forward differences of the same log.  Each channel keeps only its valid
entries, in raster order, and fills the grid with one np.bincount, which
adds the weights of a bin in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmptyHistogramError",
    "HistogramConfig",
    "RawImage",
    "ChromaHistogram",
    "unit_illuminant",
    "pixel_uv",
    "build_histogram",
    "assemble_feature_stack",
    "bilinear_resize",
]


# largest pixel value: float32's maximum, the most a float map can hold
PIXEL_MAX = float(np.finfo(np.float32).max)


class EmptyHistogramError(ValueError):
    """No valid pixel survived masking/positivity checks."""


@dataclass(frozen=True)
class HistogramConfig:
    """Geometry of the log-chroma histogram.

    n is the number of bins per axis, bound the half-width of the square
    domain [-bound, bound) along both u and v.
    """

    n: int = 64
    bound: float = 2.85

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not (self.bound > 0):
            raise ValueError(f"bound must be positive, got {self.bound}")

    @property
    def bin_width(self) -> float:
        return 2.0 * self.bound / self.n

    @property
    def lo(self) -> float:
        return -self.bound

    def centers(self) -> np.ndarray:
        """Bin-center coordinates, shape (n,)."""
        i = np.arange(self.n, dtype=np.float64)
        return self.lo + (i + 0.5) * self.bin_width

    def bin_index(self, x) -> np.ndarray:
        """Half-open bin index of coordinate x; may fall outside [0, n)."""
        return np.floor((np.asarray(x, dtype=np.float64) - self.lo)
                        / self.bin_width).astype(np.int64)


@dataclass
class RawImage:
    """Linear raw image, (H, W, 3) float64, plus a boolean valid-pixel mask.

    Pixel values must be finite, non-negative and at most float32's largest
    value, the most a float map can hold (the brightness weight of larger
    ones overflows); zero-valued components are legal but such pixels are
    dropped from chroma statistics.
    """

    pixels: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"pixels must be (H, W, 3), got {self.pixels.shape}")
        if not np.all(np.isfinite(self.pixels)):
            raise ValueError("pixels must be finite")
        if np.any(self.pixels < 0):
            raise ValueError("pixels must be non-negative")
        if np.any(self.pixels > PIXEL_MAX):
            raise ValueError(f"pixels must be at most {PIXEL_MAX:.6g}")
        if self.mask is None:
            self.mask = np.ones(self.pixels.shape[:2], dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.pixels.shape[:2]:
                raise ValueError(
                    f"mask shape {self.mask.shape} does not match image "
                    f"{self.pixels.shape[:2]}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class ChromaHistogram:
    """Feature stack over the (u, v) grid, shape (n, n, 4).

    Channels: 0 pixel histogram, 1 gradient histogram, 2 u-coordinate plane
    (constant along rows), 3 v-coordinate plane (constant along columns).
    """

    data: np.ndarray
    config: HistogramConfig = field(default_factory=HistogramConfig)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        n = self.config.n
        if self.data.shape != (n, n, 4):
            raise ValueError(f"expected ({n}, {n}, 4), got {self.data.shape}")

    def channel_first(self) -> np.ndarray:
        """(4, n, n) view for channel-first consumers."""
        return np.ascontiguousarray(self.data.transpose(2, 0, 1))


def _stack_array(stack, n: int) -> np.ndarray:
    """(4, n, n) channel-first float64 array of a feature stack given as a
    ChromaHistogram or a channel-first (4, n, n) array.  A bare array is
    always read channel-first: at n = 4 the two layouts share a shape."""
    arr = stack.channel_first() if isinstance(stack, ChromaHistogram) \
        else np.asarray(stack, dtype=np.float64)
    if arr.shape != (4, n, n):
        raise ValueError(f"stack shape {arr.shape} does not fit n={n}")
    return arr


def unit_illuminant(ell) -> np.ndarray:
    """ell / ||ell||; ValueError unless ell is a 3-vector with positive
    components and a finite, nonzero norm."""
    ell = np.asarray(ell, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = np.linalg.norm(ell) if ell.shape == (3,) else 0.0
    if not ((ell > 0).all() and 0.0 < norm < np.inf):
        raise ValueError("illuminant must be a positive 3-vector with a "
                         f"finite, nonzero norm, got {ell}")
    return ell / norm


def pixel_uv(pixels: np.ndarray):
    """Vectorized log-chroma for an (N, 3) pixel array.

    Returns (u, v, valid) where valid marks rows with all components > 0;
    u, v are NaN on invalid rows.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    valid = np.all(pixels > 0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(pixels > 0, np.log(np.where(pixels > 0, pixels, 1.0)),
                        np.nan)
    u = logp[..., 1] - logp[..., 0]
    v = logp[..., 1] - logp[..., 2]
    return u, v, valid


def _log_image(image: RawImage):
    """The one log of an image that both histogram channels read.

    Returns channel-first (3, H, W) pixels and their log, plus the (H, W)
    mask ok of masked-in pixels whose three components are all positive.
    Non-positive components get a placeholder log of 0; only ok pixels'
    logs are ever used.
    """
    px = np.ascontiguousarray(image.pixels.transpose(2, 0, 1))
    pos = px > 0
    logp = np.log(np.where(pos, px, 1.0))
    ok = image.mask & pos[0] & pos[1] & pos[2]
    return px, logp, ok


def _pixel_entries(px, logp, ok):
    """(u, v, weight) of every ok pixel in raster order, weighted by its
    brightness ||c||_2."""
    lr, lg, lb = (c[ok] for c in logp)
    r, g, b = (c[ok] for c in px)
    return lg - lr, lg - lb, np.sqrt(r * r + g * g + b * b)


def _gradient_entries(logp, ok):
    """(u, v, weight) of every valid gradient triplet in raster order.

    Per channel the triplet holds |forward diff along x| + |forward diff
    along y| of the log image.  It is valid when the pixel and both forward
    neighbours are ok (so never on the last row or column) and all three
    magnitudes are positive, and it is weighted by its magnitude ||m||_2.
    """
    base = logp[:, :-1, :-1]
    mr, mg, mb = np.abs(logp[:, :-1, 1:] - base) + np.abs(logp[:, 1:, :-1] - base)
    valid = (ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, :-1]
             & (mr > 0) & (mg > 0) & (mb > 0))
    mr, mg, mb = mr[valid], mg[valid], mb[valid]
    lr, lg, lb = np.log(mr), np.log(mg), np.log(mb)
    return lg - lr, lg - lb, np.sqrt(mr * mr + mg * mg + mb * mb)


def _channel(entries, config: HistogramConfig, source: str,
             normalize: bool = True) -> np.ndarray:
    """Bin (u, v, weight) entries onto the (v, u) grid; entries outside the
    half-open domain are dropped.  An empty pixel channel raises
    EmptyHistogramError, an empty gradient channel stays all zero."""
    u, v, w = entries
    n = config.n
    iu = config.bin_index(u)
    iv = config.bin_index(v)
    inside = (iu >= 0) & (iu < n) & (iv >= 0) & (iv < n)
    hist = np.bincount(iv[inside] * n + iu[inside], w[inside],
                       minlength=n * n).reshape(n, n)
    total = hist.sum()
    if total == 0.0:
        if source == "pixels":
            raise EmptyHistogramError("no valid pixels to histogram")
        return hist
    if normalize:
        hist /= total
    return hist


def build_histogram(image: RawImage, config: HistogramConfig = HistogramConfig(),
                    source: str = "pixels", normalize: bool = True) -> np.ndarray:
    """Histogram one chroma channel of an image onto the (v, u) grid.

    source selects "pixels" (brightness-weighted pixel chroma) or
    "gradients" (gradient-magnitude-weighted gradient chroma).  With
    normalize the result sums to 1.  A pixel contributes iff it is masked-in,
    its components are positive, and its (u, v) falls inside the half-open
    domain.

    The image is walked once: its log is taken a single time, only the
    valid entries are binned, and one np.bincount call fills the grid,
    adding each bin's weights in raster order.

    Raises EmptyHistogramError when source == "pixels" and nothing survives;
    an image with no valid gradients (e.g. constant) yields an all-zero
    gradient histogram instead, since flatness is informative there.
    """
    if source not in ("pixels", "gradients"):
        raise ValueError(f"unknown source {source!r}")
    px, logp, ok = _log_image(image)
    entries = (_pixel_entries(px, logp, ok) if source == "pixels"
               else _gradient_entries(logp, ok))
    return _channel(entries, config, source, normalize)


def assemble_feature_stack(image: RawImage,
                           config: HistogramConfig = HistogramConfig()
                           ) -> ChromaHistogram:
    """Full 4-channel network input for one image.  Both histogram channels
    read one log of the image; raises EmptyHistogramError as build_histogram
    does for the pixel channel."""
    px, logp, ok = _log_image(image)
    data = _coordinate_planes(config)
    data[:, :, 0] = _channel(_pixel_entries(px, logp, ok), config, "pixels")
    data[:, :, 1] = _channel(_gradient_entries(logp, ok), config, "gradients")
    return ChromaHistogram(data, config)


def _coordinate_planes(config: HistogramConfig) -> np.ndarray:
    """(n, n, 4) feature stack with both histogram channels zero: the u and
    v coordinate planes alone."""
    n = config.n
    data = np.zeros((n, n, 4), dtype=np.float64)
    c = config.centers()
    data[:, :, 2] = c[None, :]   # u varies along columns
    data[:, :, 3] = c[:, None]   # v varies along rows
    return data


def bilinear_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (H, W) or (H, W, C) data with half-pixel-aligned bilinear
    sampling, edges clamped."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad output size ({out_h}, {out_w})")
    h, w = pixels.shape[:2]

    def axis_weights(size, out_size):
        src = (np.arange(out_size) + 0.5) * size / out_size - 0.5
        i0 = np.clip(np.floor(src).astype(np.int64), 0, size - 1)
        i1 = np.minimum(i0 + 1, size - 1)
        frac = np.clip(src - i0, 0.0, 1.0)
        return i0, i1, frac

    r0, r1, fr = axis_weights(h, out_h)
    c0, c1, fc = axis_weights(w, out_w)
    fr = fr.reshape(-1, 1) if pixels.ndim == 2 else fr.reshape(-1, 1, 1)
    fc = fc.reshape(1, -1) if pixels.ndim == 2 else fc.reshape(1, -1, 1)
    top = pixels[r0][:, c0] * (1 - fc) + pixels[r0][:, c1] * fc
    bot = pixels[r1][:, c0] * (1 - fc) + pixels[r1][:, c1] * fc
    return top * (1 - fr) + bot * fr
