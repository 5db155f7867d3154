"""Log-chroma image features.

An RGB pixel c = (r, g, b) with strictly positive components maps to two
chroma coordinates that discard absolute intensity:

    u = log(g / r),  v = log(g / b)

An image is summarized as an n x n histogram over (u, v).  Channel 0 bins
pixel colors weighted by pixel brightness ||c||_2, channel 1 bins gradient
colors weighted by gradient magnitude, and channels 2-3 are fixed coordinate
planes holding the bin-center u and v values.  Rows index v, columns index u.

The domain is fixed: the square [-bound, bound) along u and v with the
constant bound = 2.85, so the grid is a function of the bin count n alone.
A network's n is in its weight file, and so is its grid.  Bins partition
the domain half-open: bin i covers [lo + i*eps, lo + (i+1)*eps), so every
in-range value lands in exactly one bin and u == +bound falls outside.

A feature stack walks its image once, down its rows in bands of
BAND_PIXELS pixels (whole rows, at least one per band).  The log of each
band is taken once, with one more row that the gradient's y-difference
reads, and both histogram channels read it: the pixel channel as
log g - log r and log g - log b, the gradient channel through forward
differences of the same log.  Each band's valid entries are added to two
running flat grids with np.add.at, one weight at a time in raster order,
so every bin receives the whole image's weights in the same order and from
the same zero as one pass over the image would add them: the histograms do
not depend on where the bands are cut.  Where every entry of a band is
valid, as in an image whose pixels are all positive and masked-in, the
band is read in place instead of having its entries selected.

The band size is a fixed constant, not an option.  It bounds the walk's
temporaries whatever the image size (a band's planes are 96 KB, its
three-channel arrays 288 KB, about 2 MB in all), so one band's heap memory
serves the next band and the next image.  Whole-image temporaries would
instead be handed back to the system after each image and faulted in
again for the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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

# pixels per row band of the walk: 96 KB per float64 plane of a band
BAND_PIXELS = 12288


class EmptyHistogramError(ValueError):
    """No valid pixel survived masking/positivity checks."""


@dataclass(frozen=True)
class HistogramConfig:
    """Geometry of the log-chroma histogram.

    n is the number of bins per axis; the class constant bound is the
    half-width of the square domain [-bound, bound) along both u and v.
    """

    n: int = 64
    bound: ClassVar[float] = 2.85

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

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
    """Feature stack over the (u, v) grid, shape (4, n, n) channel-first;
    its shape fixes the grid.

    Channels: 0 pixel histogram, 1 gradient histogram, 2 u-coordinate plane
    (constant along rows), 3 v-coordinate plane (constant along columns).
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        shape = self.data.shape
        if len(shape) != 3 or shape != (4, shape[1], shape[1]):
            raise ValueError(f"expected (4, n, n), got {shape}")

    def channel_first(self) -> np.ndarray:
        """The stored (4, n, n) stack itself, not a copy."""
        return self.data


def _stack_array(stack, n: int) -> np.ndarray:
    """(4, n, n) float64 array of a feature stack given as a ChromaHistogram
    or as its (4, n, n) array."""
    arr = stack.data if isinstance(stack, ChromaHistogram) \
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


def _add(hist, logs, vals, config: HistogramConfig):
    """Bin (k, 3) entries into the flat (v, u) grid hist: (u, v) =
    (log g - log r, log g - log b) from their logs, weight ||vals||_2.
    np.add.at adds the weights one at a time in entry order; entries outside
    the half-open domain are dropped."""
    n = config.n
    iu = config.bin_index(logs[:, 1] - logs[:, 0])
    iv = config.bin_index(logs[:, 1] - logs[:, 2])
    r, g, b = vals[:, 0], vals[:, 1], vals[:, 2]
    w = np.sqrt(r * r + g * g + b * b)
    # a negative index reads as a huge unsigned one, so one test per axis
    inside = (iu.view(np.uint64) < n) & (iv.view(np.uint64) < n)
    np.add.at(hist, (iv * n + iu)[inside], w[inside])


def _walk(image: RawImage, config: HistogramConfig) -> np.ndarray:
    """Unnormalized pixel and gradient sums of an image, (2, n*n) over the
    flat (v, u) grid, from one walk down its rows in bands.

    A pixel counts when it is masked-in and its three components are
    positive (ok).  A gradient triplet holds, per channel, |forward diff
    along x| + |forward diff along y| of the log image; it counts when the
    pixel and both forward neighbours are ok (so never on the last row or
    column) and all three magnitudes are positive.  A zero component's log
    is -inf, and no counted entry reads it.
    """
    sums = np.zeros((2, config.n * config.n))
    h, w = image.mask.shape
    rows = max(1, BAND_PIXELS // max(w, 1))
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        band = image.pixels[r0:r1 + 1]   # one more row for the y-difference
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.log(band)
        ok = image.mask[r0:r1 + 1]
        pos = band > 0
        if not pos.all():
            ok = ok & pos[..., 0] & pos[..., 1] & pos[..., 2]

        k = r1 - r0
        _add(sums[0], _select(logp[:k], ok[:k]), _select(band[:k], ok[:k]),
             config)

        k = len(band) - 1                # rows with a row below them
        base = logp[:k, :-1]
        with np.errstate(invalid="ignore"):
            mag = np.abs(logp[:k, 1:] - base) + np.abs(logp[1:, :-1] - base)
        valid = (ok[:k, :-1] & ok[:k, 1:] & ok[1:, :-1]
                 & (mag[..., 0] > 0) & (mag[..., 1] > 0) & (mag[..., 2] > 0))
        mag = _select(mag, valid)
        _add(sums[1], np.log(mag), mag, config)
    return sums


def _select(a, keep) -> np.ndarray:
    """The (k, 3) rows of an (h, w, 3) array where keep holds, in raster
    order.  Where keep holds everywhere this is a reshape, a view of a
    contiguous array, instead of the copy a selection makes."""
    return a.reshape(-1, 3) if keep.all() else a[keep]


def _finish(hist, config: HistogramConfig, pixels: bool,
            normalize: bool = True) -> np.ndarray:
    """The (n, n) channel of a flat sum: an empty pixel channel raises
    EmptyHistogramError, an empty gradient channel stays all zero."""
    hist = hist.reshape(config.n, config.n)
    total = hist.sum()
    if total == 0.0:
        if pixels:
            raise EmptyHistogramError("no valid pixels to histogram")
        return hist
    if normalize:
        hist /= total
    return hist


def build_histogram(image: RawImage, config: HistogramConfig = HistogramConfig(),
                    *, normalize: bool = True) -> np.ndarray:
    """Brightness-weighted pixel chroma histogram of an image on the (v, u)
    grid, channel 0 of its feature stack.

    With normalize the result sums to 1.  A pixel contributes iff it is
    masked-in, its components are positive, and its (u, v) falls inside
    the half-open domain.  Raises EmptyHistogramError when nothing
    survives.
    """
    return _finish(_walk(image, config)[0], config, True, normalize)


def assemble_feature_stack(image: RawImage,
                           config: HistogramConfig = HistogramConfig()
                           ) -> ChromaHistogram:
    """Full 4-channel network input for one image, from one walk of it;
    raises EmptyHistogramError as build_histogram does.  An image with no
    valid gradient (e.g. constant) has an all-zero gradient channel, since
    flatness is informative there."""
    sums = _walk(image, config)
    data = _coordinate_planes(config)
    data[0] = _finish(sums[0], config, True)
    data[1] = _finish(sums[1], config, False)
    return ChromaHistogram(data)


def _coordinate_planes(config: HistogramConfig) -> np.ndarray:
    """(4, n, n) feature stack with both histogram channels zero: the u and
    v coordinate planes alone."""
    n = config.n
    data = np.zeros((4, n, n), dtype=np.float64)
    c = config.centers()
    data[2] = c[None, :]   # u varies along columns
    data[3] = c[:, None]   # v varies along rows
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
