"""Log-chroma feature tests.

Frozen expected values are hand-computed from the u = log(g/r),
v = log(g/b) definitions and the half-open binning rule, independently of
the implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromacc import histograms
from chromacc.histograms import (
    ChromaHistogram,
    EmptyHistogramError,
    HistogramConfig,
    RawImage,
    assemble_feature_stack,
    build_histogram,
    pixel_uv,
)
from chromacc.datasets import WORKING_RES
from chromacc.synthbench import capture, render_scene

CFG = HistogramConfig()  # n=64


def test_config_defaults():
    assert CFG.n == 64
    assert CFG.bound == 2.85
    assert CFG.bin_width == pytest.approx(0.0890625, abs=0.0)


def test_domain_is_a_constant():
    # every grid spans the same [-2.85, 2.85) domain; only n is set
    assert HistogramConfig.bound == 2.85
    assert HistogramConfig(n=16).bound == 2.85
    with pytest.raises(TypeError):
        HistogramConfig(n=16, bound=1.5)


def _uv(pixel):
    """pixel_uv of one pixel: (u, v, valid)."""
    u, v, valid = pixel_uv(np.array([pixel], dtype=np.float64))
    return u[0], v[0], bool(valid[0])


# the four compute_uv tests keep their names but check pixel_uv, the one
# definition of pixel log-chroma
def test_compute_uv_known_pixel():
    # r=0.5, g=1, b=0.25: u = log(1/0.5) = log 2, v = log(1/0.25) = log 4
    u, v, valid = _uv((0.5, 1.0, 0.25))
    assert valid
    assert u == pytest.approx(math.log(2.0), rel=1e-15)
    assert v == pytest.approx(math.log(4.0), rel=1e-15)


def test_compute_uv_gray_is_origin():
    u, v, valid = _uv((0.3, 0.3, 0.3))
    assert valid and u == 0.0 and v == 0.0


@pytest.mark.parametrize("pixel", [(0, 1, 1), (1, -0.1, 1), (1, 1, 0)])
def test_compute_uv_rejects_nonpositive(pixel):
    u, v, valid = _uv(pixel)
    assert not valid
    assert math.isnan(u) or math.isnan(v)


@given(
    rgb=st.tuples(*[st.floats(1e-3, 1e3) for _ in range(3)]),
    scale=st.floats(1e-3, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_compute_uv_intensity_invariant(rgb, scale):
    u0, v0, _ = _uv(rgb)
    u1, v1, _ = _uv(tuple(scale * c for c in rgb))
    assert u1 == pytest.approx(u0, abs=1e-9)
    assert v1 == pytest.approx(v0, abs=1e-9)


def test_bin_index_edges():
    # half-open partition: lo lands in bin 0, +bound falls off the top,
    # u == 0 sits exactly on the edge between bins 31/32 and goes up.
    assert CFG.bin_index(-2.85) == 0
    assert CFG.bin_index(2.85) == 64
    assert CFG.bin_index(0.0) == 32
    assert CFG.bin_index(-1e-12) == 31


def test_two_pixel_fixture():
    # pixel A: (0.5, 1, 0.25) -> (u, v) = (log 2, log 4), w = sqrt(1.3125)
    # pixel B: gray (0.2, 0.2, 0.2) -> (0, 0) bin (32, 32), w = 0.2*sqrt(3)
    img = RawImage(np.array([[[0.5, 1.0, 0.25], [0.2, 0.2, 0.2]]]))
    hist = build_histogram(img, CFG)
    iu = CFG.bin_index(math.log(2.0))
    iv = CFG.bin_index(math.log(4.0))
    wa = math.sqrt(0.5**2 + 1.0**2 + 0.25**2)
    wb = 0.2 * math.sqrt(3.0)
    assert hist[iv, iu] == pytest.approx(wa / (wa + wb), rel=1e-14)
    assert hist[32, 32] == pytest.approx(wb / (wa + wb), rel=1e-14)
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(hist) == 2


def test_uniform_gray_image():
    img = RawImage(np.full((8, 6, 3), 0.5))
    stack = assemble_feature_stack(img, CFG)
    pix = stack.data[0]
    assert pix[32, 32] == 1.0
    assert np.count_nonzero(pix) == 1
    assert np.all(stack.data[1] == 0.0)  # no gradients anywhere


def test_masked_pixels_excluded():
    rng = np.random.default_rng(7)
    px = rng.uniform(0.05, 1.0, (10, 10, 3))
    mask = np.zeros((10, 10), dtype=bool)
    mask[:5] = True
    masked = build_histogram(RawImage(px, mask), CFG)
    top_only = build_histogram(RawImage(px[:5].copy()), CFG)
    np.testing.assert_array_equal(masked, top_only)


def test_all_masked_raises():
    img = RawImage(np.ones((4, 4, 3)), np.zeros((4, 4), dtype=bool))
    with pytest.raises(EmptyHistogramError):
        build_histogram(img, CFG)


def test_zero_pixels_raise():
    img = RawImage(np.zeros((4, 4, 3)))
    with pytest.raises(EmptyHistogramError):
        build_histogram(img, CFG)


def test_constant_image_gradient_histogram_all_zero():
    img = RawImage(np.full((6, 6, 3), 0.25))
    grad = assemble_feature_stack(img, CFG).data[1]
    assert grad.shape == (64, 64)
    assert np.all(grad == 0.0)


def test_gradient_histogram_two_region_fixture():
    # Two flat halves: only the column straddling the seam has gradients.
    # Left (0.2, 0.4, 0.2), right (0.4, 0.4, 0.8): per-channel |dlog| at the
    # seam is (log 2, 0, log 4) -- zero g-gradient, so every pixel drops and
    # the gradient histogram must be all-zero, not an error.
    px = np.empty((4, 6, 3))
    px[:, :3] = (0.2, 0.4, 0.2)
    px[:, 3:] = (0.4, 0.4, 0.8)
    grad = assemble_feature_stack(RawImage(px), CFG).data[1]
    assert np.all(grad == 0.0)

    # Make g vary too: now seam pixels have strictly positive triplets.
    px[:, 3:] = (0.4, 0.8, 0.8)
    grad = assemble_feature_stack(RawImage(px), CFG).data[1]
    mr, mg, mb = math.log(2.0), math.log(2.0), math.log(4.0)
    iu = CFG.bin_index(math.log(mg / mr))
    iv = CFG.bin_index(math.log(mg / mb))
    assert grad[iv, iu] == pytest.approx(1.0)
    assert np.count_nonzero(grad) == 1


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partition_property(seed):
    # Unnormalized mass equals the summed weights of valid in-range pixels:
    # each pixel lands in exactly one bin.
    rng = np.random.default_rng(seed)
    px = rng.uniform(0.0, 1.0, (9, 7, 3))  # zeros possible -> some dropped
    img = RawImage(px)
    raw = build_histogram(img, CFG, normalize=False)
    flat = px.reshape(-1, 3)
    expected = 0.0
    for p in flat:
        if np.all(p > 0):
            u = math.log(p[1] / p[0])
            v = math.log(p[1] / p[2])
            iu = math.floor((u + 2.85) / CFG.bin_width)
            iv = math.floor((v + 2.85) / CFG.bin_width)
            if 0 <= iu < 64 and 0 <= iv < 64:
                expected += math.sqrt(float(p @ p))
    assert raw.sum() == pytest.approx(expected, rel=1e-12)


def test_histogram_channels_normalized():
    rng = np.random.default_rng(3)
    img = RawImage(rng.uniform(0.02, 1.0, (16, 12, 3)))
    stack = assemble_feature_stack(img, CFG).data
    for ch in (0, 1):
        assert np.all(stack[ch] >= 0.0)
        assert stack[ch].sum() == pytest.approx(1.0, abs=1e-12)


def test_coordinate_planes():
    img = RawImage(np.full((4, 4, 3), 0.5))
    stack = assemble_feature_stack(img, CFG).data
    eps = CFG.bin_width
    for i in range(64):
        want = -2.85 + (i + 0.5) * eps
        np.testing.assert_allclose(stack[2, :, i], want, rtol=0, atol=0)
        np.testing.assert_allclose(stack[3, i, :], want, rtol=0, atol=0)
    # channel 2 constant along v (rows), channel 3 constant along u (cols)
    assert np.all(stack[2] == stack[2, 0:1, :])
    assert np.all(stack[3] == stack[3, :, 0:1])


def test_translation_of_bin_assignments():
    # Per-channel gains whose log-chroma shift is a whole number of bins
    # move every pixel's bin by exactly that offset.  The scaled histogram
    # must equal the original assignments shifted, with each pixel carrying
    # its rescaled brightness.
    rng = np.random.default_rng(11)
    eps = CFG.bin_width
    px = np.exp(rng.uniform(-0.9, 0.9, (12, 9, 3)))  # uv within +-1.8
    du, dv = 3, -2
    gains = np.array([math.exp(-du * eps), 1.0, math.exp(-dv * eps)])
    scaled = px * gains

    got = build_histogram(RawImage(scaled), CFG, normalize=False)

    expected = np.zeros((64, 64))
    for p, q in zip(px.reshape(-1, 3), scaled.reshape(-1, 3)):
        u = math.log(p[1] / p[0])
        v = math.log(p[1] / p[2])
        iu = math.floor((u + 2.85) / eps) + du
        iv = math.floor((v + 2.85) / eps) + dv
        assert 0 <= iu < 64 and 0 <= iv < 64, "fixture must stay in bounds"
        expected[iv, iu] += math.sqrt(float(q @ q))
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)


def test_feature_stack_shape_and_wrapper():
    img = RawImage(np.full((5, 5, 3), 0.3))
    stack = assemble_feature_stack(img, HistogramConfig(n=32))
    assert stack.data.shape == (4, 32, 32)
    assert stack.channel_first() is stack.data
    # the grid is the stack's shape: four channels first, then a square
    for shape in ((4, 16, 32), (3, 16, 16), (16, 16), (32, 32, 4)):
        with pytest.raises(ValueError):
            ChromaHistogram(np.zeros(shape))


def test_raw_image_validation():
    with pytest.raises(ValueError):
        RawImage(np.ones((4, 4)))  # not 3-channel
    with pytest.raises(ValueError):
        RawImage(-np.ones((4, 4, 3)))
    with pytest.raises(ValueError):
        RawImage(np.full((4, 4, 3), np.nan))
    with pytest.raises(ValueError):
        RawImage(np.ones((4, 4, 3)), np.ones((2, 2), dtype=bool))
    # finite but past float32's maximum: the brightness weight would
    # overflow into a NaN stack and a NaN estimate
    with pytest.raises(ValueError, match="at most"):
        RawImage(np.full((8, 8, 3), 1e200) * [1, 2, 3])
    top = float(np.finfo(np.float32).max)
    assert np.isfinite(assemble_feature_stack(
        RawImage(np.full((8, 8, 3), top) * [0.25, 0.5, 1.0])).data).all()


# ----- bit-identity against the reference implementation -----
#
# The two functions below are the three-pass implementation that the
# single-pass one replaced, frozen here as the oracle: the log of the image
# taken per channel, length-3 reductions with np.all and np.linalg.norm, and
# a np.add.at scatter into the grid.  The single-pass stack must reproduce
# it bit for bit, including which images raise EmptyHistogramError.

def _reference_histogram(image, config, source="pixels", normalize=True):
    def uv(pixels):
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(pixels > 0,
                            np.log(np.where(pixels > 0, pixels, 1.0)), np.nan)
        return (logp[..., 1] - logp[..., 0], logp[..., 1] - logp[..., 2],
                np.all(pixels > 0, axis=-1))

    if source == "pixels":
        vals = image.pixels.reshape(-1, 3)
        u, v, pos = uv(vals)
        valid = image.mask.reshape(-1) & pos
    else:
        px = image.pixels
        ok = image.mask[..., None] & (px > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(ok, np.log(np.where(ok, px, 1.0)), np.nan)
        h, w, _ = px.shape
        dx = np.full_like(logp, np.nan)
        dy = np.full_like(logp, np.nan)
        dx[:, : w - 1, :] = np.abs(logp[:, 1:, :] - logp[:, : w - 1, :])
        dy[: h - 1, :, :] = np.abs(logp[1:, :, :] - logp[: h - 1, :, :])
        m = dx + dy
        valid2d = np.all(np.isfinite(m), axis=-1) & np.all(m > 0, axis=-1)
        valid = valid2d.reshape(-1)
        vals = np.where(valid2d[..., None], m, 1.0).reshape(-1, 3)
        u, v, _ = uv(vals)
    weights = np.linalg.norm(vals, axis=-1)

    iu = np.zeros(len(vals), dtype=np.int64)
    iv = np.zeros(len(vals), dtype=np.int64)
    iu[valid] = config.bin_index(u[valid])
    iv[valid] = config.bin_index(v[valid])
    n = config.n
    inside = valid & (iu >= 0) & (iu < n) & (iv >= 0) & (iv < n)
    hist = np.zeros((n, n), dtype=np.float64)
    np.add.at(hist, (iv[inside], iu[inside]), weights[inside])
    total = hist.sum()
    if total == 0.0:
        if source == "pixels":
            raise EmptyHistogramError("no valid pixels to histogram")
        return hist
    if normalize:
        hist /= total
    return hist


def _reference_stack(image, config):
    n = config.n
    data = np.zeros((4, n, n), dtype=np.float64)
    data[0] = _reference_histogram(image, config, "pixels")
    data[1] = _reference_histogram(image, config, "gradients")
    c = config.centers()
    data[2] = c[None, :]
    data[3] = c[:, None]
    return data


def _assert_matches_reference(img, cfg):
    # the gradient channel's unnormalized sum, which a stack whose pixel
    # channel is empty never reaches, is read off the walk
    assert np.array_equal(
        histograms._walk(img, cfg)[1].reshape(cfg.n, cfg.n),
        _reference_histogram(img, cfg, "gradients", normalize=False))
    try:
        want = _reference_stack(img, cfg)
    except EmptyHistogramError:
        with pytest.raises(EmptyHistogramError):
            assemble_feature_stack(img, cfg)
        with pytest.raises(EmptyHistogramError):
            build_histogram(img, cfg)
        return
    assert np.array_equal(assemble_feature_stack(img, cfg).data, want)
    for normalize in (True, False):
        assert np.array_equal(
            build_histogram(img, cfg, normalize=normalize),
            _reference_histogram(img, cfg, "pixels", normalize))


@given(h=st.integers(1, 12), w=st.integers(1, 12), n=st.sampled_from([2, 32, 64]),
       spread=st.floats(0.0, 5.0), zero_frac=st.sampled_from([0.0, 0.05, 0.5]),
       masked_frac=st.sampled_from([0.0, 0.3, 1.0]), constant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
@example(h=1, w=1, n=64, spread=0.5, zero_frac=0.0, masked_frac=0.0,
         constant=False, seed=0)
@example(h=1, w=9, n=32, spread=1.0, zero_frac=0.0, masked_frac=0.0,
         constant=False, seed=1)
@example(h=9, w=1, n=2, spread=1.0, zero_frac=0.0, masked_frac=0.0,
         constant=False, seed=2)
@example(h=6, w=7, n=64, spread=1.0, zero_frac=0.0, masked_frac=0.0,
         constant=True, seed=3)
@example(h=8, w=8, n=64, spread=5.0, zero_frac=0.05, masked_frac=0.3,
         constant=False, seed=4)
def test_feature_stack_matches_reference(h, w, n, spread, zero_frac,
                                         masked_frac, constant, seed):
    # spread sets the log-range of the components, so large values push
    # pixels and gradients out of the domain; zero components, masks and
    # flat images knock out pixels and every gradient next to them
    rng = np.random.default_rng(seed)
    shape = (1, 1, 3) if constant else (h, w, 3)
    px = np.broadcast_to(np.exp(rng.uniform(-spread, spread, shape)),
                         (h, w, 3)).copy()
    px[rng.random((h, w, 3)) < zero_frac] = 0.0
    mask = rng.random((h, w)) >= masked_frac
    _assert_matches_reference(RawImage(px, mask), HistogramConfig(n=n))


def test_rendered_capture_matches_reference():
    rng = np.random.default_rng(21)
    img = capture(render_scene(rng, WORKING_RES), (0.3, 0.6, 0.45))
    img.mask[100:140, 200:260] = False
    _assert_matches_reference(img, CFG)


# ----- band seams -----
#
# The walk goes down the image in bands of histograms.BAND_PIXELS pixels
# (whole rows, at least one).  Images drawn above fit in one band, so here
# the band is shrunk until an image spans many, and a hole (a zero
# component or a masked pixel) can sit on a band's last row, where the
# gradient's y-difference reads the next band's first row.

@given(h=st.integers(1, 16), w=st.integers(1, 12),
       band=st.integers(1, 64), n=st.sampled_from([2, 16, 64]),
       spread=st.floats(0.0, 5.0), zero_frac=st.sampled_from([0.0, 0.1]),
       masked_frac=st.sampled_from([0.0, 0.2]),
       hole=st.sampled_from([None, "zero", "masked"]),
       hole_row=st.integers(0, 15), hole_col=st.integers(0, 11),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
# a zero green component on the last row of the first 2-row band
@example(h=10, w=3, band=6, n=64, spread=0.5, zero_frac=0.0, masked_frac=0.0,
         hole="zero", hole_row=1, hole_col=1, seed=5)
# a masked pixel on the last row of the second 3-row band
@example(h=11, w=4, band=12, n=16, spread=0.5, zero_frac=0.0,
         masked_frac=0.0, hole="masked", hole_row=5, hole_col=2, seed=6)
# one-row bands: the band is narrower than a row
@example(h=9, w=7, band=3, n=64, spread=1.0, zero_frac=0.1, masked_frac=0.2,
         hole=None, hole_row=0, hole_col=0, seed=7)
# a 1-pixel-wide image: no gradients, bands of 5 rows
@example(h=16, w=1, band=5, n=16, spread=1.0, zero_frac=0.1, masked_frac=0.0,
         hole=None, hole_row=0, hole_col=0, seed=8)
def test_banded_walk_matches_reference(h, w, band, n, spread, zero_frac,
                                       masked_frac, hole, hole_row, hole_col,
                                       seed):
    rng = np.random.default_rng(seed)
    px = np.exp(rng.uniform(-spread, spread, (h, w, 3)))
    px[rng.random((h, w, 3)) < zero_frac] = 0.0
    mask = rng.random((h, w)) >= masked_frac
    at = (hole_row % h, hole_col % w)
    if hole == "zero":
        px[at + (1,)] = 0.0
    elif hole == "masked":
        mask[at] = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(histograms, "BAND_PIXELS", band)
        _assert_matches_reference(RawImage(px, mask), HistogramConfig(n=n))


def test_feature_stack_memory_stays_flat():
    # the walk's temporaries are a band's worth, whatever the image size;
    # one copy of a whole 512x768 image in float64 alone is 9.4 MB
    rng = np.random.default_rng(0)
    img = RawImage(rng.uniform(0.01, 1.0, (512, 768, 3)))
    tracemalloc.start()
    try:
        assemble_feature_stack(img, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (0, 0, 3)])
def test_image_without_pixels(shape):
    img = RawImage(np.ones(shape))
    with pytest.raises(EmptyHistogramError):
        assemble_feature_stack(img, CFG)
    assert np.array_equal(histograms._walk(img, CFG)[1].reshape(64, 64),
                          np.zeros((64, 64)))
    # normalize is keyword-only: a positional "gradients" is no longer read
    # as a channel name or as a normalize flag
    with pytest.raises(TypeError):
        build_histogram(img, CFG, "gradients")
