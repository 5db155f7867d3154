"""CCC evaluator tests.

The direct convolution mode is the reference; frozen expectations below are
hand-derived from out[i,j] = sum x[i+c-p, j+c-q] k[p,q] with c = n//2.
A frozen copy of the plain-numpy evaluator that preceded the tape-built
head pins the head's values bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacc.hypernet as hn
from chromacc.ccc import (
    CCCParams,
    convolve2d,
    estimate_illuminant,
    soft_argmax,
    uv_to_rgb,
)
from chromacc.histograms import ChromaHistogram, HistogramConfig, pixel_uv


def closed_form_softmax(logits):
    e = np.exp(logits)
    return e / e.sum(axis=(-2, -1), keepdims=True)


def test_center_delta_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 8))
    k = np.zeros((8, 8))
    k[4, 4] = 1.0  # anchor (n//2, n//2)
    np.testing.assert_allclose(convolve2d(x, k, "direct"), x, atol=0)
    np.testing.assert_allclose(convolve2d(x, k, "fft"), x, atol=1e-12)


def test_offset_delta_shifts():
    # kernel delta at (c, c+1): out[i, j] = x[i, j-1], zero fill at j=0
    x = np.arange(16.0).reshape(4, 4)
    k = np.zeros((4, 4))
    k[2, 3] = 1.0
    out = convolve2d(x, k, "direct")
    expected = np.zeros_like(x)
    expected[:, 1:] = x[:, :-1]
    np.testing.assert_array_equal(out, expected)


def test_hand_computed_3x3_like_fixture():
    # n=4, c=2.  x has a single 1 at (1, 1); kernel k arbitrary.
    # out[i, j] = k[i + 1, j + 1] wherever that index exists.
    x = np.zeros((4, 4))
    x[1, 1] = 1.0
    k = np.arange(16.0).reshape(4, 4)
    out = convolve2d(x, k, "direct")
    expected = np.zeros((4, 4))
    expected[:3, :3] = k[1:, 1:]
    np.testing.assert_array_equal(out, expected)


def test_fft_matches_direct_random():
    rng = np.random.default_rng(42)
    for n in (4, 8, 16, 32):
        x = rng.normal(size=(n, n))
        k = rng.normal(size=(n, n))
        a = convolve2d(x, k, "fft")
        b = convolve2d(x, k, "direct")
        assert np.max(np.abs(a - b)) < 1e-10


def test_convolution_linearity():
    rng = np.random.default_rng(1)
    x, y, k = rng.normal(size=(3, 16, 16))
    lhs = convolve2d(2.5 * x - 1.5 * y, k, "fft")
    rhs = 2.5 * convolve2d(x, k, "fft") - 1.5 * convolve2d(y, k, "fft")
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_convolve2d_rejects_mismatched():
    with pytest.raises(ValueError):
        convolve2d(np.zeros((4, 4)), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        convolve2d(np.zeros((4, 6)), np.zeros((4, 6)))


def test_softmax_properties():
    # with zero filters the heat map is the softmax of the bias alone
    rng = np.random.default_rng(2)
    logits = rng.normal(scale=5.0, size=(16, 16))
    stack = rng.uniform(size=(4, 16, 16))
    filters = np.zeros((2, 16, 16))
    p = estimate_illuminant(stack, CCCParams(logits, filters))[1]
    assert np.all(p > 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(p, closed_form_softmax(logits), atol=1e-15)
    # shift invariance, and no overflow where exp(logits) alone would
    q = estimate_illuminant(stack, CCCParams(logits + 1234.5, filters))[1]
    np.testing.assert_allclose(p, q, atol=1e-12)


def test_soft_argmax_uniform_and_onehot():
    cfg = HistogramConfig(n=16)
    p = np.full((16, 16), 1.0 / 256.0)
    u, v = soft_argmax(p, cfg)
    assert abs(u) < 1e-12 and abs(v) < 1e-12

    onehot = np.zeros((16, 16))
    onehot[3, 11] = 1.0  # row -> v bin, column -> u bin
    u, v = soft_argmax(onehot, cfg)
    c = cfg.centers()
    assert u == pytest.approx(c[11], abs=0)
    assert v == pytest.approx(c[3], abs=0)


def test_uv_to_rgb_frozen():
    # u = ln 2, v = 0: (e^-u, 1, e^-v) = (0.5, 1, 1), norm 1.5
    ell = uv_to_rgb(math.log(2.0), 0.0)
    np.testing.assert_allclose(ell, [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0],
                               rtol=1e-15)
    # and a v-shift: u = 0, v = ln 4 -> (1, 1, 0.25), norm sqrt(2.0625)
    ell = uv_to_rgb(0.0, math.log(4.0))
    np.testing.assert_allclose(
        ell, np.array([1.0, 1.0, 0.25]) / math.sqrt(2.0625), rtol=1e-15)


def test_uv_rgb_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u0, v0 = rng.uniform(-2.85, 2.85, 2)
        ell = uv_to_rgb(u0, v0)
        assert np.linalg.norm(ell) == pytest.approx(1.0, abs=1e-14)
        (u1,), (v1,), _ = pixel_uv(ell[None])
        assert abs(u1 - u0) < 1e-12 and abs(v1 - v0) < 1e-12


def test_matched_filter_localizes_shift():
    # The sliding-window premise, at the level where it is literally true:
    # correlate a translated copy against the flipped template and the
    # response peaks at a position displaced by exactly the translation.
    rng = np.random.default_rng(4)
    n, c = 32, 16
    for _ in range(10):
        a, b = rng.integers(8, 24, size=2)
        template = np.zeros((n, n))
        template[a, b] = 1.0
        dv, du = rng.integers(-5, 6, size=2)
        shifted = np.zeros((n, n))
        shifted[a + dv, b + du] = 1.0
        matched = template[::-1, ::-1]
        for mode in ("fft", "direct"):
            out = convolve2d(shifted, matched, mode)
            peak = np.unravel_index(np.argmax(out), out.shape)
            assert peak == (c - 1 + dv, c - 1 + du)


def test_matched_filter_localizes_patch():
    # Same premise with a dense random template: the autocorrelation peak
    # sits at zero lag, so the conv response peaks at the shift offset.
    rng = np.random.default_rng(5)
    n, c = 32, 16
    template = np.zeros((n, n))
    template[12:18, 10:16] = rng.uniform(0.5, 1.0, (6, 6))
    dv, du = 4, -3
    shifted = np.roll(template, (dv, du), axis=(0, 1))
    out = convolve2d(shifted, template[::-1, ::-1], "fft")
    peak = np.unravel_index(np.argmax(out), out.shape)
    assert peak == (c - 1 + dv, c - 1 + du)


def _stack_with_hist(h0, cfg):
    n = cfg.n
    data = np.zeros((4, n, n))
    data[0] = h0
    cc = cfg.centers()
    data[2] = cc[None, :]
    data[3] = cc[:, None]
    return ChromaHistogram(data)


def test_evaluate_ccc_zero_params_uniform():
    cfg = HistogramConfig(n=16)
    h = np.zeros((16, 16))
    h[5, 7] = 1.0
    stack = _stack_with_hist(h, cfg)
    params = CCCParams(np.zeros((16, 16)), np.zeros((2, 16, 16)))
    p = estimate_illuminant(stack, params)[1]
    np.testing.assert_allclose(p, 1.0 / 256.0, atol=1e-15)
    assert np.all(p >= 0) and p.sum() == pytest.approx(1.0, abs=1e-12)


def test_evaluate_ccc_gain_and_modes():
    cfg = HistogramConfig(n=16)
    rng = np.random.default_rng(6)
    h = rng.uniform(size=(16, 16))
    h /= h.sum()
    stack = _stack_with_hist(h, cfg)
    params = CCCParams(
        bias=rng.normal(size=(16, 16)),
        filters=rng.normal(size=(2, 16, 16)),
        gain=rng.uniform(0.5, 1.5, size=(16, 16)),
    )
    # manual: logits = bias + gain * (conv(h, F0) + conv(0, F1))
    resp = convolve2d(h, params.filters[0], "direct")
    manual = closed_form_softmax(params.bias + params.gain * resp)
    np.testing.assert_allclose(estimate_illuminant(stack, params)[1], manual,
                               atol=1e-10)


def test_estimate_illuminant_peaked_bias():
    cfg = HistogramConfig(n=32)
    h = np.zeros((32, 32))
    h[0, 0] = 1.0
    stack = _stack_with_hist(h, cfg)
    bias = np.zeros((32, 32))
    iv, iu = 9, 21
    bias[iv, iu] = 60.0  # softmax saturates at this bin
    params = CCCParams(bias, np.zeros((2, 32, 32)))
    ell, p = estimate_illuminant(stack, params)
    c = cfg.centers()
    expected = uv_to_rgb(c[iu], c[iv])
    np.testing.assert_allclose(ell, expected, atol=1e-9)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(ell) == pytest.approx(1.0, abs=1e-12)


def test_estimate_illuminant_defaults_to_the_parameters_grid():
    # n = 16: (u, v) is read on the parameters' 16-bin grid, not the
    # 64-bin default
    cfg = HistogramConfig(n=16)
    h = np.zeros((16, 16))
    h[3, 5] = 1.0
    stack = _stack_with_hist(h, cfg)
    rng = np.random.default_rng(3)
    params = CCCParams(rng.normal(size=(16, 16)),
                       rng.normal(size=(2, 16, 16)))
    ell, p = estimate_illuminant(stack, params)
    np.testing.assert_allclose(ell, uv_to_rgb(*soft_argmax(p, cfg)),
                               rtol=1e-14)


def test_ccc_params_validation():
    with pytest.raises(ValueError):
        CCCParams(np.zeros((4, 5)), np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        CCCParams(np.zeros((4, 4)), np.zeros((3, 4, 4)))
    with pytest.raises(ValueError):
        CCCParams(np.zeros((4, 4)), np.zeros((2, 4, 4)), np.zeros((5, 5)))


# ----- the value path that preceded the tape-built head, frozen -----

def _frozen_conv_fft(x, k):
    n = x.shape[-1]
    c = n // 2
    s = 2 * n
    fx = np.fft.rfft2(x, s=(s, s))
    fk = np.fft.rfft2(k, s=(s, s))
    full = np.fft.irfft2(fx * fk, s=(s, s))
    return full[..., c:c + n, c:c + n]


def _frozen_softmax2d(logits):
    z = logits - logits.max(axis=(-2, -1), keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=(-2, -1), keepdims=True)


def _frozen_estimate_illuminant(stack, params, config):
    """The heat map (fft mode) + soft_argmax + uv_to_rgb as they were
    before the head moved onto the tape; stack is (4, n, n)."""
    resp = _frozen_conv_fft(stack[0], params.filters[0])
    resp += _frozen_conv_fft(stack[1], params.filters[1])
    if params.gain is not None:
        resp *= params.gain
    p = _frozen_softmax2d(params.bias + resp)
    c = config.centers()
    u = float((p * c[None, :]).sum())
    v = float((p * c[:, None]).sum())
    a = np.exp(-np.asarray(u))
    b = np.exp(-np.asarray(v))
    z = np.sqrt(a * a + b * b + 1.0)
    return np.stack([a / z, np.ones_like(z) / z, b / z], axis=-1), p


def _random_case(seed, n, with_gain, scale):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(size=(4, n, n))
    stack[:2] /= stack[:2].sum(axis=(1, 2), keepdims=True)
    gain = rng.uniform(0.5, 1.5, (n, n)) if with_gain else None
    params = CCCParams(bias=rng.normal(scale=scale, size=(n, n)),
                       filters=rng.normal(scale=scale * n, size=(2, n, n)),
                       gain=gain)
    return stack, params


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 32, 64]),
       with_gain=st.booleans(), scale=st.sampled_from([0.1, 1.0, 10.0]),
       layout=st.sampled_from(["array", "histogram"]))
def test_head_matches_frozen_value_path_bit_for_bit(seed, n, with_gain, scale,
                                                    layout):
    stack, params = _random_case(seed, n, with_gain, scale)
    cfg = HistogramConfig(n=n)
    want_ell, want_p = _frozen_estimate_illuminant(stack, params, cfg)
    given_stack = stack if layout == "array" else ChromaHistogram(stack)
    ell, p = estimate_illuminant(given_stack, params)
    assert np.array_equal(p, want_p)
    assert np.array_equal(ell, want_ell)
    u, v = soft_argmax(want_p, cfg)
    c = cfg.centers()
    assert u == float((want_p * c[None, :]).sum())
    assert v == float((want_p * c[:, None]).sum())


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 32, 64]),
       emit_gain=st.booleans())
def test_infer_from_stacks_matches_frozen_value_path(seed, n, emit_gain):
    rng = np.random.default_rng(seed)
    arch = hn.ArchitectureConfig(n=n, m=2, depth=2, base_channels=2,
                                 emit_gain=emit_gain)
    weights = hn.init_weights(arch, rng)
    query, extra = rng.uniform(size=(2, 4, n, n))
    ell, params, heat = hn.infer_from_stacks(query, [extra], weights)
    want_ell, want_p = _frozen_estimate_illuminant(query, params,
                                                   HistogramConfig(n=n))
    assert (params.gain is not None) == emit_gain
    assert np.array_equal(heat, want_p)
    assert np.array_equal(ell, want_ell)
