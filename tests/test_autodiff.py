"""Autodiff engine tests.

Central finite differences (step 1e-4) are the oracle for every op's
backward; forward semantics are pinned by small hand-computed fixtures and
by closed forms and by agreement with the direct-mode convolution in
chromacc.ccc.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromacc import autodiff as ad
from chromacc import ccc


def check(build, leaves, **kw):
    report = ad.grad_check(build, leaves, **kw)
    assert report.ok, f"grad check failed: {report.per_leaf}"
    return report


def check_proj(make_node, leaves, rng, **kw):
    """Grad-check sum(node * fixed random projection): informative and
    deterministic across grad_check's re-executions."""
    w = ad.const(rng.normal(size=make_node().value.shape))
    return check(lambda: ad.sum_all(ad.mul(make_node(), w)), leaves, **kw)


# ----- forward semantics -------------------------------------------------------

def test_conv3x3_hand_fixture():
    # ones image, ones kernel, zero padding: output counts the overlap.
    x = ad.const(np.ones((1, 1, 3, 3)))
    w = ad.const(np.ones((1, 1, 3, 3)))
    out = ad.conv3x3(x, w, pad=1).value[0, 0]
    np.testing.assert_array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])
    valid = ad.conv3x3(ad.const(np.ones((1, 1, 4, 5))), w, pad=0).value
    assert valid.shape == (1, 1, 2, 3)
    np.testing.assert_array_equal(valid[0, 0], 9.0)


def test_conv3x3_multichannel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    out = ad.conv3x3(ad.const(x), ad.const(w), pad=1).value
    assert out.shape == (2, 4, 6, 5)
    # brute-force one output element: batch 1, channel 2, position (2, 3)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.sum(w[2] * xp[1, :, 2:5, 3:6])
    assert out[1, 2, 2, 3] == pytest.approx(want, rel=1e-12)


def _conv_reference(x, w, g, pad):
    """Nested-loop 3x3 cross-correlation and its two VJPs for upstream g."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, _, hp, wp = xp.shape
    cout = w.shape[0]
    out = np.zeros((b, cout, hp - 2, wp - 2))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for n in range(b):
        for o in range(cout):
            for i in range(hp - 2):
                for j in range(wp - 2):
                    patch = xp[n, :, i:i + 3, j:j + 3]
                    out[n, o, i, j] = np.sum(w[o] * patch)
                    gxp[n, :, i:i + 3, j:j + 3] += g[n, o, i, j] * w[o]
                    gw[o] += g[n, o, i, j] * patch
    gx = gxp[:, :, pad:hp - pad, pad:wp - pad]
    return out, gx, gw


def _conv_with_vjps(x, w, g, pad):
    node = ad.conv3x3(ad.param(x), ad.param(w), pad=pad)
    (_, vjp_x), (_, vjp_w) = node.parents
    return node.value, vjp_x(g), vjp_w(g)


def _assert_rel(got, want, rel=1e-12):
    assert got.shape == want.shape
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rel * scale


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 3), cin=st.integers(1, 4), cout=st.integers(1, 3),
       h=st.integers(1, 7), w=st.integers(1, 7), pad=st.sampled_from([0, 1]),
       seed=st.integers(0, 2**31 - 1))
def test_conv3x3_matches_nested_loops(b, cin, cout, h, w, pad, seed):
    assume(h + 2 * pad >= 3 and w + 2 * pad >= 3)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, cin, h, w))
    wt = rng.normal(size=(cout, cin, 3, 3))
    g = rng.normal(size=(b, cout, h + 2 * pad - 2, w + 2 * pad - 2))
    got = _conv_with_vjps(x, wt, g, pad)
    for a, r in zip(got, _conv_reference(x, wt, g, pad)):
        _assert_rel(a, r)
    assert got[0].flags.c_contiguous


@pytest.mark.parametrize("pad", [0, 1])
def test_conv3x3_edge_shapes(pad):
    rng = np.random.default_rng(6)
    cases = [
        (1, 1, 1, 5, 9),   # B = 1, Cin = 1: the smoothness-penalty path
        (2, 3, 2, 7, 4),   # odd, non-square
        (1, 5, 4, 3, 3),   # smallest valid map at pad 0
    ]
    for b, cin, cout, h, w in cases:
        x = rng.normal(size=(b, cin, h, w))
        wt = rng.normal(size=(cout, cin, 3, 3))
        g = rng.normal(size=(b, cout, h + 2 * pad - 2, w + 2 * pad - 2))
        for a, r in zip(_conv_with_vjps(x, wt, g, pad),
                        _conv_reference(x, wt, g, pad)):
            _assert_rel(a, r)
    # non-contiguous input and weights: strided channels, transposed space
    big = rng.normal(size=(2, 6, 5, 7))
    x = big[:, ::2].transpose(0, 1, 3, 2)
    wt = rng.normal(size=(3, 3, 3, 4))[..., :3].transpose(1, 0, 2, 3)
    assert not x.flags.c_contiguous and not wt.flags.c_contiguous
    g = rng.normal(size=(2, 3, 7 + 2 * pad - 2, 5 + 2 * pad - 2))
    got = _conv_with_vjps(x, wt, g, pad)
    for a, r in zip(got, _conv_reference(np.ascontiguousarray(x),
                                         np.ascontiguousarray(wt), g, pad)):
        _assert_rel(a, r)
    assert got[0].flags.c_contiguous


def test_conv3x3_chunked_batch_matches_per_sample():
    # a batch spanning several patch-matrix chunks, ending in a partial one
    rng = np.random.default_rng(7)
    cin, cout, n = 3, 4, 24
    step = ad._COLS_BYTES // (cin * 9 * n * n * 8)  # samples per chunk
    b = 2 * step + 3
    x = rng.normal(size=(b, cin, n, n))
    wt = rng.normal(size=(cout, cin, 3, 3))
    g = rng.normal(size=(b, cout, n, n))
    value, gx, gw = _conv_with_vjps(x, wt, g, 1)
    assert value.flags.c_contiguous
    gw_sum = np.zeros_like(wt)
    for i in range(b):
        v1, gx1, gw1 = _conv_with_vjps(x[i:i + 1], wt, g[i:i + 1], 1)
        _assert_rel(value[i:i + 1], v1)
        _assert_rel(gx[i:i + 1], gx1)
        gw_sum += gw1
    _assert_rel(gw, gw_sum)


def test_max_pool_forward_and_tie_routing():
    x = np.array([[1.0, 1.0, 2.0, 0.0],
                  [1.0, 1.0, 0.0, 2.0],
                  [3.0, 0.0, 5.0, 6.0],
                  [0.0, 4.0, 7.0, 8.0]]).reshape(1, 1, 4, 4)
    node = ad.param(x)
    out = ad.max_pool2(node)
    np.testing.assert_array_equal(out.value[0, 0], [[1.0, 2.0], [4.0, 8.0]])
    ad.backward(ad.sum_all(out))
    g = node.grad[0, 0]
    # the all-ones window ties; gradient goes to its first element (0, 0)
    np.testing.assert_array_equal(
        g, [[1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1]])


def test_upsample_constant_and_shape():
    x = ad.const(np.full((2, 3, 4, 6), 2.5))
    up = ad.upsample2(x).value
    assert up.shape == (2, 3, 8, 12)
    np.testing.assert_allclose(up, 2.5, atol=1e-12)


def test_upsample_linear_ramp_midpoints():
    # interior output samples sit halfway between input samples
    x = ad.const(np.arange(4.0).reshape(1, 1, 1, 4))
    up = ad.upsample2(x).value[0, 0, 0]
    np.testing.assert_allclose(up[1:7], [0.25, 0.75, 1.25, 1.75, 2.25, 2.75])
    assert up[0] == 0.0 and up[7] == 3.0  # clamped edges


def test_branch_ops():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 2, 4, 4))  # B=2, m=3
    node = ad.const(x)
    picked = ad.select_branch(node, m=3, index=0).value
    np.testing.assert_array_equal(picked, x[[0, 3]])
    mx = ad.branch_max(node, m=3).value
    np.testing.assert_array_equal(mx[0], x[0:3].max(axis=0))
    np.testing.assert_array_equal(mx[1], x[3:6].max(axis=0))

    perm = [2, 0, 1]
    xp = x.reshape(2, 3, 2, 4, 4)[:, perm].reshape(6, 2, 4, 4)
    mx2 = ad.branch_max(ad.const(xp), m=3).value
    np.testing.assert_array_equal(mx, mx2)  # bit-identical under permutation


def test_batch_norm_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 6, 6))
    gamma = ad.const(np.ones(4))
    beta = ad.const(np.zeros(4))
    out = ad.batch_norm(ad.const(x), gamma, beta, training=True).value
    assert np.all(np.abs(out.mean(axis=(0, 2, 3))) < 1e-6)
    assert np.all(np.abs(out.var(axis=(0, 2, 3)) - 1.0) < 1e-6)

    state = ad.BatchNormState.fresh(4)
    ad.batch_norm(ad.const(x), gamma, beta, training=True, state=state)
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(state.mean, 0.1 * mu, rtol=1e-7)
    np.testing.assert_allclose(state.var, 0.9 + 0.1 * var, rtol=1e-7)

    # inference uses the running statistics, not batch ones
    y = ad.batch_norm(ad.const(x), gamma, beta, training=False, state=state)
    manual = (x - state.mean[None, :, None, None]) \
        / np.sqrt(state.var + ad.BN_EPS)[None, :, None, None]
    np.testing.assert_allclose(y.value, manual, atol=1e-12)
    with pytest.raises(ValueError):
        ad.batch_norm(ad.const(x), gamma, beta, training=False)


def test_instance_norm_statistics():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=-1.0, scale=3.0, size=(3, 2, 8, 8))
    out = ad.instance_norm(ad.const(x), ad.const(np.ones(2)),
                           ad.const(np.zeros(2))).value
    assert np.all(np.abs(out.mean(axis=(2, 3))) < 1e-6)
    assert np.all(np.abs(out.var(axis=(2, 3)) - 1.0) < 1e-6)


def test_softmax_and_ccc_conv_match_reference():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, 8, 8))
    e = np.exp(logits)
    np.testing.assert_allclose(ad.softmax2d(ad.const(logits)).value,
                               e / e.sum(axis=(1, 2), keepdims=True),
                               atol=1e-14)

    h = rng.normal(size=(3, 2, 8, 8))
    f = rng.normal(size=(3, 2, 8, 8))
    got = ad.ccc_conv(ad.const(h), ad.const(f)).value
    for b in range(3):
        want = (ccc.convolve2d(h[b, 0], f[b, 0], "direct")
                + ccc.convolve2d(h[b, 1], f[b, 1], "direct"))
        np.testing.assert_allclose(got[b], want, atol=1e-10)


def test_uv_to_rgb_matches_reference():
    u = np.array([0.3, -1.2])
    v = np.array([-0.5, 0.8])
    got = ad.uv_to_rgb(ad.const(u), ad.const(v)).value
    rgb = np.stack([np.exp(-u), np.ones(2), np.exp(-v)], axis=-1)
    np.testing.assert_allclose(
        got, rgb / np.linalg.norm(rgb, axis=-1, keepdims=True), atol=1e-14)


def test_arccos_clamps():
    x = ad.param(np.array([1.0, -1.0, 0.5]))
    out = ad.arccos(x)
    np.testing.assert_allclose(
        out.value[:2], [np.arccos(1 - 1e-7), np.arccos(-1 + 1e-7)], rtol=1e-12)
    ad.backward(ad.sum_all(out))
    assert x.grad[0] == 0.0 and x.grad[1] == 0.0  # flat in the clamped zone
    assert x.grad[2] == pytest.approx(-1.0 / np.sqrt(0.75), rel=1e-12)


def test_missing_gradient_error():
    x = ad.param(np.ones(3))
    bad = ad.Node(x.value * 2.0, [(x, None)])
    with pytest.raises(ad.MissingGradientError):
        ad.backward(ad.sum_all(bad))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        ad.backward(ad.param(np.ones(3)))


def test_repeated_tape_is_bit_identical():
    rng = np.random.default_rng(5)
    xv = rng.normal(size=(2, 3, 4, 4))
    wv = rng.normal(size=(2, 3, 3, 3))

    def run():
        x = ad.param(xv.copy())
        w = ad.param(wv.copy())
        out = ad.mean_all(ad.leaky_relu(ad.conv3x3(x, w)))
        ad.backward(out)
        return out.value.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_grad_check_rejects_nondeterministic_build():
    state = {"n": 0.0}

    def build():
        state["n"] += 1.0
        return ad.sum_all(ad.const(np.array([state["n"]])))

    with pytest.raises(RuntimeError):
        ad.grad_check(build, {})


# ----- gradient checks for every op --------------------------------------------

def test_grad_elementwise_ops():
    rng = np.random.default_rng(10)
    a = ad.param(rng.normal(size=(3, 4)))
    b = ad.param(rng.normal(size=(3, 4)))

    check(lambda: ad.sum_all(ad.add(a, b)), {"a": a, "b": b})
    check(lambda: ad.sum_all(ad.sub(a, b)), {"a": a, "b": b})
    check(lambda: ad.sum_all(ad.mul(a, b)), {"a": a, "b": b})
    check(lambda: ad.sum_all(ad.scale(a, -2.5)), {"a": a})
    check(lambda: ad.mean_all(ad.mul(a, a)), {"a": a})  # reused node
    check(lambda: ad.sum_all(ad.leaky_relu(a)), {"a": a})
    check_proj(lambda: ad.reshape(a, (2, 6)), {"a": a}, rng)


def test_grad_concat_select_branchmax():
    rng = np.random.default_rng(11)
    a = ad.param(rng.normal(size=(2, 3, 4, 4)))
    b = ad.param(rng.normal(size=(2, 2, 4, 4)))
    check_proj(lambda: ad.concat_channels([a, b]), {"a": a, "b": b}, rng)

    x = ad.param(rng.normal(size=(6, 2, 3, 3)))
    check_proj(lambda: ad.select_branch(x, m=3), {"x": x}, rng)
    check_proj(lambda: ad.branch_max(x, m=3), {"x": x}, rng)


def test_take_rows_value_and_summed_gradient():
    rng = np.random.default_rng(15)
    x = ad.param(rng.normal(size=(4, 2, 3)))
    idx = [2, 0, 2, 2, 1]  # row 2 thrice, row 3 never
    node = ad.take_rows(x, idx)
    np.testing.assert_array_equal(node.value, x.value[idx])
    g = rng.normal(size=node.value.shape)
    got = node.parents[0][1](g)
    want = np.zeros_like(x.value)
    np.add.at(want, idx, g)
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert not got[3].any()
    assert ad.take_rows(x, []).parents[0][1](np.zeros((0, 2, 3))).shape \
        == (4, 2, 3)
    for even in ([1, 3], [0, 1, 2, 3], [2]):  # strided picks are views
        picked = ad.take_rows(x, even).value
        assert np.shares_memory(picked, x.value)
        np.testing.assert_array_equal(picked, x.value[even])


def test_grad_take_rows():
    rng = np.random.default_rng(16)
    x = ad.param(rng.normal(size=(4, 2, 3, 3)))
    for idx in ([2, 0, 2, 2, 1], [3, 3], [1, 0, 2, 3], [0, 2]):
        check_proj(lambda: ad.take_rows(x, idx), {"x": x}, rng)


def test_batch_norm_counts_match_repeated_rows():
    rng = np.random.default_rng(17)
    x = rng.normal(loc=1.0, size=(3, 2, 4, 4))
    idx = np.array([1, 0, 1, 1, 2, 0])
    gamma = ad.const(rng.uniform(0.5, 1.5, 2))
    beta = ad.const(rng.normal(size=2))
    s_rows, s_counts = ad.BatchNormState.fresh(2), ad.BatchNormState.fresh(2)
    rows = ad.batch_norm(ad.const(x[idx]), gamma, beta, True, s_rows)
    counted = ad.take_rows(ad.batch_norm(ad.const(x), gamma, beta, True,
                                         s_counts, np.bincount(idx)), idx)
    np.testing.assert_allclose(counted.value, rows.value, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(s_counts.mean, s_rows.mean)
    np.testing.assert_array_equal(s_counts.var, s_rows.var)


def test_grad_conv3x3():
    rng = np.random.default_rng(12)
    x = ad.param(rng.normal(size=(2, 2, 5, 4)))
    w = ad.param(rng.normal(size=(3, 2, 3, 3)))
    check_proj(lambda: ad.conv3x3(x, w, pad=1), {"x": x, "w": w}, rng)
    check_proj(lambda: ad.conv3x3(x, w, pad=0), {"x": x, "w": w}, rng)


def test_grad_normalizations():
    rng = np.random.default_rng(13)
    x = ad.param(rng.normal(size=(3, 2, 4, 4)))
    gamma = ad.param(rng.uniform(0.5, 1.5, 2))
    beta = ad.param(rng.normal(size=2))
    leaves = {"x": x, "gamma": gamma, "beta": beta}
    check_proj(lambda: ad.batch_norm(x, gamma, beta, training=True),
               leaves, rng)
    state = ad.BatchNormState(rng.normal(size=2), rng.uniform(0.5, 2.0, 2))
    check_proj(lambda: ad.batch_norm(x, gamma, beta, training=False, state=state),
               leaves, rng)
    check_proj(lambda: ad.instance_norm(x, gamma, beta), leaves, rng)
    for counts in ([1, 3, 2], [4, 1, 1]):
        check_proj(lambda: ad.batch_norm(x, gamma, beta, training=True,
                                         counts=counts), leaves, rng)


def test_grad_resampling():
    rng = np.random.default_rng(14)
    # distinct values so max pooling has no ties near probe points
    x = ad.param(rng.permutation(64).astype(float).reshape(1, 1, 8, 8) * 0.1)
    check_proj(lambda: ad.max_pool2(x), {"x": x}, rng)
    y = ad.param(rng.normal(size=(2, 2, 4, 4)))
    check_proj(lambda: ad.upsample2(y), {"y": y}, rng)


def test_grad_heatmap_ops():
    rng = np.random.default_rng(15)
    logits = ad.param(rng.normal(scale=2.0, size=(2, 6, 6)))
    plane = rng.normal(size=(6, 6))
    check(lambda: ad.sum_all(ad.expectation2d(ad.softmax2d(logits), plane)),
          {"logits": logits})

    h = ad.param(rng.normal(size=(2, 2, 6, 6)))
    f = ad.param(rng.normal(size=(2, 2, 6, 6)))
    check_proj(lambda: ad.ccc_conv(h, f), {"h": h, "f": f}, rng)


def test_grad_illuminant_ops():
    rng = np.random.default_rng(16)
    u = ad.param(rng.uniform(-1.5, 1.5, 3))
    v = ad.param(rng.uniform(-1.5, 1.5, 3))
    check_proj(lambda: ad.uv_to_rgb(u, v), {"u": u, "v": v}, rng)

    a = ad.param(rng.uniform(0.2, 1.0, (3, 3)))
    b = ad.param(rng.uniform(0.2, 1.0, (3, 3)))
    check(lambda: ad.sum_all(ad.dot(a, b)), {"a": a, "b": b})
    check(lambda: ad.sum_all(ad.l2norm(a)), {"a": a})

    c = ad.param(rng.uniform(-0.9, 0.9, 4))
    check(lambda: ad.sum_all(ad.arccos(c)), {"c": c})


def test_grad_reductions():
    rng = np.random.default_rng(17)
    x = ad.param(rng.normal(size=(3, 2, 4)))
    check_proj(lambda: ad.sum_per_sample(x), {"x": x}, rng)
    check(lambda: ad.sum_all(x), {"x": x})
    check(lambda: ad.mean_all(x), {"x": x})


def test_grad_full_pipeline_composition():
    # angular-error-style loss through softmax, expectation, uv mapping
    rng = np.random.default_rng(18)
    cfg_centers = np.linspace(-2.0, 2.0, 8)
    uplane = np.broadcast_to(cfg_centers[None, :], (8, 8)).copy()
    vplane = np.broadcast_to(cfg_centers[:, None], (8, 8)).copy()
    logits = ad.param(rng.normal(scale=1.5, size=(2, 8, 8)))
    target = ccc.uv_to_rgb(np.array([0.5, -0.3]), np.array([0.2, 0.4]))

    def build():
        p = ad.softmax2d(logits)
        u = ad.expectation2d(p, uplane)
        v = ad.expectation2d(p, vplane)
        ell = ad.uv_to_rgb(u, v)
        cosine = ad.dot(ell, ad.const(target))
        return ad.mean_all(ad.arccos(cosine))

    check(build, {"logits": logits})


def test_grad_check_subsampling():
    rng = np.random.default_rng(19)
    x = ad.param(rng.normal(size=(6, 6)))
    report = ad.grad_check(lambda: ad.mean_all(ad.mul(x, x)), {"x": x},
                           rng=rng, max_per_leaf=10)
    assert report.ok
    with pytest.raises(ValueError):
        ad.grad_check(lambda: ad.mean_all(x), {"x": x}, max_per_leaf=3)
    # no probe at all would pass vacuously
    for k in (0, -1):
        with pytest.raises(ValueError, match="max_per_leaf"):
            ad.grad_check(lambda: ad.mean_all(x), {"x": x}, rng=rng,
                          max_per_leaf=k)
