"""The no-grad inference path and the ops' fast paths are exact.

Frozen below are the op definitions that the fast paths replaced: max_pool2
through a reshaped window copy and argmax, leaky_relu through a multiplier
array, instance_norm through np.var, the window view of _patches through
sliding_window_view, and branch_max, take_rows and concat_channels doing
their VJP set-up on every call.  Values and VJPs must match them bit for
bit (signed zeros and NaN payloads included), for inputs that do and do not
need a gradient, on ties, at B=1 and on non-contiguous views.

Frozen too are the backward walk that kept every node's gradient and
closures until it ended, and conv3x3 keeping its padded input for the
weight gradient: a training graph must get the same parameter gradients
from the walk that releases each node as it goes.  That conv3x3, like the
frozen correlation beside it, builds every chunk's patch matrix in a fresh
array, so conv3x3 reusing one buffer per thread must match it bit for bit,
with two threads convolving at once too.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chromacc import autodiff as ad
from chromacc import hypernet as hn
from chromacc import training as tr

# ----- frozen reference ops ---------------------------------------------------


def frozen_max_pool2(x):
    b, c, h, w = x.value.shape
    win = x.value.reshape(b, c, h // 2, 2, w // 2, 2) \
                 .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    value = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        gw = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        return gw.reshape(b, c, h // 2, w // 2, 2, 2) \
                 .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)

    return value, [vjp]


def frozen_branch_max(a, m):
    bm = a.value.shape[0]
    grouped = a.value.reshape(bm // m, m, *a.value.shape[1:])
    value = grouped.max(axis=1)
    idx = grouped.argmax(axis=1)

    def vjp(g):
        out = np.zeros_like(grouped)
        np.put_along_axis(out, idx[:, None], g[:, None], axis=1)
        return out.reshape(a.value.shape)

    return value, [vjp]


def frozen_take_rows(a, idx):
    idx = np.asarray(idx, dtype=np.intp)
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if len(idx) and step > 0 and (np.diff(idx) == step).all():
        value = a.value[idx[0]:idx[-1] + 1:step]
    else:
        value = a.value[idx]
    order = np.argsort(idx, kind="stable")
    ranked = idx[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    rows = ranked[starts]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[rows] = np.add.reduceat(g[order], starts, axis=0)
        return out

    return value, [vjp]


def frozen_leaky_relu(a, slope=0.2):
    pos = a.value > 0
    mult = np.where(pos, 1.0, slope)
    return a.value * mult, [lambda g: g * mult]


def frozen_instance_norm(x, gamma, beta):
    xv = x.value
    axes = (2, 3)
    mu = xv.mean(axis=axes, keepdims=True)
    var = xv.var(axis=axes, keepdims=True)
    sigma = np.sqrt(var + ad.BN_EPS)
    xhat = (xv - mu) / sigma
    gm = gamma.value[None, :, None, None]
    value = gm * xhat + beta.value[None, :, None, None]

    def vjp_x(g):
        dxhat = g * gm
        mean_d = dxhat.mean(axis=axes, keepdims=True)
        mean_dx = (dxhat * xhat).mean(axis=axes, keepdims=True)
        return (dxhat - mean_d - xhat * mean_dx) / sigma

    return value, [vjp_x, lambda g: (g * xhat).sum(axis=(0, 2, 3)),
                   lambda g: g.sum(axis=(0, 2, 3))]


def frozen_concat_channels(nodes):
    widths = [nd.value.shape[1] for nd in nodes]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    value = np.concatenate([nd.value for nd in nodes], axis=1)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[:, lo:hi]

    return value, [make_vjp(i) for i in range(len(nodes))]


def frozen_patches(xp):
    b, cin, h, wd = xp.shape
    step = max(1, ad._COLS_BYTES // (cin * 9 * (h - 2) * (wd - 2) * 8))
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        win = np.lib.stride_tricks.sliding_window_view(
            xp[lo:hi], (3, 3), axis=(2, 3))
        yield lo, hi, win.transpose(1, 4, 5, 0, 2, 3).reshape(cin * 9, -1)


def frozen_leaky_relu_node(a):
    value, (vjp,) = frozen_leaky_relu(a)
    return ad.Node(value, [(a, vjp)])


def frozen_corr(xp, w):
    b, _, h, wd = xp.shape
    cout = w.shape[0]
    wm = w.reshape(cout, -1)
    out = np.empty((b, cout, h - 2, wd - 2))
    for lo, hi, cols in frozen_patches(xp):
        out[lo:hi] = (wm @ cols).reshape(cout, hi - lo, h - 2, wd - 2) \
            .transpose(1, 0, 2, 3)
    return out


def frozen_conv3x3(x, w, pad=1):
    xv, wv = x.value, w.value
    xp = ad._pad(xv, pad)
    cin = xp.shape[1]
    value = frozen_corr(xp, wv)

    def vjp_x(g):
        flipped = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return frozen_corr(ad._pad(g, 2 - pad), flipped)

    def vjp_w(g):
        cout = wv.shape[0]
        gw = np.zeros((cout, cin * 9))
        for lo, hi, cols in frozen_patches(xp):
            gw += g[lo:hi].transpose(1, 0, 2, 3).reshape(cout, -1) @ cols.T
        return gw.reshape(wv.shape)

    return ad.Node(value, [(x, vjp_x), (w, vjp_w)])


def frozen_backward(root):
    topo, state, stack = [], {}, [root]
    while stack:
        node = stack[-1]
        s = state.get(id(node))
        if s is None:
            state[id(node)] = 0
            for parent, _ in node.parents:
                if parent.needs_grad and id(parent) not in state:
                    stack.append(parent)
        elif s == 0:
            state[id(node)] = 1
            topo.append(node)
            stack.pop()
        else:
            stack.pop()
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in node.parents:
            if parent.needs_grad:
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None \
                    else parent.grad + contrib


# ----- helpers ------------------------------------------------------------------

# few distinct values, so windows, branch groups and rows often tie; -0.0
# against +0.0 is the tie np.maximum gets wrong
TIES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0])
FLOATS = st.floats(-4.0, 4.0, allow_nan=False, width=64)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def maybe_strided(data, arr):
    """arr itself, or a non-contiguous view holding the same values."""
    if not data.draw(st.booleans(), label="strided"):
        return arr
    host = np.full(arr.shape[:-1] + (2 * arr.shape[-1],), 7.0)
    host[..., ::2] = arr
    return host[..., ::2]


def draw_array(data, shape, elements):
    arr = data.draw(hnp.arrays(np.float64, shape, elements=elements),
                    label="array")
    return maybe_strided(data, arr)


def check_op(new_op, frozen_op, arrays, data, seed=0):
    """new_op on const and on param leaves against frozen_op on param
    leaves: values, VJPs for one random upstream gradient, and no parents
    on the const path."""
    const = new_op(*[ad.const(a) for a in arrays])
    assert const.parents == ()
    leaves = [ad.param(a) for a in arrays]
    node = new_op(*leaves)
    want, vjps = frozen_op(*leaves)
    assert_bits(const.value, want)
    assert_bits(node.value, want)
    g = np.random.default_rng(seed).normal(size=want.shape)
    g[..., :1] = -0.0
    assert [p for p, _ in node.parents] == leaves
    for (_, vjp), frozen_vjp in zip(node.parents, vjps):
        assert_bits(vjp(g), frozen_vjp(g))


# ----- the ops ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 4),
       w=st.integers(1, 4), nan=st.booleans(), data=st.data())
def test_max_pool2_matches_argmax_path(b, c, h, w, nan, data):
    elements = st.one_of(TIES, FLOATS, st.just(np.nan)) if nan \
        else st.one_of(TIES, FLOATS)
    x = draw_array(data, (b, c, 2 * h, 2 * w), elements)
    check_op(ad.max_pool2, frozen_max_pool2, [x], data)


def test_max_pool2_keeps_the_first_signed_zero():
    x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 1, 2, 2)
    assert np.signbit(ad.max_pool2(ad.const(x)).value).all()


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), m=st.integers(1, 4), c=st.integers(1, 3),
       data=st.data())
def test_branch_max_matches_argmax_path(b, m, c, data):
    x = draw_array(data, (b * m, c, 2, 3), st.one_of(TIES, FLOATS))
    check_op(lambda a: ad.branch_max(a, m),
             lambda a: frozen_branch_max(a, m), [x], data)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 5), data=st.data())
def test_take_rows_matches_reduceat_path(r, data):
    idx = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=8),
                    label="idx")
    x = draw_array(data, (r, 2, 3), FLOATS)
    check_op(lambda a: ad.take_rows(a, idx),
             lambda a: frozen_take_rows(a, idx), [x], data)


@settings(max_examples=60, deadline=None)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
       data=st.data())
def test_leaky_relu_matches_multiplier_path(shape, data):
    elements = st.one_of(TIES, FLOATS, st.just(np.nan), st.just(np.inf),
                         st.just(-np.inf))
    x = draw_array(data, shape, elements)
    check_op(ad.leaky_relu, frozen_leaky_relu, [x], data)


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 5),
       w=st.integers(1, 5), data=st.data())
def test_instance_norm_matches_np_var_path(b, c, h, w, data):
    x = draw_array(data, (b, c, h, w), st.one_of(TIES, FLOATS))
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
    gamma, beta = rng.normal(size=c), rng.normal(size=c)
    check_op(ad.instance_norm, frozen_instance_norm, [x, gamma, beta], data)


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 3), widths=st.lists(st.integers(1, 3), min_size=1,
                                            max_size=3), data=st.data())
def test_concat_channels_matches_offsets_path(b, widths, data):
    xs = [draw_array(data, (b, k, 2, 2), FLOATS) for k in widths]
    check_op(lambda *ns: ad.concat_channels(ns),
             lambda *ns: frozen_concat_channels(ns), xs, data)


def test_mixed_leaves_keep_parents():
    # one parent needing a gradient keeps every (parent, vjp) pair
    a, b = ad.param(np.ones((1, 1, 2, 2))), ad.const(np.zeros((1, 2, 2, 2)))
    node = ad.concat_channels([a, b])
    assert [p for p, _ in node.parents] == [a, b]
    assert node.parents[0][1](np.arange(12.0).reshape(1, 3, 2, 2)).shape \
        == (1, 1, 2, 2)


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 4), cin=st.integers(1, 3), h=st.integers(3, 7),
       w=st.integers(3, 7), chunk=st.sampled_from([None, 1, 2]),
       data=st.data())
def test_patches_match_sliding_window_view(b, cin, h, w, chunk, data):
    xp = draw_array(data, (b, cin, h, w), FLOATS)
    keep = ad._COLS_BYTES
    if chunk is not None:  # force chunks of that many samples
        ad._COLS_BYTES = chunk * cin * 9 * (h - 2) * (w - 2) * 8
    try:
        want = list(frozen_patches(xp))
        got = []
        # a chunk's matrix is valid only until the next one is drawn
        for lo, hi, cols in ad._patches(xp):
            got.append((lo, hi))
            assert len(got) <= len(want)
            assert_bits(cols, want[len(got) - 1][2])
    finally:
        ad._COLS_BYTES = keep
    assert got == [(lo, hi) for lo, hi, _ in want]


def conv_and_grads(conv, x, w, g, pad):
    """conv's value, input gradient and weight gradient for upstream g."""
    out = conv(ad.param(x), ad.param(w), pad)
    (_, vjp_x), (_, vjp_w) = out.parents
    return out.value, vjp_x(g), vjp_w(g)


def conv_case(seed, b, cin, n, pad=1, cout=4):
    """Input, weights and upstream gradient of a (b, cin, n, n) conv."""
    rng = np.random.default_rng(seed)
    out = n + 2 * pad - 2
    return (rng.normal(size=(b, cin, n, n)),
            rng.normal(size=(cout, cin, 3, 3)),
            rng.normal(size=(b, cout, out, out)))


def many_chunks(seed, cin, n, pad=1):
    """A conv whose forward batch spans 2.5 patch-matrix chunks."""
    out = n + 2 * pad - 2
    step = ad._COLS_BYTES // (cin * 9 * out * out * 8)
    case = conv_case(seed, 2 * step + step // 2, cin, n, pad)
    sizes = [hi - lo for lo, hi, _ in frozen_patches(ad._pad(case[0], pad))]
    assert len(sizes) == 3 and sizes[-1] < step
    return case


def one_sample_over_cap(seed, cin, pad):
    """A conv of two samples, each with a matrix over _COLS_BYTES."""
    out = math.isqrt(ad._COLS_BYTES // (cin * 9 * 8)) + 1
    case = conv_case(seed, 2, cin, out + 2 - 2 * pad, pad)
    assert cin * 9 * out * out * 8 > ad._COLS_BYTES
    return case


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("make", [
    lambda pad: many_chunks(1, 3, 24, pad),
    lambda pad: one_sample_over_cap(1, 8, pad),
], ids=["many_chunks", "one_sample_over_cap"])
def test_conv3x3_matches_the_allocating_path(make, pad):
    x, w, g = make(pad)
    for got, want in zip(conv_and_grads(ad.conv3x3, x, w, g, pad),
                         conv_and_grads(frozen_conv3x3, x, w, g, pad)):
        assert_bits(got, want)
    assert ad._cols.buf.nbytes <= ad._COLS_BYTES


def test_two_threads_convolve_at_once_with_serial_bits():
    cases = [many_chunks(2, 3, 24), many_chunks(3, 5, 20)]
    want = [conv_and_grads(ad.conv3x3, *case, 1) for case in cases]

    def rounds(case):
        return [conv_and_grads(ad.conv3x3, *case, 1) for _ in range(20)]

    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(rounds, cases))
    for runs, ref in zip(got, want):
        for run in runs:
            for a, r in zip(run, ref):
                assert_bits(a, r)


def test_valid_conv_of_a_strided_view_matches_a_copy():
    x = np.random.default_rng(4).normal(size=(2, 3, 6, 10))
    w = ad.const(np.random.default_rng(5).normal(size=(2, 3, 3, 3)))
    view = x[:, :, :, ::2]
    got = ad.conv3x3(ad.const(view), w, pad=0).value
    assert_bits(got, ad.conv3x3(ad.const(view.copy()), w, pad=0).value)


# ----- the network on const leaves ----------------------------------------------

@settings(max_examples=12, deadline=None)
@given(b=st.integers(1, 2), m=st.integers(1, 3), gain=st.booleans(),
       training=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_forward_maps_on_const_leaves_matches_param_leaves(
        b, m, gain, training, seed):
    rng = np.random.default_rng(seed)
    arch = hn.ArchitectureConfig(n=16, m=m, depth=2, base_channels=2,
                                 emit_gain=gain)
    weights = hn.init_weights(arch, rng)
    for state in weights.bn.values():
        state.mean = rng.normal(size=state.mean.shape)
        state.var = rng.uniform(0.5, 2.0, size=state.var.shape)
    stacks = rng.random((b, m, 4, 16, 16))
    stacks[:, -1] = stacks[:, 0]  # a repeated branch image
    stacks[0, 0, :2, :3] = -0.0
    on_params, on_consts = weights.copy(), weights.copy()
    want, _ = hn.forward_maps(stacks, on_params, training)
    leaves = {k: ad.const(v) for k, v in weights.params.items()}
    got, _ = hn.forward_maps(stacks, on_consts, training, leaves)
    assert got.keys() == want.keys()
    for name in want:
        assert_bits(got[name].value, want[name].value)
        assert got[name].parents == () and not got[name].needs_grad
    for key, state in on_params.bn.items():  # training's statistics too
        assert_bits(on_consts.bn[key].mean, state.mean)
        assert_bits(on_consts.bn[key].var, state.var)


# ----- the backward walk ----------------------------------------------------------

def interior_nodes(root):
    """Every node upstream of root that has parents, root included."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent, _ in todo.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return [nd for nd in seen.values() if nd.parents]


def test_backward_releases_the_graph_with_the_frozen_gradients(monkeypatch):
    rng = np.random.default_rng(7)
    arch = hn.ArchitectureConfig(n=16, m=3, depth=2, base_channels=2,
                                 emit_gain=True)
    weights = hn.init_weights(arch, rng)
    stacks = rng.random((3, 3, 4, 16, 16))
    stacks[:, 2] = stacks[:, 1]  # a repeated branch image
    targets = rng.uniform(0.2, 1.0, (3, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    cfg = tr.TrainConfig(lambda_f=0.1, lambda_b=0.02, lambda_g=0.02)
    with monkeypatch.context() as mp:
        mp.setattr(ad, "conv3x3", frozen_conv3x3)
        mp.setattr(ad, "leaky_relu", frozen_leaky_relu_node)
        ref, ref_nodes, _ = tr.build_loss(stacks, targets, weights.copy(), cfg)
    frozen_backward(ref)
    loss, pnodes, _ = tr.build_loss(stacks, targets, weights.copy(), cfg)
    assert_bits(loss.value, ref.value)
    interior = interior_nodes(loss)
    ad.backward(loss)
    assert pnodes.keys() == ref_nodes.keys()
    for name, leaf in pnodes.items():
        assert leaf.grad is not None, name
        assert_bits(leaf.grad, ref_nodes[name].grad)
    assert all(nd.grad is None and nd.parents == () for nd in interior)
    kept = {name: leaf.grad.copy() for name, leaf in pnodes.items()}
    ad.backward(loss)  # the graph is spent: a second walk adds nothing
    for name, leaf in pnodes.items():
        assert_bits(leaf.grad, kept[name])
