import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacc.autodiff as ad
import chromacc.ccc as ccc
import chromacc.hypernet as hn
import chromacc.plans as plans
from chromacc.floatmap import DataError
from chromacc.histograms import (ChromaHistogram, HistogramConfig, RawImage,
                                 _stack_array, assemble_feature_stack)


def tiny_arch(**kw):
    base = dict(n=16, m=3, depth=2, base_channels=2)
    base.update(kw)
    return hn.ArchitectureConfig(**base)


def tiny_weights(seed=0, **kw):
    return hn.init_weights(tiny_arch(**kw), np.random.default_rng(seed))


def random_stacks(rng, arch, b=1):
    return rng.random((b, arch.m, 4, arch.n, arch.n))


def random_image(rng, h=12, w=15):
    return RawImage(rng.uniform(0.05, 1.0, (h, w, 3)))


# ----- architecture -----

def test_arch_validation():
    with pytest.raises(ValueError):
        hn.ArchitectureConfig(n=20, depth=3)  # 20 not divisible by 8
    with pytest.raises(ValueError):
        hn.ArchitectureConfig(m=0)
    with pytest.raises(ValueError):
        hn.ArchitectureConfig(depth=0)
    assert hn.ArchitectureConfig().channels == (8, 16, 32, 64)


def test_decoder_plan_chains_channels():
    arch = hn.ArchitectureConfig()
    plan = arch.decoder_plan()
    assert [lvl for lvl, _, _ in plan] == [4, 3, 2, 1]
    # top level consumes bottleneck + deepest skip
    assert plan[0][1] == 64 + 64
    prev = arch.channels[-1]
    for lvl, cin, cout in plan:
        assert cin == prev + arch.channels[lvl - 1]
        prev = cout
    assert plan[-1][2] == arch.channels[0]


def test_param_count_default():
    # hand count: encoder convs 288+1152+4608+18432, bn affine 240,
    # per-decoder convs 36864+9216+2304+1152 with norm affine 128,
    # heads 72 (bias) and 144 (filters)
    w = hn.init_weights(hn.ArchitectureConfig(), np.random.default_rng(0))
    assert hn.param_count(w) == 124264
    assert 4 * hn.param_count(w) < 2 * 2 ** 20  # float32 file well under 2 MB


def test_init_deterministic_and_float32_representable():
    w1 = hn.init_weights(tiny_arch(), np.random.default_rng(42))
    w2 = hn.init_weights(tiny_arch(), np.random.default_rng(42))
    assert set(w1.params) == set(w2.params)
    for k in w1.params:
        assert np.array_equal(w1.params[k], w2.params[k])
        v = w1.params[k]
        assert np.array_equal(v, v.astype(np.float32).astype(np.float64))


# ----- forward pass -----

def test_forward_map_shapes():
    arch = tiny_arch(emit_gain=True)
    w = hn.init_weights(arch, np.random.default_rng(1))
    stacks = random_stacks(np.random.default_rng(2), arch, b=2)
    maps, pnodes = hn.forward_maps(stacks, w, training=False)
    assert maps["bias"].value.shape == (2, 1, 16, 16)
    assert maps["filters"].value.shape == (2, 2, 16, 16)
    assert maps["gain"].value.shape == (2, 1, 16, 16)
    assert set(pnodes) == set(w.params)


def test_forward_rejects_wrong_branch_count():
    w = tiny_weights()  # m = 3
    for m in (0, 4):
        with pytest.raises(ValueError, match="expected 1 to 3 branches"):
            hn.forward_maps(np.zeros((1, m, 4, 16, 16)), w, training=False)
    for m in (1, 2):
        maps, _ = hn.forward_maps(np.zeros((1, m, 4, 16, 16)), w,
                                  training=False)
        assert maps["bias"].value.shape == (1, 1, 16, 16)


def test_branch_permutation_bit_invariant():
    rng = np.random.default_rng(3)
    arch = tiny_arch(m=4)
    w = hn.init_weights(arch, rng)
    stacks = random_stacks(rng, arch)
    ref, _ = hn.forward_maps(stacks, w, training=False)
    for _ in range(5):
        perm = np.concatenate([[0], 1 + rng.permutation(arch.m - 1)])
        got, _ = hn.forward_maps(stacks[:, perm], w, training=False)
        for name in ref:
            assert np.array_equal(got[name].value, ref[name].value)


@given(n=st.sampled_from([16, 32]), depth=st.integers(2, 3),
       data=st.data())
@settings(max_examples=12, deadline=None)
def test_infer_ignores_order_and_repeats_of_additional_stacks(n, depth,
                                                             data):
    # evaluation scores a query once per set of additional ids; that rests
    # on this.  At n=32, 4+ additional stacks put level 1's rows into more
    # than one _patches chunk.
    arch = hn.ArchitectureConfig(n=n, m=9, depth=depth, base_channels=2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = hn.init_weights(arch, rng)
    k = data.draw(st.integers(4 if n == 32 else 1, arch.m - 1))
    q, extra = rng.random((4, n, n)), list(rng.random((k, 4, n, n)))

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in
                   [(a[0], b[0]), (a[1].bias, b[1].bias),
                    (a[1].filters, b[1].filters), (a[2], b[2])])

    perm = data.draw(st.permutations(range(k)))
    assert same(hn.infer_from_stacks(q, extra, w),
                hn.infer_from_stacks(q, [extra[i] for i in perm], w))
    # one stack repeated, within m-1 branches
    few = extra[:arch.m - 2]
    dup = data.draw(st.integers(0, len(few) - 1))
    at = data.draw(st.integers(0, len(few)))
    assert same(hn.infer_from_stacks(q, few, w),
                hn.infer_from_stacks(q, few[:at] + [few[dup]] + few[at:], w))


def test_identical_branches_match_single_branch():
    rng = np.random.default_rng(4)
    w = tiny_weights(5)
    q = rng.random((4, 16, 16))
    e1, p1, h1 = hn.infer_from_stacks(q, [], w)
    e3, p3, h3 = hn.infer_from_stacks(q, [q, q], w)
    assert np.array_equal(e1, e3)
    assert np.array_equal(p1.bias, p3.bias)
    assert np.array_equal(p1.filters, p3.filters)
    assert np.array_equal(h1, h3)


def test_cyclic_padding_of_additional():
    rng = np.random.default_rng(6)
    w = tiny_weights(7)
    q = rng.random((4, 16, 16))
    a = rng.random((4, 16, 16))
    full = hn.infer_from_stacks(q, [a, a], w)
    padded = hn.infer_from_stacks(q, [a], w)
    none = hn.infer_from_stacks(q, [], w)
    dup = hn.infer_from_stacks(q, [q, q], w)
    assert np.array_equal(full[0], padded[0])
    assert np.array_equal(none[0], dup[0])


def _frozen_padded_infer(query_stack, additional_stacks, weights, single):
    """infer_from_stacks as it was when a short branch list was padded out
    to m branches (plans.pad) and the head ran through estimate_illuminant;
    single views the weights as a one-branch network, as run_eval's "none"
    policy did."""
    arch = weights.arch
    if single:
        arch = dataclasses.replace(arch, m=1)
        weights = hn.NetworkWeights(arch, weights.params, weights.bn)
    arrs = [_stack_array(s, arch.n) for s in [query_stack, *additional_stacks]]
    batch = np.stack(plans.pad(arrs[0], arrs[1:], arch.m))
    leaves = {k: ad.const(v) for k, v in weights.params.items()}
    maps, _ = hn.forward_maps(batch[None], weights, False, leaves)
    gain = maps["gain"].value[0, 0] if arch.emit_gain else None
    params = ccc.CCCParams(bias=maps["bias"].value[0, 0],
                           filters=maps["filters"].value[0], gain=gain)
    ell, heat = ccc.estimate_illuminant(batch[0], params)
    return ell, params, heat


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([4, 16]), m=st.integers(1, 5),
       emit_gain=st.booleans(), data=st.data())
def test_unpadded_inference_matches_padded_path(n, m, emit_gain, data):
    seed = data.draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    arch = hn.ArchitectureConfig(n=n, m=m, depth=2, base_channels=2,
                                 emit_gain=emit_gain)
    w = mutated_bn(hn.init_weights(arch, rng), seed + 1)
    images = rng.random((m, 4, n, n))
    query = images[0]
    # additional stacks drawn with repeats, the query among the candidates
    picks = data.draw(st.lists(st.integers(0, m - 1), max_size=m - 1))
    extra = [images[i] for i in picks]

    ell, params, heat = hn.infer_from_stacks(query, extra, w)
    refs = [_frozen_padded_infer(query, extra, w, single=False)]
    if not extra:
        refs.append(_frozen_padded_infer(query, extra, w, single=True))
    for want_ell, want_params, want_heat in refs:
        assert np.array_equal(ell, want_ell)
        assert np.array_equal(heat, want_heat)
        # numpy's max keeps the later operand on a +-0 tie, so only the
        # sign of an exact zero may differ: array_equal takes -0.0 == 0.0
        assert np.array_equal(params.bias, want_params.bias)
        assert np.array_equal(params.filters, want_params.filters)
        if emit_gain:
            assert np.array_equal(params.gain, want_params.gain)
        else:
            assert params.gain is None and want_params.gain is None


def test_stack_input_forms_equivalent():
    rng = np.random.default_rng(8)
    w = tiny_weights(9)
    cfg = HistogramConfig(n=16)
    img = random_image(rng)
    hist_obj = assemble_feature_stack(img, cfg)          # ChromaHistogram
    # the object, its stored (4, n, n) array and channel_first() are one
    # stack
    outs = [hn.infer_from_stacks(s, [], w)[0]
            for s in (hist_obj, hist_obj.data, hist_obj.channel_first())]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
    # a channel-last (n, n, 4) array is not a stack
    with pytest.raises(ValueError, match="does not fit"):
        hn.infer_from_stacks(hist_obj.data.transpose(1, 2, 0), [], w)


def test_channel_first_stack_at_n4_is_not_transposed():
    # at n = 4 a (4, n, n) stack is square along all three axes, so only
    # the one layout keeps it from being read transposed, in the network
    # input of a bare-array query and in the head of every query
    rng = np.random.default_rng(14)
    arch = hn.ArchitectureConfig(n=4, m=1, depth=1, base_channels=2)
    w = hn.init_weights(arch, rng)
    hist_obj = assemble_feature_stack(random_image(rng), HistogramConfig(n=4))
    from_hist = hn.infer_from_stacks(hist_obj, [], w)
    from_array = hn.infer_from_stacks(hist_obj.channel_first(), [], w)
    for a, b in zip((from_hist[0], from_hist[1].bias, from_hist[2]),
                    (from_array[0], from_array[1].bias, from_array[2])):
        assert np.array_equal(a, b)
    # the heat map is the head on the query as built, not a transpose of it
    ell, heat = ccc.estimate_illuminant(hist_obj, from_hist[1])
    assert np.array_equal(from_hist[2], heat)
    assert np.array_equal(from_hist[0], ell)


def test_stack_batch_rejects_bad_input():
    w = tiny_weights()
    with pytest.raises(ValueError):
        hn.infer_from_stacks(np.zeros((4, 8, 8)), [], w)  # wrong n
    q = np.zeros((4, 16, 16))
    with pytest.raises(ValueError):
        hn.infer_from_stacks(q, [q] * 3, w)  # 4 branches for m=3


def test_c5_infer_on_images():
    rng = np.random.default_rng(10)
    w = tiny_weights(11)
    query = random_image(rng)
    extra = [random_image(rng) for _ in range(2)]
    ell, params, heat = hn.c5_infer(query, extra, w)
    assert ell.shape == (3,)
    assert np.isclose(np.linalg.norm(ell), 1.0)
    assert np.all(ell > 0)
    assert params.bias.shape == (16, 16)
    assert params.filters.shape == (2, 16, 16)
    assert params.gain is None
    assert np.isclose(heat.sum(), 1.0)
    # heat map is the CCC evaluation of the emitted parameters on the query
    stack = assemble_feature_stack(query, HistogramConfig(n=16))
    assert np.allclose(heat, ccc.estimate_illuminant(stack, params)[1],
                       atol=1e-12)


def test_c5_infer_drops_empty_additional_images():
    # an additional image with no valid pixel is dropped, so the good one is
    # replicated into both free branches exactly as if it came alone
    rng = np.random.default_rng(12)
    w = tiny_weights(13)
    query, good = random_image(rng), random_image(rng)
    empty = RawImage(np.zeros((12, 15, 3)))
    with_empty = hn.c5_infer(query, [good, empty], w)
    alone = hn.c5_infer(query, [good], w)
    for a, b in zip((with_empty[0], with_empty[1].bias, with_empty[2]),
                    (alone[0], alone[1].bias, alone[2])):
        assert np.array_equal(a, b)
    # with every additional image empty, the query stands in for them
    only = hn.c5_infer(query, [empty, empty], w)
    assert np.array_equal(only[0], hn.c5_infer(query, [], w)[0])
    # an empty query has no evidence: the heat map is softmax(B) of the bias
    # map the network makes from a planes-only query and the additional
    # images
    with pytest.warns(UserWarning, match="prior"):
        ell, params, heat = hn.c5_infer(empty, [good], w)
    assert np.array_equal(
        heat, ad.softmax2d(ad.const(params.bias[None])).value[0])
    good_stack = assemble_feature_stack(good, HistogramConfig(n=16))
    planes = good_stack.data.copy()
    planes[:2] = 0.0
    want = hn.infer_from_stacks(ChromaHistogram(planes),
                                [good_stack], w)
    assert np.array_equal(ell, want[0])
    assert np.array_equal(params.bias, want[1].bias)


# ----- level 1 runs once per distinct branch image -----

def _frozen_batch_norm(x, gamma, beta, training, state):
    """ad.batch_norm as it was when level 1 ran on every branch row: plain
    statistics over all rows."""
    xv = x.value
    axes = (0, 2, 3)
    gm = gamma.value[None, :, None, None]
    if training:
        mu = xv.mean(axis=axes)
        var = xv.var(axis=axes)
        state.update(mu, var)
        sigma = np.sqrt(var + ad.BN_EPS)
        xhat = (xv - mu[None, :, None, None]) / sigma[None, :, None, None]

        def vjp_x(g):
            dxhat = g * gm
            mean_d = dxhat.mean(axis=axes)
            mean_dx = (dxhat * xhat).mean(axis=axes)
            return (dxhat - mean_d[None, :, None, None]
                    - xhat * mean_dx[None, :, None, None]) \
                / sigma[None, :, None, None]
    else:
        sigma = np.sqrt(state.var + ad.BN_EPS)
        xhat = (xv - state.mean[None, :, None, None]) \
            / sigma[None, :, None, None]

        def vjp_x(g):
            return g * gm / sigma[None, :, None, None]

    value = gm * xhat + beta.value[None, :, None, None]
    return ad.Node(value, [(x, vjp_x),
                           (gamma, lambda g: (g * xhat).sum(axis=axes)),
                           (beta, lambda g: g.sum(axis=axes))])


def _all_rows_maps(stacks, weights, training, pnodes):
    """The network graph as it was built when level 1 ran on every branch
    row: conv over all B*m rows, then select_branch and branch_max."""
    arch = weights.arch
    b, m = stacks.shape[:2]
    z = ad.const(stacks.reshape(b * m, hn.IN_CHANNELS, arch.n, arch.n))
    skips = []
    for lvl in range(1, arch.depth + 1):
        t = ad.leaky_relu(ad.conv3x3(z, pnodes[f"enc{lvl}.conv.w"]))
        t = _frozen_batch_norm(t, pnodes[f"enc{lvl}.bn.gamma"],
                               pnodes[f"enc{lvl}.bn.beta"], training,
                               weights.bn[f"enc{lvl}"])
        if lvl == 1:
            skips.append(ad.select_branch(t, m, 0))
            z = ad.branch_max(ad.max_pool2(t), m)
        else:
            skips.append(t)
            z = ad.max_pool2(t)
    return {name: hn._decode_nodes(skips, z, pnodes, arch, name)
            for name in arch.decoders}


def _projected_loss(maps, projs):
    out = None
    for name, proj in projs.items():
        term = ad.sum_all(ad.mul(maps[name], ad.const(proj)))
        out = term if out is None else ad.add(out, term)
    return out


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 3), m=st.integers(1, 4), data=st.data())
def test_level1_on_distinct_rows_matches_all_rows_graph(b, m, data):
    rows = b * m
    # which image fills each branch row: all distinct, or drawn with repeats
    pattern = data.draw(st.one_of(
        st.just(list(range(rows))),
        st.lists(st.integers(0, rows - 1), min_size=rows, max_size=rows)))
    seed = data.draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    arch = hn.ArchitectureConfig(n=8, m=m, depth=2, base_channels=2,
                                 emit_gain=True)
    w = hn.init_weights(arch, rng)
    stacks = rng.random((rows, 4, 8, 8))[pattern].reshape(b, m, 4, 8, 8)
    if data.draw(st.booleans()):  # flip one bit of one row's lowest byte
        r = data.draw(st.integers(0, rows - 1))
        stacks.reshape(rows, -1).view(np.uint8)[r, 8 * rng.integers(256)] ^= 1

    flat = stacks.reshape(rows, -1)
    first, inv = hn._distinct_rows(flat.reshape(rows, 4, 8, 8))
    for i in range(rows):
        for j in range(rows):
            assert (inv[i] == inv[j]) == (flat[i].tobytes() == flat[j].tobytes())
    assert [int(np.flatnonzero(inv == s)[0]) for s in range(len(first))] \
        == first.tolist()

    pnodes = {k: ad.param(v) for k, v in w.params.items()}
    got, _ = hn.forward_maps(stacks, w, training=False, param_nodes=pnodes)
    ref = _all_rows_maps(stacks, w, False, pnodes)
    for name in arch.decoders:
        assert np.array_equal(got[name].value, ref[name].value), name

    projs = {name: rng.normal(size=(b, hn.DECODER_OUT[name], 8, 8))
             for name in arch.decoders}
    w_new, w_ref = w.copy(), w.copy()
    new = {k: ad.param(v) for k, v in w.params.items()}
    old = {k: ad.param(v) for k, v in w.params.items()}
    loss_new = _projected_loss(
        hn.forward_maps(stacks, w_new, training=True, param_nodes=new)[0],
        projs)
    loss_ref = _projected_loss(_all_rows_maps(stacks, w_ref, True, old), projs)
    ad.backward(loss_new)
    ad.backward(loss_ref)
    assert abs(loss_new.value - loss_ref.value) \
        <= 1e-12 * abs(loss_ref.value)
    for k in w.params:
        scale = np.abs(old[k].grad).max()
        np.testing.assert_allclose(new[k].grad, old[k].grad, rtol=0,
                                   atol=1e-12 * scale, err_msg=k)
    for k in w.bn:
        assert np.array_equal(w_new.bn[k].mean, w_ref.bn[k].mean), k
        assert np.array_equal(w_new.bn[k].var, w_ref.bn[k].var), k


# ----- serialization -----

def mutated_bn(w, seed):
    rng = np.random.default_rng(seed)
    for s in w.bn.values():
        s.update(rng.normal(size=s.mean.shape), rng.uniform(0.5, 2.0, s.var.shape))
    return w


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    arch = tiny_arch(emit_gain=True)
    w = mutated_bn(hn.init_weights(arch, rng), 14)
    q = rng.random((4, 16, 16))
    extra = [rng.random((4, 16, 16)) for _ in range(2)]
    before = hn.infer_from_stacks(q, extra, w)

    path = tmp_path / "model.ccwf"
    hn.save_weights(w, path)
    w2 = hn.load_weights(path)

    assert w2.arch == arch
    for k in w.params:
        assert np.array_equal(w.params[k], w2.params[k]), k
    for k in w.bn:
        assert np.array_equal(w.bn[k].mean, w2.bn[k].mean)
        assert np.array_equal(w.bn[k].var, w2.bn[k].var)

    after = hn.infer_from_stacks(q, extra, w2)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1].bias, after[1].bias)
    assert np.array_equal(before[1].filters, after[1].filters)
    assert np.array_equal(before[1].gain, after[1].gain)
    assert np.array_equal(before[2], after[2])


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        hn.load_weights(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.ccwf"
    hn.save_weights(tiny_weights(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        hn.load_weights(path)


def test_load_rejects_missing_block(tmp_path):
    path = tmp_path / "model.ccwf"
    w = tiny_weights()
    del w.params["filters.head.w"]
    hn.save_weights(w, path)
    with pytest.raises(ValueError, match="missing"):
        hn.load_weights(path)


def test_load_rejects_damaged_blocks(tmp_path):
    path = tmp_path / "model.ccwf"
    w = tiny_weights()
    w.bn = {}
    hn.save_weights(w, path)
    with pytest.raises(DataError, match="statistics"):
        hn.load_weights(path)

    hn.save_weights(tiny_weights(), path)
    raw = bytearray(path.read_bytes())
    raw[4 + struct.calcsize("<IIIII?3x") + 4] = 7  # first block's kind
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="kind"):
        hn.load_weights(path)


@pytest.mark.parametrize("field, value", [
    # 2**depth of this depth is an int of 2^31 bits
    pytest.param(16, 2 | 1 << 31, id="depth-high-bit"),
    # reference weights of this width would need hundreds of GB
    pytest.param(20, 2 | 1 << 30, id="base-channels-high-bit"),
])
def test_load_rejects_damaged_architecture_cheaply(tmp_path, field, value):
    # found by tests/test_readers_fuzz.py: the loader must reject these
    # from the header and the blocks alone
    path = tmp_path / "model.ccwf"
    hn.save_weights(tiny_weights(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, field, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="architecture|expected"):
        hn.load_weights(path)


def test_load_caps_the_histogram_size(tmp_path):
    # no block's shape depends on n, so a patched n loads unless capped,
    # and inference then asks for an (n, n, 4) stack
    path = tmp_path / "model.ccwf"
    hn.save_weights(tiny_weights(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, hn.MAX_N)
    path.write_bytes(bytes(raw))
    assert hn.load_weights(path).arch.n == hn.MAX_N == 1024
    struct.pack_into("<I", raw, 8, 2 * hn.MAX_N)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="histogram size 2048"):
        hn.load_weights(path)


def test_load_rejects_non_finite_values_and_negative_variance(tmp_path):
    path = tmp_path / "model.ccwf"
    for fault in ("nan", "inf", "negative-variance"):
        w = tiny_weights()
        if fault == "negative-variance":
            w.bn["enc2"].var[1] = -0.5
        else:
            w.params["bias.head.w"][0, 0, 1, 1] = float(fault)
        hn.save_weights(w, path)
        with pytest.raises(DataError, match="non-finite|negative"):
            hn.load_weights(path)


# ----- gradients through the whole network -----

def test_full_network_gradients():
    rng = np.random.default_rng(15)
    arch = hn.ArchitectureConfig(n=8, m=2, depth=2, base_channels=2,
                                 emit_gain=True)
    w = hn.init_weights(arch, rng)
    stacks = random_stacks(rng, arch, b=2)
    pnodes = {k: ad.param(v) for k, v in w.params.items()}
    projs = {name: rng.normal(size=(2, hn.DECODER_OUT[name], 8, 8))
             for name in arch.decoders}

    def build():
        maps, _ = hn.forward_maps(stacks, w, training=True, param_nodes=pnodes)
        terms = [ad.sum_all(ad.mul(maps[name], ad.const(projs[name])))
                 for name in arch.decoders]
        out = terms[0]
        for t in terms[1:]:
            out = ad.add(out, t)
        return out

    report = ad.grad_check(build, pnodes, rng=np.random.default_rng(16),
                           max_per_leaf=3, tol=2e-4)
    assert report.ok, report.per_leaf
