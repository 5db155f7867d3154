import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chromacc.autodiff as ad
import chromacc.evaluation as evaluation
import chromacc.hypernet as hn
import chromacc.plans as plans
import chromacc.training as tr
from chromacc.datasets import DataError


def tiny_arch(**kw):
    base = dict(n=8, m=2, depth=2, base_channels=2)
    base.update(kw)
    return hn.ArchitectureConfig(**base)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_samples(rng, n=8, cameras=("camA", "camB"), per_camera=6):
    out = []
    for cam in cameras:
        for _ in range(per_camera):
            stack = rng.random((4, n, n))
            ell = unit(rng.uniform(0.2, 1.0, 3))
            out.append(tr.TrainingSample(stack, ell, cam))
    return out


# ----- angular error -----

def test_angular_error_basics():
    a = unit([0.3, 0.9, 0.5])
    assert tr.angular_error(a, a) == 0.0
    assert np.isclose(tr.angular_error([1, 0, 0], [0, 1, 0]), 90.0)
    b = unit([0.8, 0.2, 0.4])
    assert np.isclose(tr.angular_error(a, 2 * b), tr.angular_error(a, b))
    assert np.isclose(tr.angular_error(a, b), tr.angular_error(b, a))
    with pytest.raises(ValueError):
        tr.angular_error(a, [0, 0, 0])


# ----- smoothness penalty -----

def brute_sobel_energy(plane):
    n0, n1 = plane.shape
    total = 0.0
    for kern in (tr.SOBEL_U, tr.SOBEL_V):
        for i in range(n0 - 2):
            for j in range(n1 - 2):
                r = sum(plane[i + p, j + q] * kern[p, q]
                        for p in range(3) for q in range(3))
                total += r * r
    return total


def test_smoothness_zero_for_constant_maps():
    # zero up to the rounding of the conv's GEMM sums (~1e-29 here)
    maps = np.full((2, 3, 8, 8), 3.7)
    penalty = tr._smoothness_nodes(ad.const(maps), 0.15).value
    np.testing.assert_allclose(penalty, 0.0, atol=1e-24)


def test_smoothness_zero_lambdas():
    rng = np.random.default_rng(0)
    maps = rng.normal(size=(2, 3, 8, 8))
    assert (tr._smoothness_nodes(ad.const(maps), 0.0).value == 0.0).all()


def test_smoothness_ramp_closed_form():
    # u-ramp B[i, j] = j: horizontal Sobel responds 8 at every interior
    # position, vertical responds 0, so E(B) = 64 (n-2)^2
    n = 16
    ramp = np.tile(np.arange(n, dtype=np.float64), (n, 1))
    lam_b = 0.02
    expected = lam_b * 64.0 * (n - 2) ** 2
    got = tr._smoothness_nodes(ad.const(ramp[None, None]), lam_b).value
    assert np.isclose(got[0], expected)
    assert np.isclose(brute_sobel_energy(ramp), 64.0 * (n - 2) ** 2)


def test_smoothness_matches_brute_force_and_counts_gain():
    # the loss minus the angle is the weighted Sobel energy of every
    # emitted map, the gain included
    arch, w, stacks, targets, _ = loss_fixture(1, emit_gain=True)
    cfg = tr.TrainConfig(lambda_f=0.15, lambda_b=0.02, lambda_g=0.07)
    loss, _, angles = tr.build_loss(stacks, targets, w, cfg, training=False)
    maps, _ = hn.forward_maps(stacks, w, training=False)
    expected = np.mean([
        0.02 * brute_sobel_energy(maps["bias"].value[b, 0])
        + 0.15 * (brute_sobel_energy(maps["filters"].value[b, 0])
                  + brute_sobel_energy(maps["filters"].value[b, 1]))
        + 0.07 * brute_sobel_energy(maps["gain"].value[b, 0])
        for b in range(len(stacks))])
    got = loss.value - angles.value.mean()
    assert np.isclose(got, expected, rtol=1e-9)
    assert got > 0.0


def test_smoothness_node_route_matches_value_route():
    rng = np.random.default_rng(2)
    maps = rng.normal(size=(3, 2, 12, 12))
    node = tr._smoothness_nodes(ad.const(maps), 0.15)
    expected = [0.15 * (brute_sobel_energy(maps[b, 0])
                        + brute_sobel_energy(maps[b, 1])) for b in range(3)]
    assert np.allclose(node.value, expected)


# ----- schedules -----

def test_lr_cosine_anchors():
    assert tr.lr_at(0, 100, 5e-4) == 5e-4
    assert np.isclose(tr.lr_at(100, 100, 5e-4), 0.0, atol=1e-19)
    assert np.isclose(tr.lr_at(50, 100, 5e-4), 2.5e-4)
    with pytest.raises(ValueError):
        tr.lr_at(101, 100, 5e-4)


def test_batch_size_phases():
    cfg = tr.TrainConfig(epochs=60)
    sizes = [tr.batch_size_at(e, cfg) for e in range(1, 61)]
    assert sizes[:20] == [16] * 20
    assert sizes[20:40] == [32] * 20
    assert sizes[40:] == [64] * 20
    cfg5 = tr.TrainConfig(epochs=5)
    assert [tr.batch_size_at(e, cfg5) for e in range(1, 6)] == \
        [16, 16, 32, 32, 64]


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(lambda_f=-0.1)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_sizes=(32, 16))
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        tr.TrainConfig(val_fraction=1.0)
    # a step of lr <= 0 (or NaN) does not descend
    for lr in (0.0, -0.01, float("nan")):
        with pytest.raises(ValueError, match="lr must be > 0"):
            tr.TrainConfig(lr=lr)


# ----- optimizer -----

def opt_fixture(seed=3):
    rng = np.random.default_rng(seed)
    w = hn.init_weights(tiny_arch(), rng)
    grads = {k: rng.normal(size=v.shape) for k, v in w.params.items()}
    return w, grads


def test_adam_zero_grad_no_decay_is_identity():
    w, _ = opt_fixture()
    before = {k: v.copy() for k, v in w.params.items()}
    state = tr.AdamState.fresh(w.params)
    zeros = {k: np.zeros_like(v) for k, v in w.params.items()}
    tr.adam_step(w, zeros, state, 1e-3, tr.TrainConfig(weight_decay=0.0))
    for k in before:
        assert np.array_equal(w.params[k], before[k])


def test_adam_first_step_closed_form():
    w, grads = opt_fixture()
    before = {k: v.copy() for k, v in w.params.items()}
    cfg = tr.TrainConfig(weight_decay=0.0)
    state = tr.AdamState.fresh(w.params)
    tr.adam_step(w, grads, state, cfg.lr, cfg)
    for k, g in grads.items():
        expected = before[k] - cfg.lr * g / (np.abs(g) + tr.ADAM_EPS)
        assert np.allclose(w.params[k], expected, rtol=1e-5, atol=1e-10), k


def test_adam_pure_decay():
    w, _ = opt_fixture()
    before = {k: v.copy() for k, v in w.params.items()}
    cfg = tr.TrainConfig(weight_decay=0.01)
    state = tr.AdamState.fresh(w.params)
    tr.adam_step(w, {k: np.zeros_like(v) for k, v in w.params.items()},
                 state, 0.1, cfg)
    for k in before:
        expected = before[k] * (1.0 - 0.1 * 0.01)
        assert np.allclose(w.params[k], expected, rtol=1e-6), k


def test_adam_rejects_nonfinite_grads():
    w, grads = opt_fixture()
    grads[next(iter(grads))] = np.full_like(grads[next(iter(grads))], np.nan)
    with pytest.raises(tr.NumericalError):
        tr.adam_step(w, grads, tr.AdamState.fresh(w.params), 1e-3,
                     tr.TrainConfig())


def test_adam_keeps_weights_float32_representable():
    w, grads = opt_fixture()
    tr.adam_step(w, grads, tr.AdamState.fresh(w.params), 1e-3,
                 tr.TrainConfig())
    for v in w.params.values():
        assert np.array_equal(v, v.astype(np.float32).astype(np.float64))


# ----- batch sampling -----

def test_sample_batch_same_camera_without_replacement():
    rng = np.random.default_rng(4)
    samples = make_samples(rng, per_camera=6)
    batch = tr.sample_batch(samples, range(len(samples)), m=4,
                            rng=np.random.default_rng(5))
    for q, extra in batch:
        assert len(extra) == 3
        assert q not in extra
        assert len(set(extra)) == 3
        assert all(samples[i].camera == samples[q].camera for i in extra)


def test_sample_batch_lonely_camera_replicates_query():
    rng = np.random.default_rng(6)
    samples = [tr.TrainingSample(rng.random((4, 8, 8)), [1, 1, 1], "solo")]
    [(q, extra)] = tr.sample_batch(samples, [0], m=3,
                                   rng=np.random.default_rng(7))
    assert (q, extra) == (0, [])
    assert plans.pad(q, extra, 3) == [0, 0, 0]


def test_sample_batch_small_camera_cycles_others():
    rng = np.random.default_rng(8)
    samples = [tr.TrainingSample(rng.random((4, 8, 8)), [1, 1, 1], "c")
               for _ in range(2)]
    [(q, extra)] = tr.sample_batch(samples, [0], m=5,
                                   rng=np.random.default_rng(9))
    assert (q, extra) == (0, [1])
    assert plans.pad(q, extra, 5) == [0, 1, 1, 1, 1]


def test_epoch_covers_every_query_once_and_is_seeded():
    rng = np.random.default_rng(10)
    samples = make_samples(rng, per_camera=5)
    cfg = tr.TrainConfig(epochs=3, batch_sizes=(4, 4, 4))

    def collect(seed):
        r = np.random.default_rng(seed)
        return [list(b) for b in tr.iter_epoch(samples, 1, cfg, 3, r)]

    run1, run2 = collect(11), collect(11)
    assert run1 == run2
    queries = sorted(q for batch in run1 for q, _ in batch)
    assert queries == list(range(len(samples)))
    assert [len(b) for b in run1] == [4, 4, 2]
    with pytest.raises(ValueError):
        next(tr.iter_epoch([], 1, cfg, 3, np.random.default_rng(0)))


# ----- loss -----

def loss_fixture(seed, b=2, emit_gain=True, lam=(0.15, 0.02, 0.02)):
    rng = np.random.default_rng(seed)
    arch = tiny_arch(emit_gain=emit_gain)
    w = hn.init_weights(arch, rng)
    stacks = rng.random((b, arch.m, 4, arch.n, arch.n))
    targets = np.stack([unit(rng.uniform(0.2, 1.0, 3)) for _ in range(b)])
    cfg = tr.TrainConfig(lambda_f=lam[0], lambda_b=lam[1], lambda_g=lam[2])
    return arch, w, stacks, targets, cfg


def value_route_loss(stacks, target, w, cfg):
    """Per-sample loss recomputed from single-image inference and the
    brute-force Sobel energy of its parameters."""
    ell, params, _ = hn.infer_from_stacks(stacks[0], list(stacks[1:]), w)
    ang = np.radians(tr.angular_error(ell, target))
    penalty = cfg.lambda_b * brute_sobel_energy(params.bias) + cfg.lambda_f \
        * sum(brute_sobel_energy(f) for f in params.filters)
    if params.gain is not None:
        penalty += cfg.lambda_g * brute_sobel_energy(params.gain)
    return ang + penalty


def test_loss_matches_value_route_per_sample():
    arch, w, stacks, targets, cfg = loss_fixture(12)
    loss, _, angles = tr.build_loss(stacks, targets, w, cfg, training=False)
    expected = np.mean([value_route_loss(stacks[i], targets[i], w, cfg)
                        for i in range(2)])
    assert np.isclose(loss.value, expected, rtol=1e-9)
    assert angles.value.shape == (2,)


def test_loss_batch_mean_of_singletons():
    arch, w, stacks, targets, cfg = loss_fixture(13)
    whole, _, _ = tr.build_loss(stacks, targets, w, cfg, training=False)
    singles = [tr.build_loss(stacks[i:i + 1], targets[i:i + 1], w, cfg,
                             training=False)[0].value for i in range(2)]
    assert np.isclose(whole.value, np.mean(singles), rtol=1e-12)


def test_loss_zero_lambdas_is_pure_angle():
    arch, w, stacks, targets, _ = loss_fixture(14)
    cfg = tr.TrainConfig(lambda_f=0.0, lambda_b=0.0, lambda_g=0.0)
    loss, _, angles = tr.build_loss(stacks, targets, w, cfg, training=False)
    assert np.isclose(loss.value, angles.value.mean(), rtol=1e-12)


def test_loss_gradients_pass_finite_differences():
    arch, w, stacks, targets, cfg = loss_fixture(15)
    pnodes = {k: ad.param(v) for k, v in w.params.items()}

    def build():
        loss, _, _ = tr.build_loss(stacks, targets, w, cfg, training=True,
                                   param_nodes=pnodes)
        return loss

    report = ad.grad_check(build, pnodes, rng=np.random.default_rng(16),
                           max_per_leaf=3, tol=2e-4)
    assert report.ok, report.per_leaf


def test_single_sample_step_decreases_loss():
    arch, w, stacks, targets, _ = loss_fixture(17, b=1, emit_gain=False,
                                               lam=(0.0, 0.0, 0.0))
    cfg = tr.TrainConfig(lambda_f=0.0, lambda_b=0.0, lambda_g=0.0,
                         weight_decay=0.0, lr=1e-5)
    loss, pnodes, _ = tr.build_loss(stacks, targets, w, cfg, training=True)
    before = float(loss.value)
    ad.backward(loss)
    tr.adam_step(w, {k: p.grad for k, p in pnodes.items()},
                 tr.AdamState.fresh(w.params), cfg.lr, cfg)
    after, _, _ = tr.build_loss(stacks, targets, w, cfg, training=True)
    assert float(after.value) < before


def traced_step_peak(b):
    """tracemalloc's peak over one build_loss + backward step of the
    benchmark's network at batch size b."""
    rng = np.random.default_rng(19)
    arch = hn.ArchitectureConfig(n=32, m=9, depth=3, base_channels=8)
    w = hn.init_weights(arch, rng)
    # about a third of a batch's branch rows are distinct images, as in
    # the training benchmark's batches
    pool = rng.random((3 * b, 4, 32, 32))
    stacks = pool[rng.integers(0, len(pool), (b, arch.m))]
    targets = rng.uniform(0.2, 1.0, (b, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    cfg = tr.TrainConfig(lambda_f=1.5e-4, lambda_b=2e-5, lambda_g=2e-5)
    tracemalloc.start()
    try:
        loss, _, _ = tr.build_loss(stacks, targets, w, cfg)
        ad.backward(loss)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_memory_stays_bounded():
    # at B=16: backward frees each node's gradient and closures once its
    # VJPs have run, where keeping them all to the end of the walk peaked
    # at 119 MB against 67 MB
    peak = traced_step_peak(16)
    assert peak < 90e6, f"traced peak {peak / 1e6:.1f} MB"


def test_training_step_frees_activations_no_vjp_reads():
    # at B=64 the peak falls at the end of the forward pass: a child that
    # held its parent Node, value and all, kept every activation alive
    # (211 MB); pointing to the parent's tape entry keeps only the arrays
    # a VJP captured (105 MB)
    peak = traced_step_peak(64)
    assert peak < 120e6, f"traced peak {peak / 1e6:.1f} MB"

# ----- validation split and full runs -----

def test_validation_split_stratified():
    rng = np.random.default_rng(18)
    samples = make_samples(rng, per_camera=10)
    train_ids, val_ids = tr.validation_split(samples, 0.1,
                                             np.random.default_rng(19))
    assert sorted(train_ids + val_ids) == list(range(len(samples)))
    for cam in ("camA", "camB"):
        held = [i for i in val_ids if samples[i].camera == cam]
        kept = [i for i in train_ids if samples[i].camera == cam]
        assert len(held) == 1  # 10% of 10
        assert len(kept) == 9
    assert tr.validation_split(samples, 0.0, np.random.default_rng(20))[1] == []


def train_fixture(seed=21, epochs=3):
    rng = np.random.default_rng(seed)
    samples = make_samples(rng, per_camera=6)
    arch = tiny_arch(m=3)
    cfg = tr.TrainConfig(epochs=epochs, batch_sizes=(4, 6, 6), seed=seed,
                         val_fraction=0.2)
    return samples, arch, cfg


def test_zero_epochs_returns_initial_weights():
    samples, arch, _ = train_fixture()
    cfg = tr.TrainConfig(epochs=0, seed=33)
    result = tr.train(samples, arch, cfg)
    ref = hn.init_weights(arch, np.random.default_rng(33))
    for k in ref.params:
        assert np.array_equal(result.best_weights.params[k], ref.params[k])
    assert result.metrics == []
    assert not result.diverged


def test_train_smoke_and_metrics():
    samples, arch, cfg = train_fixture()
    result = tr.train(samples, arch, cfg)
    assert not result.diverged
    assert len(result.metrics) == cfg.epochs
    vals = [m.val_err_deg for m in result.metrics]
    assert np.all(np.isfinite(vals))
    best_so_far = np.minimum.accumulate(vals)
    assert np.all(np.diff(best_so_far) <= 0)
    for v in result.best_weights.params.values():
        assert np.all(np.isfinite(v))
    # best snapshot reproduces the lowest recorded validation error
    assert min(vals) <= vals[0]


def test_train_bit_reproducible():
    samples, arch, cfg = train_fixture()
    r1 = tr.train(samples, arch, cfg)
    r2 = tr.train(samples, arch, cfg)
    for k in r1.best_weights.params:
        assert np.array_equal(r1.best_weights.params[k],
                              r2.best_weights.params[k])
    assert r1.metrics == r2.metrics


def test_validation_calls_infer_once_per_query(monkeypatch):
    # two cameras of six at val_fraction 0.2 hold out one image each; every
    # epoch end scores both through evaluation's scorer
    samples, arch, cfg = train_fixture()
    real, calls = evaluation.infer_from_stacks, []

    def counted(query, extra, weights):
        calls.append(len(extra))
        return real(query, extra, weights)

    monkeypatch.setattr(evaluation, "infer_from_stacks", counted)
    tr.train(samples, arch, cfg)
    assert calls == [arch.m - 1] * (cfg.epochs * 2)


def _per_query_validation_error(samples, plan, weights):
    """The validation error as training computed it in its own loop, one
    infer_from_stacks per query, before it scored through evaluation."""
    if not plan:
        return float("nan")
    errs = []
    for q, extra in plan:
        ell, _, _ = hn.infer_from_stacks(
            samples[q].stack, [samples[i].stack for i in extra], weights)
        errs.append(tr.angular_error(ell, samples[q].illuminant))
    return float(np.mean(errs))


def test_validation_error_matches_the_per_query_loop(monkeypatch):
    samples, arch, cfg = train_fixture()
    real, want = tr.score_plan, []

    def checked(plan, stacks, truth, weights):
        want.append(_per_query_validation_error(samples, plan, weights))
        return real(plan, stacks, truth, weights)

    monkeypatch.setattr(tr, "score_plan", checked)
    result = tr.train(samples, arch, cfg)
    assert len(want) == cfg.epochs
    assert [m.val_err_deg for m in result.metrics] == want


def test_train_divergence_returns_last_good():
    samples, arch, cfg = train_fixture()
    bad = tr.TrainingSample(np.full((4, 8, 8), np.nan), [1.0, 1.0, 1.0],
                            "camA")
    result = tr.train(samples + [bad], arch, cfg)
    assert result.diverged
    assert "non-finite" in result.message
    for v in result.best_weights.params.values():
        assert np.all(np.isfinite(v))


def test_divergence_without_validation_keeps_the_last_epoch(monkeypatch):
    # 12 stacks, nothing held out, 3 steps per epoch; gradients turn NaN at
    # step 10, so the run diverges after 3 whole epochs and must keep their
    # weights, not the initial ones
    samples, arch, _ = train_fixture()
    cfg = tr.TrainConfig(epochs=5, batch_sizes=(4,), seed=21,
                         val_fraction=0.0)
    real, before = tr.adam_step, []

    def poisoned(weights, grads, state, lr, cfg):
        before.append(weights.copy())
        if len(before) >= 10:
            grads = {k: np.full_like(g, np.nan) for k, g in grads.items()}
        real(weights, grads, state, lr, cfg)

    monkeypatch.setattr(tr, "adam_step", poisoned)
    result = tr.train(samples, arch, cfg)
    assert result.diverged and len(result.metrics) == 3
    epoch3 = before[9]   # the weights the 10th step started from
    init = before[0]
    for k in init.params:
        assert np.array_equal(result.best_weights.params[k],
                              epoch3.params[k])
    assert any(not np.array_equal(epoch3.params[k], init.params[k])
               for k in init.params)


# ----- config text round trip -----

def test_parse_config_and_builders():
    text = """
    # training setup
    epochs = 5
    lr = 1e-3
    batch_sizes = 4, 8,16
    seed = 7

    n = 32          # histogram size
    m = 3
    depth = 3
    base_channels = 4
    emit_gain = true
    """
    cfg, arch = tr.parse_config(text)
    assert cfg.epochs == 5 and cfg.lr == 1e-3 and cfg.seed == 7
    assert cfg.batch_sizes == (4, 8, 16)
    assert cfg.lambda_f == 0.15  # untouched default
    assert arch == hn.ArchitectureConfig(n=32, m=3, depth=3, base_channels=4,
                                         emit_gain=True)
    with pytest.raises(DataError, match="key = value"):
        tr.parse_config("epochs 5")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg, arch = tr.parse_config(example)
    assert arch == hn.ArchitectureConfig(n=64, m=9, depth=4, base_channels=8)
    assert cfg == tr.TrainConfig(epochs=60, lr=5e-4, batch_sizes=(16, 32, 64))


def test_format_metrics_round_trips():
    rows = [tr.EpochMetrics(1, 16, 5e-4, 2.5, 12.0, 14.5),
            tr.EpochMetrics(2, 16, 4e-4, 2.0, 10.0, 13.0)]
    text = tr.format_metrics(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("epoch\t")
    assert len(lines) == 3
    fields = lines[1].split("\t")
    assert int(fields[0]) == 1 and float(fields[5]) == 14.5
