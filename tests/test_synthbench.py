import numpy as np
import pytest

import chromacc.synthbench as synthbench
from chromacc.autodiff import NumericalError
from chromacc.histograms import EmptyHistogramError, HistogramConfig
from chromacc.hypernet import ArchitectureConfig
from chromacc.sensor import make_synthetic_camera
from chromacc.synthbench import (SCENE_SIZE, capture, draw_camera,
                                 make_benchmark, native_captures,
                                 render_scene, run_benchmark)
from chromacc.training import TrainConfig


def test_render_scene_basic_properties():
    rng = np.random.default_rng(0)
    scene = render_scene(rng)
    assert scene.shape == SCENE_SIZE + (3,)
    assert np.all(scene > 0)
    assert np.all(np.isfinite(scene))
    assert scene.max() < 2.0
    # collages are not flat fields
    assert scene.std() > 0.01


def test_render_scene_seeded():
    a = render_scene(np.random.default_rng(5), size=(16, 16))
    b = render_scene(np.random.default_rng(5), size=(16, 16))
    c = render_scene(np.random.default_rng(6), size=(16, 16))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        render_scene(np.random.default_rng(0), size=(4, 4))


def test_capture_multiplies_channelwise():
    refl = np.full((8, 8, 3), 0.5)
    ell = np.array([0.2, 0.8, 0.4])
    img = capture(refl, ell)
    assert np.allclose(img.pixels, refl * ell)
    with pytest.raises(ValueError):
        capture(refl, [0.5, 0.5, 0.0])


def test_native_captures_draw_from_population(tiny_camera):
    _, metas = tiny_camera
    rng = np.random.default_rng(1)
    pairs = native_captures(metas, rng, 5, size=(12, 16))
    assert len(pairs) == 5
    for img, meta in pairs:
        assert img.pixels.shape == (12, 16, 3)
        assert any(meta is m for m in metas)


@pytest.fixture(scope="module")
def tiny_camera():
    from chromacc.sensor import make_synthetic_camera
    return make_synthetic_camera(np.random.default_rng(0), tint=0.1,
                                 perturbation=0.02, name="t")


@pytest.fixture(scope="module")
def tiny_bench():
    return make_benchmark(seed=3, n_train_cameras=2, captures_per_camera=6,
                          train_images=12, eval_images=5, m=3,
                          hist=HistogramConfig(n=16), size=(16, 24))


def test_benchmark_shape_and_attribution(tiny_bench):
    bench = tiny_bench
    assert len(bench.train) == 12
    assert len(bench.eval_samples) == 5
    assert bench.held_out == "cam2"
    assert sorted(bench.profiles) == ["cam0", "cam1", "cam2"]
    cams = [s.camera for s in bench.train]
    assert set(cams) == {"cam0", "cam1"}
    assert cams.count("cam0") == cams.count("cam1") == 6
    for s in bench.train:
        assert s.stack.shape == (4, 16, 16)
        assert np.isclose(np.linalg.norm(s.illuminant), 1.0)
        assert np.all(s.illuminant > 0)
    for s in bench.eval_samples:
        assert s.camera == "cam2"
        assert s.image.pixels.shape == (16, 24, 3)


def test_benchmark_never_augments_into_held_out(tiny_bench):
    assert all(s.camera != tiny_bench.held_out for s in tiny_bench.train)


def test_benchmark_deterministic(tiny_bench):
    again = make_benchmark(seed=3, n_train_cameras=2, captures_per_camera=6,
                           train_images=12, eval_images=5, m=3,
                           hist=HistogramConfig(n=16), size=(16, 24))
    assert np.array_equal(tiny_bench.train[0].stack, again.train[0].stack)
    assert np.array_equal(tiny_bench.train[-1].stack, again.train[-1].stack)
    for a, b in zip(tiny_bench.eval_samples, again.eval_samples):
        assert np.array_equal(a.image.pixels, b.image.pixels)
        assert np.array_equal(a.illuminant, b.illuminant)


def test_benchmark_illuminants_vary(tiny_bench):
    ills = np.stack([s.illuminant for s in tiny_bench.train])
    assert ills.std(axis=0).max() > 1e-3


def test_run_benchmark_smoke_and_reproducibility(tiny_bench):
    arch = ArchitectureConfig(n=16, m=3, depth=2, base_channels=2)
    cfg = TrainConfig(epochs=1, batch_sizes=(4,), seed=3)
    a = run_benchmark(seed=3, bench=tiny_bench, arch=arch, cfg=cfg, repeats=2)
    assert len(a.c5.runs) == 2
    assert a.single.std.as_tuple() == (0.0,) * 5
    for report in (a.c5, a.single, a.baseline):
        assert np.isfinite(report.mean.as_tuple()).all()
        assert report.mean.mean >= 0.0
    assert not a.training.diverged

    b = run_benchmark(seed=3, bench=tiny_bench, arch=arch, cfg=cfg, repeats=2)
    assert a.c5 == b.c5
    assert a.single == b.single
    assert a.baseline == b.baseline


def test_draw_camera_redraws_from_the_same_stream():
    # seed 18's first camera draw yields a non-positive illuminant
    rng = np.random.default_rng(18)
    failures = 0
    while True:
        try:
            want = make_synthetic_camera(rng, tint=0.15, perturbation=0.04)
            break
        except NumericalError:
            failures += 1
    assert failures >= 1
    rng_drawn = np.random.default_rng(18)
    profile, metas = draw_camera(rng_drawn, tint=0.15, perturbation=0.04)
    assert np.array_equal(profile.c1, want[0].c1)
    assert np.array_equal(profile.c2, want[0].c2)
    assert [m.illuminant.tobytes() for m in metas] == \
        [m.illuminant.tobytes() for m in want[1]]
    assert rng_drawn.bit_generator.state == rng.bit_generator.state


def test_benchmark_builds_where_a_camera_draw_fails():
    bench = make_benchmark(seed=18, n_train_cameras=2, captures_per_camera=4,
                           train_images=6, eval_images=2,
                           hist=HistogramConfig(n=16), size=(16, 24))
    assert len(bench.train) == 6 and len(bench.eval_samples) == 2
    profile, _ = draw_camera(np.random.default_rng(18), tint=0.15,
                             perturbation=0.04, name="cam0")
    assert np.array_equal(bench.profiles["cam0"].c1, profile.c1)


def test_benchmark_skips_an_empty_stack(monkeypatch):
    # the 3rd and 7th re-rendered images are made to keep no pixel inside
    # the log-chroma domain: their stacks go, and the others stay as built
    kw = dict(seed=0, n_train_cameras=2, captures_per_camera=4,
              train_images=12, eval_images=2, hist=HistogramConfig(n=16),
              size=(16, 24))
    full = make_benchmark(**kw)
    assert len(full.train) == 12
    real, calls = synthbench.assemble_feature_stack, []

    def emptied(image, config):
        calls.append(image)
        if len(calls) in (3, 7):
            raise EmptyHistogramError("no valid pixels to histogram")
        return real(image, config)

    monkeypatch.setattr(synthbench, "assemble_feature_stack", emptied)
    bench = make_benchmark(**kw)
    assert len(calls) == 12 and len(bench.train) == 10
    kept = [s for i, s in enumerate(full.train) if i not in (2, 6)]
    for got, want in zip(bench.train, kept):
        assert np.array_equal(got.stack, want.stack)
        assert np.array_equal(got.illuminant, want.illuminant)
        assert got.camera == want.camera
