"""Synthetic cross-camera benchmark.

Everything here is generated: scenes are rectangle collages on a colored
background (so their mean is not gray and the gray-world baseline carries a
real bias) under a smooth shading ramp; cameras come from
make_synthetic_camera; raw captures are reflectance times illuminant.  The
training set re-renders captures across the training cameras, the held-out
camera is never augmented into, and the whole pipeline is deterministic
given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericalError
from .evaluation import EvalReport, EvalSample, gray_world, run_eval
from .histograms import (EmptyHistogramError, HistogramConfig, RawImage,
                         assemble_feature_stack, unit_illuminant)
from .hypernet import ArchitectureConfig, NetworkWeights
from .sensor import (AugmentTarget, CMFTable, augment_image, estimate_cct,
                     make_synthetic_camera, stratified_selection)
from .training import TrainConfig, TrainingSample, TrainResult, train

__all__ = [
    "SCENE_SIZE", "render_scene", "capture", "native_captures",
    "draw_camera", "Benchmark",
    "make_benchmark", "BenchmarkResult", "run_benchmark",
]

SCENE_SIZE = (48, 64)


def render_scene(rng: np.random.Generator, size=SCENE_SIZE) -> np.ndarray:
    """Random reflectance collage of 12 rectangles, (H, W, 3), strictly
    positive.

    The colorful rectangles keep the mean reflectance away from gray, which
    is exactly the error mode of the gray-world baseline.
    """
    h, w = size
    if h < 8 or w < 8:
        raise ValueError("scenes smaller than 8x8 are degenerate")
    refl = np.tile(rng.uniform(0.15, 0.6, 3), (h, w, 1))
    for _ in range(12):
        rh = int(rng.integers(h // 8, h // 2 + 1))
        rw = int(rng.integers(w // 8, w // 2 + 1))
        top = int(rng.integers(0, h - rh + 1))
        left = int(rng.integers(0, w - rw + 1))
        refl[top:top + rh, left:left + rw] = rng.uniform(0.05, 0.95, 3)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    yy, xx = np.mgrid[0:h, 0:w]
    ramp = xx * np.cos(theta) + yy * np.sin(theta)
    ramp = (ramp - ramp.min()) / max(np.ptp(ramp), 1e-9)
    shade = 0.5 + 0.5 * ramp
    return refl * shade[..., None]


def capture(reflectance: np.ndarray, illuminant) -> RawImage:
    """Raw capture of a reflectance field under one illuminant."""
    ell = np.asarray(illuminant, dtype=np.float64)
    unit_illuminant(ell)
    return RawImage(reflectance * ell)


def native_captures(metas, rng: np.random.Generator, count: int,
                    size=SCENE_SIZE):
    """Fresh scenes lit by illuminants drawn from a camera's population.
    Returns [(RawImage, CaptureMeta)]."""
    out = []
    for _ in range(count):
        meta = metas[int(rng.integers(len(metas)))]
        out.append((capture(render_scene(rng, size), meta.illuminant), meta))
    return out


def draw_camera(rng: np.random.Generator, **kw):
    """make_synthetic_camera(rng, **kw), drawn again from the same stream
    while a draw fails with NumericalError, at most 100 draws in all."""
    for draw in range(100):
        try:
            return make_synthetic_camera(rng, **kw)
        except NumericalError:
            if draw == 99:
                raise


@dataclass
class Benchmark:
    """Training stacks from the training cameras plus raw evaluation images
    from the held-out one."""

    train: list                      # TrainingSample
    eval_samples: list               # EvalSample, all from held_out
    profiles: dict                   # camera id -> CameraProfile
    held_out: str
    hist: HistogramConfig
    m: int


def make_benchmark(seed: int = 0, n_train_cameras: int = 3,
                   captures_per_camera: int = 60, train_images: int = 500,
                   eval_images: int = 200, m: int = 9,
                   hist: HistogramConfig = None, tint: float = 0.15,
                   perturbation: float = 0.04, size=SCENE_SIZE) -> Benchmark:
    """Assemble the cross-camera benchmark.

    n_train_cameras cameras contribute native captures that are re-rendered
    (temperature-stratified, with sampled target illuminants and crops) into
    each other's spaces; one extra camera supplies eval_images untouched
    captures.  Cameras come from draw_camera.  A re-rendered image whose
    pixel histogram is empty (every pixel left the log-chroma domain) loses
    its stack, so train holds at most train_images stacks.
    """
    if n_train_cameras < 2:
        raise ValueError("cross-camera training needs at least 2 cameras")
    hist = hist if hist is not None else HistogramConfig(n=32)
    rng = np.random.default_rng(seed)
    cmf = CMFTable.load()

    cams = []
    profiles = {}
    for c in range(n_train_cameras + 1):
        name = f"cam{c}"
        profile, metas = draw_camera(
            rng, tint=tint, perturbation=perturbation, name=name)
        profiles[name] = profile
        cams.append((name, profile, metas))
    held_name, _, held_metas = cams[-1]
    train_cams = cams[:-1]

    sources = []
    for name, profile, metas in train_cams:
        for img, meta in native_captures(metas, rng, captures_per_camera,
                                         size):
            sources.append((img, meta, profile))
    targets = {name: AugmentTarget.build(profile, metas, cmf)
               for name, profile, metas in train_cams}

    src_temps = [estimate_cct(meta.illuminant, profile, cmf)[0]
                 for _, meta, profile in sources]
    order = stratified_selection(src_temps, train_images, rng)
    names = [name for name, _, _ in train_cams]
    train_set = []
    for j, src in enumerate(order):
        img, meta, profile = sources[src]
        tgt = names[j % len(names)]
        out, ell = augment_image(img, meta, profile, targets[tgt], cmf, rng)
        try:
            stack = assemble_feature_stack(out, hist).channel_first()
        except EmptyHistogramError:
            continue
        train_set.append(TrainingSample(stack, ell, camera=tgt))

    evals = [EvalSample(img, meta.illuminant, camera=held_name)
             for img, meta in native_captures(held_metas, rng, eval_images,
                                              size)]
    return Benchmark(train_set, evals, profiles, held_name, hist, m)


@dataclass
class BenchmarkResult:
    """Trained weights plus reports for the network, its single-image mode,
    and the gray-world baseline, all on the held-out camera."""

    c5: EvalReport
    single: EvalReport
    baseline: EvalReport
    weights: NetworkWeights
    training: TrainResult


def run_benchmark(seed: int = 0, bench: Benchmark = None,
                  arch: ArchitectureConfig = None, cfg: TrainConfig = None,
                  repeats: int = 3) -> BenchmarkResult:
    """Train a small network on the benchmark and score it against the
    gray-world baseline and its own zero-additional-images mode.

    Deterministic given seed: the same seed reproduces the benchmark data,
    the training run, and every report bit for bit.
    """
    if bench is None:
        bench = make_benchmark(seed)
    if arch is None:
        arch = ArchitectureConfig(n=bench.hist.n, m=bench.m, depth=3,
                                  base_channels=8)
    if cfg is None:
        # the smoothness penalty sums over map cells, so its useful weight
        # shrinks with map area; at n=32 the full-size defaults drown the
        # angular term and training collapses to a constant prediction
        cfg = TrainConfig(epochs=30, lr=2e-3, lambda_f=1.5e-4,
                          lambda_b=2e-5, lambda_g=2e-5, seed=seed)
    result = train(bench.train, arch, cfg)
    weights = result.best_weights

    c5 = run_eval(weights, bench.eval_samples, policy="random",
                  repeats=repeats, rng=np.random.default_rng(seed))
    single = run_eval(weights, bench.eval_samples, policy="none",
                      repeats=repeats, rng=np.random.default_rng(seed))
    baseline = run_eval(weights, bench.eval_samples, policy="random",
                        repeats=repeats, rng=np.random.default_rng(seed),
                        estimator=lambda img, extra: gray_world(img))
    return BenchmarkResult(c5, single, baseline, weights, result)
