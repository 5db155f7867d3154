"""Command-line surface.

Subcommands cover the whole workflow: synthesizing a virtual camera dataset,
re-rendering labeled raw images into another camera's space, training,
inference on float-map images, manifest evaluation, and a gradient
self-check.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import NumericalError
from .datasets import (DataError, DatasetManifest, LabeledSample,
                       load_dataset, read_raw_image, write_manifest)
from .evaluation import (POLICIES, EvalSample, format_report, gray_world,
                         run_eval)
from .floatmap import write_pfm
from .histograms import (EmptyHistogramError, HistogramConfig, RawImage,
                         assemble_feature_stack)
from .hypernet import (ArchitectureConfig, c5_infer, init_weights,
                       load_weights, save_weights)
from .sensor import (AugmentTarget, CMFTable, augment_image, estimate_cct,
                     stratified_selection)
from .synthbench import draw_camera, native_captures
from .training import (TrainConfig, TrainingSample, build_loss,
                       format_metrics, parse_config, train)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract here reserves 2 for
    # data errors, so usage problems are rethrown and mapped to 1.
    def error(self, message):
        raise _UsageError(message)


def _size(text: str):
    try:
        h, w = (int(t) for t in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}")
    return h, w


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tint(text: str) -> float:
    # the red/blue skew is 1 / (1 + t) with t drawn from [-tint, tint), so
    # 1 + t > 0 needs tint < 1
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _perturbation(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {value}")
    return value


def _load_images(path) -> DatasetManifest:
    """load_dataset, and a DataError when the manifest has no image."""
    manifest = load_dataset(path)
    if not manifest.samples:
        raise DataError(f"{path}: manifest has no image record")
    return manifest


def _training_samples(manifest: DatasetManifest, hist: HistogramConfig):
    out = []
    for s in manifest.samples:
        stack = assemble_feature_stack(s.load(), hist).channel_first()
        out.append(TrainingSample(stack, s.illuminant, s.camera))
    return out


def cmd_train(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config: {exc}") from None
    cfg, arch = parse_config(text)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    manifest = _load_images(args.data)
    samples = _training_samples(manifest, HistogramConfig(n=arch.n))
    result = train(samples, arch, cfg)
    print(format_metrics(result.metrics))
    save_weights(result.best_weights, args.out)
    print(f"saved weights to {args.out}")
    if result.diverged:
        raise NumericalError(f"training diverged: {result.message}")
    return 0


def cmd_infer(args) -> int:
    weights = load_weights(args.weights)
    query = read_raw_image(args.query, args.mask)
    additional = [read_raw_image(p) for p in args.additional]
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        ell, params, heat = c5_infer(query, additional, weights)
    for note in notes:
        print(f"note: {note.message}", file=sys.stderr)
    print(" ".join(f"{v:.8f}" for v in ell))
    if args.heat:
        write_pfm(args.heat, heat)
    if args.params:
        write_pfm(args.params + "_bias.pfm", params.bias)
        write_pfm(args.params + "_f0.pfm", params.filters[0])
        write_pfm(args.params + "_f1.pfm", params.filters[1])
        if params.gain is not None:
            write_pfm(args.params + "_gain.pfm", params.gain)
    return 0


def cmd_augment(args) -> int:
    rng = np.random.default_rng(args.seed)
    src = _load_images(args.source)
    tgt = _load_images(args.target)
    for name, manifest in (("source", src), ("target", tgt)):
        for s in manifest.samples:
            if s.meta is None:
                raise DataError(f"{name} image {s.image_path} has no capture "
                                f"metadata; augmentation needs it")
    cmf = CMFTable.load()
    cameras = tgt.cameras()
    targets = {}
    for cam in cameras:
        metas = [s.meta for s in tgt.samples if s.camera == cam]
        targets[cam] = AugmentTarget.build(tgt.profiles[cam], metas, cmf)

    src_temps = [estimate_cct(s.meta.illuminant, src.profiles[s.camera],
                              cmf)[0] for s in src.samples]
    picks = stratified_selection(src_temps, args.count, rng)
    os.makedirs(args.out_dir, exist_ok=True)
    out = DatasetManifest(profiles={cam: tgt.profiles[cam]
                                    for cam in cameras})
    for i, idx in enumerate(picks):
        s = src.samples[idx]
        cam = cameras[i % len(cameras)]
        image, ell = augment_image(
            s.load(working_res=None), s.meta, src.profiles[s.camera],
            targets[cam], cmf, rng, k=args.k, crop=not args.no_crop)
        path = os.path.join(args.out_dir, f"aug_{i:05d}.pfm")
        write_pfm(path, image.pixels)
        mask_path = None
        if not image.mask.all():
            mask_path = os.path.join(args.out_dir, f"aug_{i:05d}_mask.pfm")
            write_pfm(mask_path, image.mask.astype(np.float64))
        out.samples.append(LabeledSample(
            image_path=path, camera=cam, illuminant=ell,
            mask_path=mask_path, scene=s.scene))
    manifest_path = os.path.join(args.out_dir, "manifest.jsonl")
    write_manifest(out, manifest_path)
    print(f"wrote {len(picks)} augmented images and {manifest_path}")
    return 0


def cmd_synth_camera(args) -> int:
    rng = np.random.default_rng(args.seed)
    profile, metas = draw_camera(
        rng, tint=args.tint, perturbation=args.perturbation,
        n_illuminants=args.illuminants, name=args.name)
    pairs = native_captures(metas, rng, args.count, size=args.size)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = DatasetManifest(profiles={args.name: profile})
    for i, (image, meta) in enumerate(pairs):
        path = os.path.join(args.out_dir, f"{args.name}_{i:05d}.pfm")
        write_pfm(path, image.pixels)
        manifest.samples.append(LabeledSample(
            image_path=path, camera=args.name, illuminant=meta.illuminant,
            scene=f"{args.name}_scene_{i}", meta=meta))
    manifest_path = os.path.join(args.out_dir, "manifest.jsonl")
    write_manifest(manifest, manifest_path)
    print(f"wrote {len(pairs)} captures and {manifest_path}")
    return 0


def cmd_eval(args) -> int:
    weights = load_weights(args.weights)
    manifest = _load_images(args.manifest)
    samples = manifest.samples
    if args.hold_out is not None:
        samples = [s for s in samples if s.camera == args.hold_out]
        if not samples:
            raise ValueError(f"unknown camera {args.hold_out!r} "
                             f"(have {manifest.cameras()})")
    eval_samples = [EvalSample(s.load(), s.illuminant, s.camera)
                    for s in samples]
    estimator = None
    if args.estimator == "gray-world":
        estimator = lambda image, extra: gray_world(image)
    report = run_eval(weights, eval_samples, policy=args.policy,
                      repeats=args.repeats, rng=np.random.default_rng(args.seed),
                      estimator=estimator)
    print(format_report(report))
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    arch = ArchitectureConfig(n=16, m=3, depth=2, base_channels=2,
                              emit_gain=True)
    weights = init_weights(arch, rng)
    hist = HistogramConfig(n=arch.n)
    images = [RawImage(rng.uniform(0.05, 1.0, size=(20, 24, 3)))
              for _ in range(2 * arch.m)]
    stacks = np.stack([
        np.stack([assemble_feature_stack(img, hist).channel_first()
                  for img in images[b * arch.m:(b + 1) * arch.m]])
        for b in range(2)])
    targets = rng.uniform(0.3, 1.0, size=(2, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    cfg = TrainConfig()
    pnodes = {k: ad.param(v) for k, v in weights.params.items()}

    def build():
        loss, _, _ = build_loss(stacks, targets, weights, cfg,
                                training=True, param_nodes=pnodes)
        return loss

    report = ad.grad_check(build, pnodes, step=3e-5, tol=args.tol,
                           rng=np.random.default_rng(args.seed),
                           max_per_leaf=args.probes)
    print(f"max relative error {report.max_rel_err:.3e} "
          f"(tolerance {report.tol:g})")
    if not report.ok:
        worst = sorted(report.per_leaf, key=report.per_leaf.get)[-3:]
        detail = ", ".join(f"{k}={report.per_leaf[k]:.2e}" for k in worst)
        raise NumericalError(f"gradient check failed: {detail}")
    print("gradient check passed")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="chromacc",
                     description="cross-camera color constancy toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="optimize weights on a labeled manifest")
    p.add_argument("config", help="key=value hyperparameter file")
    p.add_argument("--data", required=True, help="training manifest")
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="estimate one image's illuminant")
    p.add_argument("weights")
    p.add_argument("query", help="query image (.pfm)")
    p.add_argument("additional", nargs="*",
                   help="unlabeled same-camera images")
    p.add_argument("--mask", default=None, help="query validity mask (.pfm)")
    p.add_argument("--heat", default=None,
                   help="write the localization heat map here")
    p.add_argument("--params", default=None,
                   help="prefix for bias/filter/gain float maps")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("augment",
                       help="re-render source images into target cameras")
    p.add_argument("source", help="labeled source manifest")
    p.add_argument("target", help="manifest describing the target cameras")
    p.add_argument("count", type=_count)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=_count, default=4,
                   help="metadata neighbors per draw")
    p.add_argument("--no-crop", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("synth-camera",
                       help="manufacture a virtual camera and captures")
    p.add_argument("count", type=_count, help="number of captures")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--name", default="synth")
    p.add_argument("--tint", type=_tint, default=0.15)
    p.add_argument("--perturbation", type=_perturbation, default=0.04)
    p.add_argument("--illuminants", type=int, default=64)
    p.add_argument("--size", type=_size, default=(48, 64),
                   help="capture size as HxW")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_camera)

    p = sub.add_parser("eval", help="score weights against a manifest")
    p.add_argument("weights")
    p.add_argument("manifest")
    p.add_argument("--policy", choices=POLICIES, default="random")
    p.add_argument("--repeats", type=_count, default=10)
    p.add_argument("--hold-out", default=None,
                   help="evaluate only this camera's images")
    p.add_argument("--estimator", choices=("network", "gray-world"),
                   default="network")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="verify gradients against finite differences")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--probes", type=_count, default=2,
                   help="entries checked per parameter tensor")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, EmptyHistogramError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
