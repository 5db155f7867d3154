"""Optimization of the filter-generating network.

The loss per sample is the angle between the estimated and true illuminant
vectors plus smoothness penalties on the emitted maps; the batch loss is the
mean.  Weight decay is decoupled from the loss and applied inside the Adam
update.  The learning rate follows a single cosine arc over all steps, and
the batch size grows over the run (16 then 32 then 64 under the defaults).

Weights stay float32-representable after every update so a saved model file
reproduces in-memory inference bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import ceil, cos, isfinite, pi

import numpy as np

from . import autodiff as ad
from . import hypernet as hn
from . import plans
from .autodiff import _snap32
from .evaluation import angular_error, score_plan
from .floatmap import DataError
from .histograms import HistogramConfig, unit_illuminant

__all__ = [
    "NumericalError", "TrainConfig", "TrainingSample", "EpochMetrics",
    "TrainResult", "angular_error", "lr_at", "batch_size_at", "AdamState",
    "adam_step", "sample_batch", "iter_epoch", "build_loss",
    "validation_split", "train", "parse_config", "format_metrics",
]

# horizontal (variation along u = columns) and vertical Sobel kernels;
# only squared responses are used, so the correlation/convolution flip
# and overall sign are immaterial
SOBEL_U = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_V = SOBEL_U.T.copy()

NumericalError = ad.NumericalError

# Adam's moment decay rates and denominator guard, at their published
# values (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    lr: float = 5e-4
    weight_decay: float = 5e-4
    lambda_f: float = 0.15
    lambda_b: float = 0.02
    lambda_g: float = 0.02
    batch_sizes: tuple = (16, 32, 64)
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        for name in ("lambda_f", "lambda_b", "lambda_g", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        bs = tuple(int(b) for b in self.batch_sizes)
        if not bs or any(b < 1 for b in bs):
            raise ValueError("batch_sizes must be positive")
        if list(bs) != sorted(bs):
            raise ValueError("batch_sizes must be ascending")
        object.__setattr__(self, "batch_sizes", bs)
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


@dataclass(frozen=True)
class TrainingSample:
    """One labeled image, reduced to its feature stack."""

    stack: np.ndarray       # (4, n, n) channel-first
    illuminant: np.ndarray  # unit 3-vector, positive entries
    camera: str

    def __post_init__(self):
        object.__setattr__(self, "stack",
                           np.asarray(self.stack, dtype=np.float64))
        object.__setattr__(self, "illuminant",
                           unit_illuminant(self.illuminant))


def lr_at(step: int, total_steps: int, lr_initial: float) -> float:
    """Cosine decay from lr_initial at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_initial * 0.5 * (1.0 + cos(pi * step / total_steps))


def batch_size_at(epoch: int, cfg: TrainConfig) -> int:
    """Batch size for a 1-based epoch: the schedule splits the run into
    len(batch_sizes) equal phases."""
    k = len(cfg.batch_sizes)
    idx = min(k * (epoch - 1) // cfg.epochs, k - 1) if cfg.epochs else 0
    return cfg.batch_sizes[idx]


# ----- optimizer ----------------------------------------------------------------

@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def fresh(cls, params: dict) -> "AdamState":
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


def adam_step(weights: hn.NetworkWeights, grads: dict, state: AdamState,
              lr: float, cfg: TrainConfig):
    """One Adam update with decoupled weight decay, in place.  Updated
    weights are snapped to float32-representable values."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for k, w in weights.params.items():
        g = grads[k]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {k}")
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        mhat = state.m[k] / c1
        vhat = state.v[k] / c2
        step = lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        weights.params[k] = _snap32(w - step - lr * cfg.weight_decay * w)


# ----- batch assembly -----------------------------------------------------------

def sample_batch(samples, query_ids, m: int, rng: np.random.Generator):
    """Pair each query with up to m-1 distinct additional ids from its own
    camera (plans.same_camera); _batch_arrays pads a short list."""
    groups = plans.camera_groups([s.camera for s in samples])
    return plans.same_camera([(int(q), samples[q].camera) for q in query_ids],
                             groups, m - 1, rng)


def iter_epoch(samples, epoch: int, cfg: TrainConfig, m: int,
               rng: np.random.Generator):
    """Yield one epoch's batches; every sample is a query exactly once."""
    if not samples:
        raise ValueError("empty dataset")
    order = rng.permutation(len(samples))
    bs = batch_size_at(epoch, cfg)
    for start in range(0, len(order), bs):
        yield sample_batch(samples, order[start:start + bs], m, rng)


def _batch_arrays(samples, batch, m: int):
    stacks = np.stack([
        np.stack([samples[i].stack for i in plans.pad(q, extra, m)])
        for q, extra in batch])
    targets = np.stack([samples[q].illuminant for q, _ in batch])
    return stacks, targets


# ----- loss graph ---------------------------------------------------------------

def _smoothness_nodes(map_node: ad.Node, lam: float) -> ad.Node:
    """(B, K, n, n) map node -> (B,) per-sample penalty via valid-mode Sobel
    responses; channels are folded into the batch axis so one conv covers
    every map."""
    b, k, n, _ = map_node.value.shape
    flat = ad.reshape(map_node, (b * k, 1, n, n))
    total = None
    for kern in (SOBEL_U, SOBEL_V):
        resp = ad.conv3x3(flat, ad.const(kern[None, None]), pad=0)
        e = ad.sum_per_sample(ad.mul(resp, resp))
        total = e if total is None else ad.add(total, e)
    per_sample = ad.sum_per_sample(ad.reshape(total, (b, k)))
    return ad.scale(per_sample, lam)


def build_loss(stacks: np.ndarray, targets: np.ndarray,
               weights: hn.NetworkWeights, cfg: TrainConfig,
               config: HistogramConfig = None, training: bool = True,
               param_nodes: dict = None):
    """Full training graph for one batch.

    stacks: (B, m, 4, n, n); targets: (B, 3) unit illuminants.  Returns
    (loss Node, param node dict, per-sample angle Node in radians).
    config must describe the network's grid, size arch.n; it is kept only
    until the benchmark's next revision.
    """
    hn._check_grid(config, weights.arch)
    maps, _, ell, pnodes = hn._predict(stacks, weights, training, param_nodes)
    angles = ad.arccos(ad.dot(ell, ad.const(np.asarray(targets, float))))

    per_sample = angles
    for name, lam in (("bias", cfg.lambda_b), ("filters", cfg.lambda_f),
                      ("gain", cfg.lambda_g)):
        if name in maps and lam > 0.0:
            per_sample = ad.add(per_sample, _smoothness_nodes(maps[name], lam))
    return ad.mean_all(per_sample), pnodes, angles


# ----- training loop ------------------------------------------------------------

@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    batch_size: int
    lr_last: float
    train_loss: float
    train_err_deg: float
    val_err_deg: float


@dataclass
class TrainResult:
    best_weights: hn.NetworkWeights   # epoch-end snapshot, see train
    metrics: list
    diverged: bool = False
    message: str = ""


def validation_split(samples, fraction: float, rng: np.random.Generator):
    """Hold out ~fraction of each camera's images (at least one, never all).
    Returns (train_ids, val_ids)."""
    groups = plans.camera_groups([s.camera for s in samples])
    train_ids, val_ids = [], []
    for cam in sorted(groups):
        ids = np.array(groups[cam])
        ids = ids[rng.permutation(len(ids))]
        k = 0
        if fraction > 0.0 and len(ids) >= 2:
            k = min(max(1, int(fraction * len(ids))), len(ids) - 1)
        val_ids.extend(int(i) for i in ids[:k])
        train_ids.extend(int(i) for i in ids[k:])
    return sorted(train_ids), sorted(val_ids)


def train(samples, arch: hn.ArchitectureConfig, cfg: TrainConfig,
          config: HistogramConfig = None) -> TrainResult:
    """Optimize a fresh network on labeled feature stacks.

    Deterministic given cfg.seed.  At each epoch end the weights are kept
    when their validation error is the lowest so far, or always when
    nothing is held out.  On divergence (non-finite loss or gradients)
    training stops and the result carries the kept weights with
    diverged=True.  config must describe the network's grid, size
    arch.n; it is kept only until the benchmark's next revision.
    """
    if not samples:
        raise ValueError("empty dataset")
    hn._check_grid(config, arch)
    rng = np.random.default_rng(cfg.seed)
    weights = hn.init_weights(arch, rng)
    metrics: list[EpochMetrics] = []
    if cfg.epochs == 0:
        return TrainResult(weights, metrics)

    train_ids, val_ids = validation_split(samples, cfg.val_fraction, rng)
    train_set = [samples[i] for i in train_ids]
    # each validation query's additional set is fixed once, from its
    # camera's training images, so epochs differ only in the weights
    cameras = [s.camera for s in samples]
    val_plan = plans.same_camera([(q, cameras[q]) for q in val_ids],
                                 plans.camera_groups(cameras, train_ids),
                                 arch.m - 1, rng)
    all_stacks = [s.stack for s in samples]
    truth = [s.illuminant for s in samples]

    total_steps = sum(ceil(len(train_set) / batch_size_at(e, cfg))
                      for e in range(1, cfg.epochs + 1))
    adam = AdamState.fresh(weights.params)
    step = 0
    best_err = float("inf")
    best = weights.copy()

    for epoch in range(1, cfg.epochs + 1):
        losses, errs = [], []
        lr = cfg.lr
        try:
            for batch in iter_epoch(train_set, epoch, cfg, arch.m, rng):
                stacks, targets = _batch_arrays(train_set, batch, arch.m)
                loss, pnodes, angles = build_loss(stacks, targets, weights,
                                                  cfg)
                if not np.isfinite(loss.value):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch} step {step}")
                ad.backward(loss)
                lr = lr_at(step, total_steps, cfg.lr)
                adam_step(weights, {k: p.grad for k, p in pnodes.items()},
                          adam, lr, cfg)
                step += 1
                losses.append(float(loss.value))
                errs.append(float(np.degrees(angles.value).mean()))
        except NumericalError as exc:
            return TrainResult(best, metrics, diverged=True,
                               message=str(exc))
        val_err = (float(np.mean(score_plan(val_plan, all_stacks, truth,
                                            weights)))
                   if val_plan else float("nan"))
        metrics.append(EpochMetrics(epoch, batch_size_at(epoch, cfg), lr,
                                    float(np.mean(losses)),
                                    float(np.mean(errs)), val_err))
        if not val_plan or val_err < best_err:
            best_err = val_err
            best = weights.copy()
    return TrainResult(best, metrics)


# ----- config file and metrics text ---------------------------------------------

def _config_value(text: str, default):
    """A config value read as the type of its field's default."""
    if isinstance(default, bool):
        return {"true": True, "yes": True, "1": True, "false": False,
                "no": False, "0": False}[text.lower()]
    if isinstance(default, tuple):  # batch_sizes: comma-separated ints
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    value = type(default)(text)
    if not isfinite(value):
        raise ValueError("not finite")
    return value


def parse_config(text: str):
    """key = value lines (# starts a comment) -> (TrainConfig,
    ArchitectureConfig).  The keys are the two classes' fields and a value
    takes the type of its field's default.  An unknown key, a line without
    =, a value that does not read or is not finite, and a value the classes
    reject all raise DataError."""
    classes = (TrainConfig, hn.ArchitectureConfig)
    owner = {f.name: (cls, f.default) for cls in classes for f in fields(cls)}
    kw = {cls: {} for cls in classes}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (t.strip() for t in line.partition("="))
        if not eq:
            raise DataError(f"line {ln}: expected key = value, got {raw!r}")
        if key not in owner:
            raise DataError(f"line {ln}: unknown key {key!r}")
        cls, default = owner[key]
        try:
            kw[cls][key] = _config_value(val, default)
        except (KeyError, ValueError, OverflowError):
            raise DataError(f"line {ln}: cannot read {key} = {val!r}") from None
    try:
        return tuple(cls(**kw[cls]) for cls in classes)
    except ValueError as exc:
        raise DataError(f"config: {exc}") from None


def format_metrics(metrics) -> str:
    lines = ["epoch\tbatch_size\tlr_last\ttrain_loss\ttrain_err_deg\tval_err_deg"]
    for m in metrics:
        lines.append(f"{m.epoch}\t{m.batch_size}\t{m.lr_last:.8g}\t"
                     f"{m.train_loss:.8g}\t{m.train_err_deg:.8g}\t"
                     f"{m.val_err_deg:.8g}")
    return "\n".join(lines) + "\n"
