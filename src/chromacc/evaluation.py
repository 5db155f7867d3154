"""Angular error, the plan scorer, baselines, and repeated evaluation runs.

An evaluation run scores an estimator on a set of labeled images; because
the network conditions on additional same-camera images, the choice of those
images is a policy ("random", "vivid", "dull", "cross-camera", or "none" for
single-image operation) and runs are repeated with fresh draws.  A report
aggregates per-run summary statistics and their across-run spread.
score_plan, the one scorer of a plan of draws, serves validation too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import plans
from .histograms import (EmptyHistogramError, HistogramConfig, RawImage,
                         assemble_feature_stack, pixel_uv, unit_illuminant)
from .hypernet import NetworkWeights, _check_grid, infer_from_stacks

__all__ = [
    "POLICIES", "EvalStats", "EvalReport", "EvalSample", "angular_error",
    "score_plan", "eval_stats", "gray_world", "chroma_variance", "run_eval",
    "format_report",
]

POLICIES = ("random", "vivid", "dull", "cross-camera", "none")

# pool size for the colorfulness-ranked policies
VIVID_POOL = 20


def angular_error(a, b) -> float:
    """Angle between two color vectors in degrees; scale-invariant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("angular error of a zero vector is undefined")
    c = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def score_plan(plan, stacks, illuminants, weights: NetworkWeights) -> list:
    """Angular error of each query of a plan, in plan order.

    plan holds (query id, additional ids) pairs that index the channel-first
    stacks and their true illuminants.  Each distinct query, a query id with
    a set of additional ids, is one infer_from_stacks call on the query and
    the stacks it names; a later entry with the same key reuses that error.
    The key is a set because branches meet only in maxima: the order of the
    additional stacks changes no bit of the estimate.
    """
    errors, seen = [], {}
    for q, extra in plan:
        key = (q, frozenset(extra))
        if key not in seen:
            ell, _, _ = infer_from_stacks(stacks[q],
                                          [stacks[i] for i in extra], weights)
            seen[key] = angular_error(ell, illuminants[q])
        errors.append(seen[key])
    return errors


@dataclass(frozen=True)
class EvalStats:
    """Five-number summary of a set of angular errors, in degrees."""

    mean: float
    median: float
    trimean: float
    best25: float
    worst25: float

    def as_tuple(self):
        return (self.mean, self.median, self.trimean, self.best25,
                self.worst25)


def eval_stats(errors) -> EvalStats:
    """Summary statistics of a non-empty error sequence.

    The trimean weights the median twice against the Tukey hinges (medians
    of the lower and upper halves, both including the middle element when
    the count is odd).  best25/worst25 average the smallest and largest
    quarter, rounding the quarter up.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("errors must be a non-empty 1-d sequence")
    s = np.sort(e)
    n = s.size
    med = float(np.median(s))
    q1 = float(np.median(s[: (n + 1) // 2]))
    q3 = float(np.median(s[n // 2:]))
    k = math.ceil(n / 4)
    return EvalStats(mean=float(s.mean()),
                     median=med,
                     trimean=(q1 + 2.0 * med + q3) / 4.0,
                     best25=float(s[:k].mean()),
                     worst25=float(s[-k:].mean()))


@dataclass(frozen=True)
class EvalReport:
    """Per-run statistics plus their across-run mean and population std."""

    runs: tuple
    mean: EvalStats
    std: EvalStats

    @classmethod
    def from_runs(cls, runs) -> "EvalReport":
        runs = tuple(runs)
        if not runs:
            raise ValueError("a report needs at least one run")
        table = np.array([r.as_tuple() for r in runs])
        return cls(runs,
                   EvalStats(*(float(x) for x in table.mean(axis=0))),
                   EvalStats(*(float(x) for x in table.std(axis=0))))


@dataclass
class EvalSample:
    """One labeled evaluation image."""

    image: RawImage
    illuminant: np.ndarray
    camera: str = ""

    def __post_init__(self):
        self.illuminant = unit_illuminant(self.illuminant)


def gray_world(image: RawImage) -> np.ndarray:
    """Baseline estimate: unit-normalized mean of the valid pixels."""
    pix = image.pixels[image.mask]
    if pix.size == 0:
        raise EmptyHistogramError("no valid pixels")
    est = pix.mean(axis=0)
    norm = np.linalg.norm(est)
    if norm == 0:
        raise EmptyHistogramError("all valid pixels are black")
    return est / norm


def chroma_variance(image: RawImage) -> float:
    """Colorfulness score: var(u) + var(v) over valid strictly-positive
    pixels; 0.0 when fewer than two qualify."""
    u, v, valid = pixel_uv(image.pixels[image.mask])
    if valid.sum() < 2:
        return 0.0
    return float(np.var(u[valid]) + np.var(v[valid]))


def run_eval(weights: NetworkWeights, samples, policy: str = "random",
             repeats: int = 10, rng=None, config: HistogramConfig = None,
             estimator=None) -> EvalReport:
    """Score an estimator on labeled samples under an additional-image
    policy, repeated with fresh draws.

    Every repeat's plan is drawn first, one plans.draw per sample in sample
    order, repeat after repeat.  estimator defaults to the network (weights
    + histograms): score_plan scores all repeats as one plan, so a repeat
    that draws a query's additional set again, in any order, costs nothing,
    and "none", which draws no additional image and runs the network on the
    query alone, runs each query once.  A substitute estimator is called
    once per query per repeat (it need not be deterministic); it takes
    (query RawImage, list of the distinct additional RawImages, not padded
    to m-1, as c5_infer takes them) and returns an illuminant estimate.
    config must describe the network's grid, size arch.n; it is kept only
    until the benchmark's next revision.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r} (choose from {POLICIES})")
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to evaluate")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rng = np.random.default_rng(rng)
    scores = ([chroma_variance(s.image) for s in samples]
              if policy in ("vivid", "dull") else None)
    pools = plans.eval_pools([s.camera for s in samples], policy, scores,
                             VIVID_POOL)

    k, n = weights.arch.m - 1, len(samples)
    draws = [[(i, plans.draw(pool, k, rng)) for i, pool in enumerate(pools)]
             for _ in range(repeats)]
    if estimator is None:
        _check_grid(config, weights.arch)
        grid = HistogramConfig(n=weights.arch.n)
        stacks = [assemble_feature_stack(s.image, grid).channel_first()
                  for s in samples]
        flat = score_plan([entry for plan in draws for entry in plan], stacks,
                          [s.illuminant for s in samples], weights)
        runs = [flat[r * n:(r + 1) * n] for r in range(repeats)]
    else:
        runs = [[angular_error(estimator(samples[q].image,
                                         [samples[j].image for j in extra]),
                               samples[q].illuminant) for q, extra in plan]
                for plan in draws]
    return EvalReport.from_runs(eval_stats(errors) for errors in runs)


def format_report(report: EvalReport) -> str:
    """Two-row text table: across-run means with stds underneath."""
    names = ("mean", "median", "trimean", "best25", "worst25")
    head = "".join(f"{n:>10}" for n in names)
    mean = "".join(f"{getattr(report.mean, n):10.4f}" for n in names)
    std = "".join(f"{getattr(report.std, n):10.4f}" for n in names)
    return "\n".join([" " * 6 + head, "mean  " + mean, "std   " + std])
