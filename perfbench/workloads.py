"""The four workloads of the chromacc benchmark: synth, train, eval, infer.

Each workload is a closed loop with one caller in one process.  `setup()`
builds every input from the seed; `unit(i)` then runs one slice of work and
reports what it did.  The same `i` always does the same work, so a traced
replay can be compared bit for bit with the untraced run.

Every call into the package goes through a module attribute
(`sensor.estimate_cct`, not a name imported from it), so the tracer's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from chromacc import ccc, evaluation, histograms, hypernet, sensor, synthbench, training
from chromacc.autodiff import NumericalError
from chromacc.datasets import WORKING_RES
from chromacc.histograms import EmptyHistogramError, HistogramConfig

# make_benchmark's camera, scene and histogram settings
TINT = 0.15
PERTURBATION = 0.04
HIST = HistogramConfig(n=32)
# run_benchmark's architecture
BENCH_ARCH = hypernet.ArchitectureConfig(n=32, m=9, depth=3, base_channels=8)
# every network starts from this seed, and eval's is trained on data drawn
# from it, whatever the workload seed is: accuracy then varies with the
# workload's data only
NET_SEED = 0
# random streams: unit i draws from default_rng([seed, i]); set-up and
# warm-up draw from streams no unit reaches
SETUP_STREAM = 1 << 30
WARM_STREAM = SETUP_STREAM + 1
# train's and eval's set-up cameras have 16 illuminants, a quarter of
# make_benchmark's, which keeps AugmentTarget.build affordable
SETUP_ILLUMINANTS = 16
# eval's weights: one epoch on stacks from two cameras
WEIGHTS_CAMERAS = 2
WEIGHTS_EPOCHS = 1


class BenchError(RuntimeError):
    """An output failed a correctness check."""


@dataclass(frozen=True)
class Size:
    """How much work the workloads do; FULL is the benchmark, SMOKE a
    seconds-long run for the benchmark's own tests."""

    synth_cameras: int        # training cameras per synth round
    synth_captures: int       # native captures per camera, per synth round
    synth_stacks: int         # augmented stacks per synth round
    synth_illuminants: int    # illuminants per camera (make_benchmark: 64)
    synth_rounds: int         # rounds every run makes
    train_cameras: int        # the same three for train's set-up
    train_captures: int
    train_stacks: int
    train_epochs: int         # one epoch per step of the 16/32/64 schedule
    eval_cameras: int         # held-out cameras
    eval_images: int          # images per held-out camera
    eval_repeats: int
    eval_passes: int          # units every eval run makes
    infer_res: tuple
    infer_cameras: int        # call i draws its images from camera i mod this
    infer_calls: int          # infer calls whose errors make the accuracy
    setup_repeats: int        # fewest set-ups per run; setup_s is their median
    infer_trace_calls: int    # infer calls replayed under the tracer


FULL = Size(synth_cameras=3, synth_captures=20, synth_stacks=60,
            synth_illuminants=64, synth_rounds=4,
            train_cameras=8, train_captures=8, train_stacks=72,
            train_epochs=3, eval_cameras=40, eval_images=5, eval_repeats=2,
            eval_passes=2, infer_res=WORKING_RES, infer_cameras=24,
            infer_calls=24, setup_repeats=3, infer_trace_calls=8)
SMOKE = Size(synth_cameras=2, synth_captures=4, synth_stacks=8,
             synth_illuminants=16, synth_rounds=2,
             train_cameras=2, train_captures=4, train_stacks=12,
             train_epochs=1, eval_cameras=2, eval_images=4, eval_repeats=1,
             eval_passes=1, infer_res=(32, 48), infer_cameras=2,
             infer_calls=2, setup_repeats=1, infer_trace_calls=2)
SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass
class Unit:
    """What one unit of work did."""

    ops: int                  # operations attempted
    failed: int               # operations that failed
    busy_s: float             # time inside the package's calls
    latencies_ms: list        # one per timed operation, inf where it failed
    digest: str               # hash of every output, for replay checks
    errors: dict = field(default_factory=dict)  # estimator -> [degrees]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def check_estimate(ell):
    """A valid estimate is a finite, positive unit 3-vector."""
    ell = np.asarray(ell)
    if ell.shape != (3,) or not np.all(np.isfinite(ell)) or \
            not np.all(ell > 0) or abs(np.linalg.norm(ell) - 1.0) > 1e-9:
        raise BenchError(f"invalid illuminant estimate {ell!r}")


def train_config(seed: int, epochs: int) -> training.TrainConfig:
    """run_benchmark's training configuration, shortened to `epochs`."""
    return training.TrainConfig(epochs=epochs, lr=2e-3, lambda_f=1.5e-4,
                                lambda_b=2e-5, lambda_g=2e-5, seed=seed)


@dataclass
class SynthData:
    """Augmented training stacks and the images they were built from."""

    samples: list = field(default_factory=list)   # TrainingSample
    images: list = field(default_factory=list)    # re-rendered RawImage each
    bad_cameras: int = 0      # camera draws that failed
    empty_stacks: int = 0     # stacks lost to an empty histogram
    latencies_ms: list = field(default_factory=list)  # per attempted stack,
                                                      # inf where it failed

    @property
    def failed(self) -> int:
        return self.bad_cameras + self.empty_stacks


def make_camera(rng, name: str, data: SynthData, illuminants: int = 64):
    """make_synthetic_camera at make_benchmark's settings.  A draw that
    yields a non-positive illuminant raises NumericalError; it is counted
    in `data.bad_cameras` and the next camera is drawn from the same
    stream."""
    for _ in range(100):
        try:
            return sensor.make_synthetic_camera(
                rng, tint=TINT, perturbation=PERTURBATION,
                n_illuminants=illuminants, name=name)
        except NumericalError:
            data.bad_cameras += 1
    raise BenchError(f"100 camera draws for {name!r} failed")


def synthesize(rng, cmf, cameras: int, captures: int, stacks: int,
               illuminants: int = 64) -> SynthData:
    """make_benchmark's data path up to the training stacks.

    It draws from `rng` exactly as make_benchmark does, so with no failure
    it yields make_benchmark's training set.  Where make_benchmark would
    raise, the failure is counted in `failed` instead: a camera draw that
    fails is followed by the next draw (see make_camera), and a re-rendered
    image whose pixels all leave the log-chroma domain
    (EmptyHistogramError) loses its stack.
    """
    data = SynthData()
    cams = []
    for c in range(cameras + 1):
        name = f"cam{c}"
        cams.append((name, *make_camera(rng, name, data, illuminants)))
    train_cams = cams[:-1]   # the last camera is make_benchmark's held-out one

    sources = []
    for _, profile, metas in train_cams:
        for img, meta in synthbench.native_captures(metas, rng, captures,
                                                    synthbench.SCENE_SIZE):
            sources.append((img, meta, profile))
    targets = {name: sensor.AugmentTarget.build(profile, metas, cmf)
               for name, profile, metas in train_cams}
    src_temps = [sensor.estimate_cct(meta.illuminant, profile, cmf)[0]
                 for _, meta, profile in sources]
    order = sensor.stratified_selection(src_temps, stacks, rng)
    names = [name for name, _, _ in train_cams]

    for j, src in enumerate(order):
        img, meta, profile = sources[src]
        tgt = names[j % len(names)]
        t0 = perf_counter()
        out, ell = sensor.augment_image(img, meta, profile, targets[tgt], cmf,
                                        rng)
        try:
            stack = histograms.assemble_feature_stack(out, HIST).channel_first()
        except EmptyHistogramError:
            data.empty_stacks += 1
            data.latencies_ms.append(math.inf)   # a failure misses any limit
            continue
        data.latencies_ms.append((perf_counter() - t0) * 1e3)
        data.samples.append(training.TrainingSample(stack, ell, camera=tgt))
        data.images.append(out)
    return data


def histogram_estimate(stack) -> np.ndarray:
    """Illuminant read off a stack's pixel histogram: the soft-argmax of
    channel 0, a log-chroma gray world."""
    u, v = ccc.soft_argmax(stack[0], HIST)
    return ccc.uv_to_rgb(u, v)


def gray_world_errors(images, truths) -> list:
    return [training.angular_error(evaluation.gray_world(img), ell)
            for img, ell in zip(images, truths)]


@contextmanager
def hooked(module, name, before=None, after=None):
    """Temporarily route `module.name` through before(args) and
    after(args, result) hooks; whatever sits there (the plain function or
    a tracer's wrapper) is restored on exit."""
    inner = getattr(module, name)

    def hook(*args, **kwargs):
        if before is not None:
            before(args)
        out = inner(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    setattr(module, name, hook)
    try:
        yield
    finally:
        setattr(module, name, inner)


class Workload:
    """Base: subclasses set `name`, `op` and implement setup/unit."""

    name = ""
    op = ""                   # what one operation is
    min_units = 1             # units every run makes (accuracy comes from them)

    # units replayed under the tracer: a fixed amount of work, so the
    # per-layer counts repeat exactly
    trace_units = 1

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.setup_failed = 0   # synthesis failures in the last set-up

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def setup(self):
        raise NotImplementedError

    def setup_digest(self) -> str:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def accuracy(self, units) -> dict:
        """err_deg, gray_world_err_deg and any extras, from units that every
        run makes, so they repeat bit for bit at one seed."""
        raise NotImplementedError


class Synth(Workload):
    """Manufacture cameras, render captures, re-render them across the
    training cameras and build n=32 stacks.  One unit is one round of
    make_benchmark's data path; one operation is one augmented stack."""

    name = "synth"
    op = "augmented training stack"

    @property
    def min_units(self):
        return self.size.synth_rounds

    def setup(self):
        self.cmf = sensor.CMFTable.load()

    def setup_digest(self):
        return digest(self.cmf.wavelengths, self.cmf.xbar, self.cmf.ybar,
                      self.cmf.zbar)

    def warm_up(self):
        # a small round: two cameras, two captures each, four stacks
        synthesize(self.rng(WARM_STREAM), self.cmf, 2, 2, 4,
                   self.size.synth_illuminants)

    def unit(self, i):
        s = self.size
        t0 = perf_counter()
        data = synthesize(self.rng(i), self.cmf, s.synth_cameras,
                          s.synth_captures, s.synth_stacks, s.synth_illuminants)
        busy = perf_counter() - t0
        truths = [x.illuminant for x in data.samples]
        hist_err = [training.angular_error(histogram_estimate(x.stack), x.illuminant)
                    for x in data.samples]
        return Unit(ops=len(data.latencies_ms) + data.bad_cameras,
                    failed=data.failed,
                    busy_s=busy, latencies_ms=data.latencies_ms,
                    digest=digest(*[x.stack for x in data.samples], *truths),
                    errors={"err": hist_err,
                            "gray_world": gray_world_errors(data.images, truths)})

    def accuracy(self, units):
        first = units[:self.min_units]
        return {key: float(np.mean([e for u in first for e in u.errors[k]]))
                for key, k in (("err_deg", "err"),
                               ("gray_world_err_deg", "gray_world"))}


class Train(Workload):
    """training.train at the benchmark architecture on stacks synthesized
    at set-up.  One unit is one train() call with one epoch per batch size
    of the 16/32/64 schedule; one operation is one training sample, and an
    operation's latency is its step's time divided by the batch size."""

    name = "train"
    op = "training sample"

    def setup(self):
        s = self.size
        cmf = sensor.CMFTable.load()
        data = synthesize(self.rng(SETUP_STREAM), cmf, s.train_cameras,
                          s.train_captures, s.train_stacks, SETUP_ILLUMINANTS)
        self.samples = data.samples
        self.setup_failed = data.failed
        self.gray_world = gray_world_errors(
            data.images, [x.illuminant for x in data.samples])
        self.cfg = train_config(NET_SEED, s.train_epochs)

    def setup_digest(self):
        return digest(*[x.stack for x in self.samples])

    def warm_up(self):
        self.unit(0)

    def unit(self, i):
        steps = []   # (start, batch size) of each step, then its end

        def step_start(args):
            steps.append([perf_counter(), args[0].shape[0]])

        def step_end(args, out):
            steps[-1].append(perf_counter())

        with hooked(training, "build_loss", before=step_start), \
                hooked(training, "adam_step", after=step_end):
            t0 = perf_counter()
            res = training.train(self.samples, BENCH_ARCH, self.cfg, config=HIST)
            busy = perf_counter() - t0
        if res.diverged:
            raise BenchError(f"training diverged: {res.message}")
        if len(steps[-1]) != 3:
            raise BenchError("a training step did not reach the optimizer")
        val = [m.val_err_deg for m in res.metrics]
        w = res.best_weights.params
        return Unit(ops=sum(b for _, b, _ in steps), failed=0, busy_s=busy,
                    latencies_ms=[(end - start) * 1e3 / b
                                  for start, b, end in steps],
                    digest=digest(np.array(val), *[w[k] for k in sorted(w)]),
                    errors={"val": val,
                            "train": [m.train_err_deg for m in res.metrics]})

    def accuracy(self, units):
        # the best validation error rests on a handful of images and swings
        # by a third across seeds, so err_deg is the mean training error
        e = units[0].errors
        return {"err_deg": float(np.mean(e["train"])),
                "gray_world_err_deg": float(np.mean(self.gray_world)),
                "train_val_err_deg": float(np.min(e["val"]))}


class Eval(Workload):
    """evaluation.run_eval on held-out-camera images with fixed trained
    weights: the random policy, the none policy and gray world, as
    run_benchmark scores them.  One unit is those three runs; one operation
    is one query."""

    name = "eval"
    op = "evaluation query"

    @property
    def min_units(self):
        return self.size.eval_passes

    def setup(self):
        s = self.size
        cmf = sensor.CMFTable.load()
        data = synthesize(np.random.default_rng(NET_SEED), cmf,
                          WEIGHTS_CAMERAS, s.train_captures, s.train_stacks,
                          SETUP_ILLUMINANTS)
        res = training.train(data.samples, BENCH_ARCH,
                             train_config(NET_SEED, WEIGHTS_EPOCHS),
                             config=HIST)
        if res.diverged:
            raise BenchError(f"training the eval weights diverged: {res.message}")
        self.weights = res.best_weights
        rng = self.rng(SETUP_STREAM)
        self.samples = []
        for c in range(s.eval_cameras):
            name = f"held{c}"
            _, metas = make_camera(rng, name, data)
            for img, meta in synthbench.native_captures(
                    metas, rng, s.eval_images, synthbench.SCENE_SIZE):
                # run_eval raises on the whole set if one image has no
                # pixel inside the log-chroma domain: drop and count it
                try:
                    histograms.assemble_feature_stack(img, HIST)
                except EmptyHistogramError:
                    data.empty_stacks += 1
                    continue
                self.samples.append(
                    evaluation.EvalSample(img, meta.illuminant, camera=name))
        self.setup_failed = data.failed

    def setup_digest(self):
        w = self.weights.params
        return digest(*[w[k] for k in sorted(w)],
                      *[x.image.pixels for x in self.samples])

    def warm_up(self):
        self._run(self.samples[:10], 1)

    def _gray_world(self, image, extra):
        ell = evaluation.gray_world(image)
        check_estimate(ell)
        return ell

    def _run(self, samples, repeats):
        """(c5, single, gray world) reports, as run_benchmark makes them."""
        c5 = evaluation.run_eval(self.weights, samples, policy="random",
                                 repeats=repeats,
                                 rng=np.random.default_rng(self.seed),
                                 config=HIST)
        single = evaluation.run_eval(self.weights, samples, policy="none",
                                     repeats=repeats,
                                     rng=np.random.default_rng(self.seed),
                                     config=HIST)
        gray = evaluation.run_eval(self.weights, samples, policy="random",
                                   repeats=repeats,
                                   rng=np.random.default_rng(self.seed),
                                   estimator=self._gray_world)
        return c5, single, gray

    def unit(self, i):
        latencies = []
        start = []

        def query_start(args):
            start.append(perf_counter())

        def query_end(args, out):
            latencies.append((perf_counter() - start.pop()) * 1e3)
            check_estimate(out[0])

        with hooked(evaluation, "infer_from_stacks", before=query_start,
                    after=query_end):
            t0 = perf_counter()
            reports = self._run(self.samples, self.size.eval_repeats)
            busy = perf_counter() - t0
        table = np.array([[r.as_tuple() for r in rep.runs] for rep in reports])
        return Unit(ops=3 * len(self.samples) * self.size.eval_repeats,
                    failed=0, busy_s=busy, latencies_ms=latencies,
                    digest=digest(table),
                    errors={k: rep.mean.mean for k, rep in
                            zip(("c5", "single", "gray_world"), reports)})

    def accuracy(self, units):
        e = units[0].errors
        return {"err_deg": e["c5"], "gray_world_err_deg": e["gray_world"],
                "single_err_deg": e["single"]}


class Infer(Workload):
    """hypernet.c5_infer on raw images at the working resolution with the
    default architecture: one query plus 8 additional images from the same
    camera per call, all rendered fresh outside the timed call.  One unit is
    one call."""

    name = "infer"
    op = "c5_infer call"

    @property
    def min_units(self):
        return self.size.infer_calls

    @property
    def trace_units(self):
        return self.size.infer_trace_calls

    def setup(self):
        rng, cams = self.rng(SETUP_STREAM), SynthData()
        self.cameras = [make_camera(rng, f"infer{c}", cams)[1]
                        for c in range(self.size.infer_cameras)]
        self.setup_failed = cams.failed
        # no trained default-architecture model exists, so the weights are
        # a fixed-seed initialization
        self.weights = hypernet.init_weights(hypernet.ArchitectureConfig(),
                                             np.random.default_rng(NET_SEED))

    def setup_digest(self):
        w = self.weights.params
        return digest(*[w[k] for k in sorted(w)],
                      *[m.illuminant for metas in self.cameras for m in metas])

    def warm_up(self):
        for k in range(2):
            self._call(WARM_STREAM + 1 + k)

    def _call(self, stream):
        """One timed call on fresh images.  Returns (query, truth, c5_infer's
        result or None when it raised EmptyHistogramError, seconds)."""
        m = self.weights.arch.m
        metas = self.cameras[stream % len(self.cameras)]
        shots = synthbench.native_captures(metas, self.rng(stream), m,
                                           self.size.infer_res)
        query, truth = shots[0][0], shots[0][1].illuminant
        t0 = perf_counter()
        try:
            out = hypernet.c5_infer(query, [img for img, _ in shots[1:]],
                                    self.weights)
        except EmptyHistogramError:
            # an image with no pixel inside the log-chroma domain
            out = None
        dt = perf_counter() - t0
        if out is not None:
            check_estimate(out[0])
        return query, truth, out, dt

    def unit(self, i):
        query, truth, out, dt = self._call(i)
        if out is None:
            return Unit(ops=1, failed=1, busy_s=dt, latencies_ms=[math.inf],
                        digest="failed")
        ell, _, heat = out
        return Unit(ops=1, failed=0, busy_s=dt, latencies_ms=[dt * 1e3],
                    digest=digest(ell, heat),
                    errors={"err": [training.angular_error(ell, truth)],
                            "gray_world": gray_world_errors([query], [truth])})

    def accuracy(self, units):
        first = [u for u in units[:self.size.infer_calls] if u.errors]
        return {key: float(np.mean([u.errors[k][0] for u in first]))
                for key, k in (("err_deg", "err"),
                               ("gray_world_err_deg", "gray_world"))}


WORKLOADS = {w.name: w for w in (Synth, Train, Eval, Infer)}
