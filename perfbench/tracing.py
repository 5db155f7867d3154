"""Outside-in tracing of chromacc's layers.

The tracer wraps public functions of the package's modules for the length of
a phase.  Each wrapped call records a span: name, start, end, parent span and
the id of the operation (query or step) it belongs to.  Spans stay in memory
and are summarized, and optionally written out, at the end.

Autodiff ops get two spans: the forward call, and each VJP closure of the
node it returns, which the wrapper swaps for a timed one; backward() calls
those closures, so VJP time is attributed to its op from outside.

A wrapper only calls the function it replaces with the same arguments and
returns its result, so tracing changes no result bit.  Wrappers are removed
when the phase ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> public functions that get a span
SPANNED = {
    "sensor": ("make_synthetic_camera", "estimate_cct", "augment_image",
               "stratified_selection"),
    "histograms": ("assemble_feature_stack",),
    "hypernet": ("init_weights", "forward_maps", "infer_from_stacks",
                 "c5_infer"),
    "ccc": ("estimate_illuminant",),
    "training": ("train", "build_loss", "adam_step", "sample_batch"),
    "evaluation": ("run_eval", "gray_world"),
    "synthbench": ("render_scene", "native_captures"),
}
# called ~500 times per estimate_cct: counted, not spanned
COUNTED = {"sensor": ("temp_to_xyz",)}
AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "reshape", "concat_channels",
    "select_branch", "branch_max", "conv3x3", "leaky_relu", "batch_norm",
    "instance_norm", "max_pool2", "upsample2", "softmax2d", "expectation2d",
    "ccc_conv", "uv_to_rgb", "dot", "l2norm", "arccos", "sum_per_sample",
    "sum_all", "mean_all",
)
# the ops reported one by one; the rest are summed as autodiff.other
NAMED_OPS = ("conv3x3", "batch_norm", "instance_norm", "max_pool2",
             "upsample2", "leaky_relu", "concat_channels", "branch_max",
             "ccc_conv", "softmax2d")
# modules whose self time is reported; "bench" is the harness and any
# package code that runs outside every span, "trace" the tracer's own hooks
MODULES = ("sensor", "histograms", "autodiff", "hypernet", "ccc", "training",
           "evaluation", "synthbench", "bench", "trace")
# a call to one of these starts a new operation id
OP_BOUNDARIES = ("training.build_loss", "hypernet.infer_from_stacks",
                 "evaluation.gray_world")


def _conv_flops(x, w, pad):
    """Exact multiply-add count of one conv3x3 forward, times two; each of
    its VJPs (input and weight gradient) costs the same."""
    b, cin, h, wd = x.value.shape
    cout = w.value.shape[0]
    return 2 * b * cout * cin * 9 * (h + 2 * pad - 2) * (wd + 2 * pad - 2)


class Tracer:
    """Span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self._stack: list[int] = []
        self.op = 0
        # phase -> (first span, last span + 1, counts, distinct sets)
        self.phases: dict[str, tuple] = {}
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self._boundaries: set[int] = set()

    # ----- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            if name in OP_BOUNDARIES:
                self._boundaries.add(nid)
        return nid

    def _open(self, nid: int) -> int:
        if nid in self._boundaries:
            self.op += 1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name, fn, after=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # ----- phases -------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Trace everything inside: wrappers go in on entry, out on exit,
        and one root span bench.<name> covers the phase."""
        first = len(self.start)
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        undo = self._install()
        try:
            with self.span(f"bench.{name}"):
                yield
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)
            self.phases[name] = (first, len(self.start), self.counts,
                                 self.distinct)

    def _install(self):
        pkg = sys.modules["chromacc"]
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "chromacc" or k.startswith("chromacc."))]
        undo = []

        def replace(orig, wrapper):
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        hooks = {
            "sensor.estimate_cct": self._after_cct,
            "histograms.assemble_feature_stack": self._after_stack,
            "hypernet.forward_maps": self._after_forward,
        }
        for modname, fns in SPANNED.items():
            mod = getattr(pkg, modname)
            for fn in fns:
                name = f"{modname}.{fn}"
                replace(getattr(mod, fn),
                        self._spanned(name, getattr(mod, fn), hooks.get(name)))
        for modname, fns in COUNTED.items():
            mod = getattr(pkg, modname)
            for fn in fns:
                replace(getattr(mod, fn), self._counted(f"{modname}.{fn}",
                                                        getattr(mod, fn)))
        ad = pkg.autodiff
        for op in AUTODIFF_OPS:
            replace(getattr(ad, op), self._op(op, getattr(ad, op)))
        replace(ad.backward, self._spanned("autodiff.backward", ad.backward))

        target = pkg.sensor.AugmentTarget
        build = target.__dict__["build"]
        undo.append((target, "build", build))
        target.build = classmethod(self._spanned("sensor.AugmentTarget.build",
                                                 build.__func__))
        return undo

    # ----- per-layer counters -----------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _op(self, op, fn):
        fwd = self._id(f"autodiff.{op}")
        vjp = self._id(f"autodiff.{op}.vjp")
        conv = op == "conv3x3"

        def wrapper(*args, **kwargs):
            idx = self._open(fwd)
            try:
                node = fn(*args, **kwargs)
            finally:
                self._close(idx)
            flops = 0
            if conv:
                pad = kwargs.get("pad", args[2] if len(args) > 2 else 1)
                flops = _conv_flops(args[0], args[1], pad)
                self.counts["autodiff.conv3x3.flop"] += flops
            node.parents = tuple((p, self._timed_vjp(v, vjp, flops))
                                 for p, v in node.parents)
            return node

        return wrapper

    def _timed_vjp(self, fn, nid, flops):
        if fn is None:
            return None

        def vjp(g):
            idx = self._open(nid)
            try:
                return fn(g)
            finally:
                self._close(idx)
                if flops:
                    self.counts["autodiff.conv3x3.flop"] += flops

        return vjp

    def _after_cct(self, args, kwargs, out):
        ell, profile = args[0], args[1]
        self.distinct["sensor.estimate_cct"].add(
            (np.asarray(ell, dtype=np.float64).tobytes(), profile.c1.tobytes(),
             profile.c2.tobytes(), profile.q1, profile.q2))

    def _after_stack(self, args, kwargs, out):
        self.counts["histograms.pixels"] += args[0].height * args[0].width

    def _after_forward(self, args, kwargs, out):
        stacks = args[0]
        b, m = stacks.shape[:2]
        self.counts["hypernet.forward_maps.batch"] += b
        self.counts["hypernet.branch_encodes"] += b * m
        with self.span("trace.hook"):
            seen = self.distinct["hypernet.images"]
            for x in stacks.reshape(b * m, *stacks.shape[2:]):
                seen.add(hash(x[:2].tobytes()))

    # ----- summary ------------------------------------------------------------------

    def summary(self, phase: str) -> dict:
        """Per-name calls, total and self seconds, and durations, plus
        per-module self seconds, for the spans of one phase.  Self seconds
        of every span add up to the phase's wall time."""
        first, last, _, _ = self.phases[phase]
        start = np.array(self.start[first:last])
        dur = np.array(self.end[first:last]) - start
        parent = np.array(self.parent[first:last]) - first
        nid = np.array(self.name_id[first:last])
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_s = dur - child

        by_name = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            if sel.any():
                by_name[name] = {"calls": int(sel.sum()),
                                 "s": float(dur[sel].sum()),
                                 "self_s": float(self_s[sel].sum()),
                                 "durations": dur[sel]}
        modules = {m: 0.0 for m in MODULES}
        for name, rec in by_name.items():
            modules[name.split(".", 1)[0]] += rec["self_s"]

        # time in infer_from_stacks under a training.train span
        train_id = self._ids.get("training.train")
        infer_id = self._ids.get("hypernet.infer_from_stacks")
        validation = 0.0
        if train_id is not None and infer_id is not None:
            for i in np.flatnonzero(nid == infer_id):
                p = parent[i]
                while p >= 0 and nid[p] != train_id:
                    p = parent[p]
                if p >= 0:
                    validation += dur[i]
        return {"wall_s": float(dur[0]), "spans": len(dur), "names": by_name,
                "modules": modules, "validation_s": validation}

    def write(self, path, meta: dict):
        """Spans as columns, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = dict(meta, names=self.names,
                   phases={k: v[:2] for k, v in self.phases.items()},
                   columns=["name", "start_s", "end_s", "parent", "op"],
                   spans=[[n, round(s - t0, 7), round(e - t0, 7), p, o]
                          for n, s, e, p, o in zip(self.name_id, self.start,
                                                   self.end, self.parent,
                                                   self.op_id)])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the measure and setup
    phases of a traced run (a layer the workload does not reach reads 0)."""
    s = tracer.summary("measure")
    _, _, c, distinct = tracer.phases["measure"]
    names = s["names"]

    def rec(name):
        return names.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "durations": np.zeros(0)})

    out = {}
    cct = rec("sensor.estimate_cct")
    out["sensor.estimate_cct.calls"] = cct["calls"]
    out["sensor.estimate_cct.s"] = cct["s"]
    out["sensor.estimate_cct.distinct_frac"] = (
        len(distinct["sensor.estimate_cct"]) / cct["calls"]
        if cct["calls"] else 0.0)
    out["sensor.temp_to_xyz.calls"] = c["sensor.temp_to_xyz.calls"]
    out["sensor.augment_image.self_s"] = rec("sensor.augment_image")["self_s"]
    out["sensor.AugmentTarget.build.s"] = rec("sensor.AugmentTarget.build")["s"]

    st = rec("histograms.assemble_feature_stack")
    out["histograms.assemble_feature_stack.calls"] = st["calls"]
    out["histograms.assemble_feature_stack.s"] = st["s"]
    out["histograms.assemble_feature_stack.ms_p50"] = (
        float(np.median(st["durations"])) * 1e3 if st["calls"] else 0.0)
    out["histograms.mpixels_per_s"] = (
        c["histograms.pixels"] / st["s"] / 1e6 if st["s"] else 0.0)

    other_fwd = other_vjp = 0.0
    for op in AUTODIFF_OPS:
        fwd, vjp = rec(f"autodiff.{op}"), rec(f"autodiff.{op}.vjp")
        if op in NAMED_OPS:
            out[f"autodiff.{op}.calls"] = fwd["calls"]
            out[f"autodiff.{op}.fwd_s"] = fwd["s"]
            out[f"autodiff.{op}.vjp_s"] = vjp["s"]
        else:
            other_fwd += fwd["s"]
            other_vjp += vjp["s"]
    out["autodiff.other.fwd_s"] = other_fwd
    out["autodiff.other.vjp_s"] = other_vjp
    out["autodiff.backward.self_s"] = rec("autodiff.backward")["self_s"]
    gflop = c["autodiff.conv3x3.flop"] / 1e9
    conv_s = out["autodiff.conv3x3.fwd_s"] + out["autodiff.conv3x3.vjp_s"]
    out["autodiff.conv3x3.gflop"] = gflop
    out["autodiff.conv3x3.gflop_per_s"] = gflop / conv_s if conv_s else 0.0

    fm = rec("hypernet.forward_maps")
    out["hypernet.forward_maps.calls"] = fm["calls"]
    out["hypernet.forward_maps.s"] = fm["s"]
    out["hypernet.forward_maps.batch_mean"] = (
        c["hypernet.forward_maps.batch"] / fm["calls"] if fm["calls"] else 0.0)
    images = len(distinct["hypernet.images"])
    out["hypernet.branch_encodes_per_image"] = (
        c["hypernet.branch_encodes"] / images if images else 0.0)
    ifs = rec("hypernet.infer_from_stacks")
    out["hypernet.infer_from_stacks.calls"] = ifs["calls"]
    out["hypernet.infer_from_stacks.s"] = ifs["s"]

    ei = rec("ccc.estimate_illuminant")
    out["ccc.estimate_illuminant.calls"] = ei["calls"]
    out["ccc.estimate_illuminant.s"] = ei["s"]

    out["training.build_loss.s"] = rec("training.build_loss")["s"]
    out["training.adam_step.s"] = rec("training.adam_step")["s"]
    out["training.sample_batch.s"] = rec("training.sample_batch")["s"]
    out["training.validation_s"] = s["validation_s"]
    out["training.steps"] = rec("training.adam_step")["calls"]

    out["evaluation.run_eval.self_s"] = rec("evaluation.run_eval")["self_s"]
    out["evaluation.gray_world.s"] = rec("evaluation.gray_world")["s"]

    out["synthbench.render_scene.s"] = rec("synthbench.render_scene")["s"]
    out["synthbench.native_captures.s"] = rec("synthbench.native_captures")["s"]

    for m, v in s["modules"].items():
        out[f"{m}.self_s"] = v
    setup = tracer.summary("setup")
    for m, v in setup["modules"].items():
        out[f"setup.{m}.self_s"] = v
    out["trace.wall_s"] = s["wall_s"]
    out["trace.setup_wall_s"] = setup["wall_s"]
    out["trace.spans"] = s["spans"] + setup["spans"]
    out["trace.attributed_frac"] = 1.0 - (
        s["modules"]["bench"] + s["modules"]["trace"]) / s["wall_s"]
    return out
