"""Filter-generating hypernetwork.

A U-Net-style encoder ingests m feature stacks -- one query image plus m-1
additional images from the same camera -- and emits, through separate
decoders, the per-image localization parameters (bias map, two filters,
optionally a gain map) consumed by the CCC evaluator.  The additional images
carry no labels; they inform the network about the capture device.

All encoder branches share one weight set.  After each encoder block
(3x3 conv, leaky ReLU, batch norm, 2x2 max pool) the block output is
replaced by the elementwise max across branches, so branch order cannot
matter; the query branch's pre-pool activations feed the decoder skip
connections.  Since the first cross-branch max makes every branch identical,
deeper levels run once on the fused trunk -- algebraically the same network,
minus redundant work.  For the same reason level 1 runs once per distinct
branch image of a batch, however many branches it fills; in training its
batch-norm statistics weight each distinct image by that count, so they
stay the statistics over every branch.

Parameters live in float64 but are kept float32-representable at all times
(initialization and every optimizer step snap them), which lets the 32-bit
weight file round-trip inference bit-exactly.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import _snap32
from .ccc import CCCParams, _head_nodes
from .floatmap import DataError
from .histograms import (ChromaHistogram, EmptyHistogramError,
                         HistogramConfig, RawImage, _coordinate_planes,
                         _stack_array, assemble_feature_stack)

__all__ = [
    "ArchitectureConfig", "NetworkWeights", "init_weights", "param_count",
    "forward_maps", "c5_infer", "infer_from_stacks",
    "save_weights", "load_weights",
]

IN_CHANNELS = 4
DECODER_OUT = {"bias": 1, "filters": 2, "gain": 1}

MAGIC = b"CCWF"
FORMAT_VERSION = 1
# largest histogram size a weight file may claim: 16x the paper's 64, whose
# (4, n, n) float64 feature stack takes 32 MB
MAX_N = 1024


@dataclass(frozen=True)
class ArchitectureConfig:
    """Shape of the hypernetwork.

    m counts branches (1 query + up to m-1 additional); n is the histogram
    size and must be divisible by 2**depth so pooling stays even.
    """

    n: int = 64
    m: int = 9
    depth: int = 4
    base_channels: int = 8
    emit_gain: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        # n < 2**depth tested by bit length: 2**depth of a damaged weight
        # header's depth would be an enormous int
        if self.n < 1 or self.depth >= int(self.n).bit_length() \
                or self.n % 2 ** self.depth:
            raise ValueError(
                f"n={self.n} must be a positive multiple of 2^{self.depth}")

    @property
    def channels(self) -> tuple:
        return tuple(self.base_channels * 2 ** i for i in range(self.depth))

    @property
    def decoders(self) -> tuple:
        return ("bias", "filters", "gain") if self.emit_gain else ("bias", "filters")

    def decoder_plan(self):
        """Every decoder's levels (top-down): (level, in_channels,
        out_channels), then the linear head conv to DECODER_OUT[name]."""
        ch = self.channels
        plan = []
        prev = ch[-1]
        for lvl in range(self.depth, 0, -1):
            cout = ch[max(lvl - 2, 0)]
            plan.append((lvl, prev + ch[lvl - 1], cout))
            prev = cout
        return plan


@dataclass
class NetworkWeights:
    """Named parameter blocks plus per-encoder-level batch norm state."""

    arch: ArchitectureConfig
    params: dict = field(default_factory=dict)
    bn: dict = field(default_factory=dict)

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(
            self.arch,
            {k: v.copy() for k, v in self.params.items()},
            {k: ad.BatchNormState(s.mean.copy(), s.var.copy())
             for k, s in self.bn.items()},
        )


def param_count(weights: NetworkWeights) -> int:
    return int(sum(v.size for v in weights.params.values()))


def _param_shapes(arch: ArchitectureConfig) -> dict:
    """Name -> shape of every parameter block, in initialization order."""
    shapes = {}
    cin = IN_CHANNELS
    for lvl, c in enumerate(arch.channels, start=1):
        shapes[f"enc{lvl}.conv.w"] = (c, cin, 3, 3)
        shapes[f"enc{lvl}.bn.gamma"] = (c,)
        shapes[f"enc{lvl}.bn.beta"] = (c,)
        cin = c
    plan = arch.decoder_plan()
    for name in arch.decoders:
        for lvl, din, dout in plan:
            shapes[f"{name}.lvl{lvl}.conv.w"] = (dout, din, 3, 3)
            shapes[f"{name}.lvl{lvl}.in.gamma"] = (dout,)
            shapes[f"{name}.lvl{lvl}.in.beta"] = (dout,)
        shapes[f"{name}.head.w"] = (DECODER_OUT[name], dout, 3, 3)
    return shapes


def init_weights(arch: ArchitectureConfig, rng: np.random.Generator
                 ) -> NetworkWeights:
    """He fan-in initialization for convs, unit/zero affine for norms."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(arch).items():
        if name.endswith(".w"):
            std = np.sqrt(2.0 / (shape[1] * 9))
            params[name] = _snap32(rng.normal(0.0, std, shape))
        elif name.endswith(".gamma"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    bn = {f"enc{lvl}": ad.BatchNormState.fresh(c)
          for lvl, c in enumerate(arch.channels, start=1)}
    return NetworkWeights(arch, params, bn)


# ----- graph builders -----------------------------------------------------------

def forward_maps(stacks: np.ndarray, weights: NetworkWeights, training: bool,
                 param_nodes: dict = None):
    """Build the full network graph.

    stacks: (B, m, 4, n, n) float64, query first, 1 <= m <= arch.m.
    Returns (maps, param_nodes) where maps holds one Node per decoder: bias
    (B, 1, n, n), filters (B, 2, n, n), gain (B, 1, n, n) when emitted.
    Passing param_nodes reuses existing leaf Nodes so callers (optimizer,
    gradient checks) keep stable identities across rebuilt graphs;
    inference passes const leaves, and its graph then keeps no backward
    state.  Branches meet only in maxima, so at inference a repeated branch
    changes nothing; training's batch-norm statistics count each branch.

    Level 1 of the encoder runs once per distinct branch image of the batch
    (byte-equal rows share one run) and take_rows hands each branch its
    image's activations.  In training, level-1 batch norm counts each
    distinct image once per branch it fills, so its statistics are those of
    all B*m branches.
    """
    arch = weights.arch
    b, m = stacks.shape[:2]
    if not 1 <= m <= arch.m:
        raise ValueError(f"expected 1 to {arch.m} branches, got {m}")
    if stacks.shape[2:] != (IN_CHANNELS, arch.n, arch.n):
        raise ValueError(f"bad stack shape {stacks.shape}")
    pnodes = param_nodes if param_nodes is not None else \
        {k: ad.param(v) for k, v in weights.params.items()}
    rows = np.ascontiguousarray(stacks, dtype=np.float64) \
        .reshape(b * m, IN_CHANNELS, arch.n, arch.n)
    first, inv = _distinct_rows(rows)
    distinct = rows if len(first) == len(rows) else rows[first]

    skips, trunk = _encode_nodes(ad.const(distinct), inv, pnodes, weights,
                                 training, m)
    maps = {}
    for name in arch.decoders:
        maps[name] = _decode_nodes(skips, trunk, pnodes, arch, name)
    return maps, pnodes


def _distinct_rows(rows: np.ndarray):
    """(first, inv) for the rows of a C-contiguous float64 array:
    rows[first] are its byte-distinct rows in order of first occurrence, and
    rows[first[inv]] equals rows byte for byte.

    A row's key is the wrapping sum of its 64-bit words, which any one-word
    change alters; rows with equal keys are compared in full, so a key
    collision costs one comparison and never merges two different rows.
    """
    words = rows.reshape(len(rows), -1).view(np.uint64)
    slots: dict[int, list] = {}
    first: list[int] = []
    inv = np.empty(len(rows), dtype=np.intp)
    for i, key in enumerate(words.sum(axis=1).tolist()):
        same = slots.setdefault(key, [])
        for s in same:
            if np.array_equal(words[first[s]], words[i]):
                inv[i] = s
                break
        else:
            inv[i] = len(first)
            same.append(len(first))
            first.append(i)
    return np.array(first, dtype=np.intp), inv


def _encode_nodes(x, inv, pnodes, weights, training, m):
    """Encoder over the distinct level-1 rows x, where branch row k of the
    batch is x[inv[k]].  Returns the query's per-level pre-pool activations
    and the fused trunk bottleneck."""
    def block(z, lvl, counts=None):
        t = ad.leaky_relu(ad.conv3x3(z, pnodes[f"enc{lvl}.conv.w"]))
        return ad.batch_norm(t, pnodes[f"enc{lvl}.bn.gamma"],
                             pnodes[f"enc{lvl}.bn.beta"], training,
                             weights.bn[f"enc{lvl}"], counts)

    t = block(x, 1, np.bincount(inv, minlength=len(x.value)))
    skips = [ad.take_rows(t, inv[0::m])]
    z = ad.branch_max(ad.take_rows(ad.max_pool2(t), inv), m)
    for lvl in range(2, weights.arch.depth + 1):
        t = block(z, lvl)
        skips.append(t)
        z = ad.max_pool2(t)
    return skips, z


def _decode_nodes(skips, trunk, pnodes, arch, name):
    d = trunk
    for lvl, _, _ in arch.decoder_plan():
        d = ad.upsample2(d)
        d = ad.concat_channels([d, skips[lvl - 1]])
        d = ad.conv3x3(d, pnodes[f"{name}.lvl{lvl}.conv.w"])
        d = ad.leaky_relu(d)
        d = ad.instance_norm(d, pnodes[f"{name}.lvl{lvl}.in.gamma"],
                             pnodes[f"{name}.lvl{lvl}.in.beta"])
    return ad.conv3x3(d, pnodes[f"{name}.head.w"])  # linear output


# ----- prediction ---------------------------------------------------------------

def _check_grid(config: HistogramConfig, arch: ArchitectureConfig):
    """A config= of train, build_loss or run_eval must have size arch.n."""
    if config is not None and config.n != arch.n:
        raise ValueError(f"histogram size {config.n} does not match "
                         f"network input {arch.n}")


def _predict(stacks: np.ndarray, weights: NetworkWeights, training: bool,
             param_nodes: dict = None):
    """The prediction graph of training and inference: forward_maps, then
    the CCC head on each query's histograms, on the grid of size arch.n.
    Returns (maps, heat map (B, n, n), unit RGB (B, 3), param_nodes)."""
    arch = weights.arch
    maps, pnodes = forward_maps(stacks, weights, training, param_nodes)
    b, n = len(stacks), arch.n
    hists = ad.const(np.ascontiguousarray(stacks[:, 0, :2]))  # query N0, N1
    gain = ad.reshape(maps["gain"], (b, n, n)) if arch.emit_gain else None
    prob, ell = _head_nodes(hists, maps["filters"],
                            ad.reshape(maps["bias"], (b, n, n)), gain)
    return maps, prob, ell, pnodes


def infer_from_stacks(query_stack, additional_stacks, weights: NetworkWeights):
    """Run the full estimator on precomputed feature stacks, the query and
    up to m-1 additional ones, as given.

    Returns (unit illuminant RGB, CCCParams, heat map).
    """
    arch = weights.arch
    batch = np.stack([_stack_array(s, arch.n)
                      for s in (query_stack, *additional_stacks)])
    # constant leaves: no node of the graph keeps backward state
    leaves = {k: ad.const(v) for k, v in weights.params.items()}
    maps, prob, ell, _ = _predict(batch[None], weights, False, leaves)
    gain = maps["gain"].value[0, 0] if arch.emit_gain else None
    params = CCCParams(maps["bias"].value[0, 0], maps["filters"].value[0],
                       gain)
    return ell.value[0], params, prob.value[0]


def c5_infer(query: RawImage, additional, weights: NetworkWeights):
    """Estimate the illuminant of a query image given unlabeled additional
    images from the same camera.

    An additional image with no pixel inside the log-chroma domain is
    dropped.  The rest run as given, unrepeated (branches meet in maxima,
    so a repeat changes nothing); with none, the query runs alone.

    A query with no such pixel has no evidence: its two histogram channels
    are zero (the coordinate planes stay), so the heat map is softmax(B) of
    the bias map the network makes from the additional images, CCC's
    no-evidence posterior.  A UserWarning says so.
    """
    config = HistogramConfig(n=weights.arch.n)
    try:
        qs = assemble_feature_stack(query, config)
    except EmptyHistogramError:
        warnings.warn("the query has no pixel inside the log-chroma domain; "
                      "the estimate is the network's prior", stacklevel=2)
        qs = ChromaHistogram(_coordinate_planes(config))
    extra = []
    for img in additional:
        try:
            extra.append(assemble_feature_stack(img, config))
        except EmptyHistogramError:
            continue
    return infer_from_stacks(qs, extra, weights)


# ----- serialization ------------------------------------------------------------

def save_weights(weights: NetworkWeights, path):
    """Versioned binary weight file: header (magic, version, architecture),
    then named float32 little-endian blocks with shape prefixes."""
    arch = weights.arch
    blocks = [(0, k, v) for k, v in weights.params.items()]
    for k, s in weights.bn.items():
        blocks.append((1, f"{k}.mean", s.mean))
        blocks.append((1, f"{k}.var", s.var))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIII?3x", FORMAT_VERSION, arch.n, arch.m,
                             arch.depth, arch.base_channels, arch.emit_gain))
        fh.write(struct.pack("<I", len(blocks)))
        for kind, name, arr in blocks:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<BH", kind, len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def load_weights(path) -> NetworkWeights:
    """Read a file written by save_weights.  Any malformed content -- bad
    magic or version, a histogram size over MAX_N, a cut-off header or
    block, an unknown block kind, a block with more axes than numpy allows
    or more bytes than are left, trailing bytes, a missing or misshapen
    block, a non-finite value, a negative batch-norm variance -- raises
    DataError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise DataError(f"not a weight file: bad magic {raw[:4]!r}")
    off = 4

    def take(fmt):
        nonlocal off
        end = off + struct.calcsize(fmt)
        if end > len(raw):
            raise DataError(f"weight file truncated at byte {len(raw)}")
        vals = struct.unpack_from(fmt, raw, off)
        off = end
        return vals

    version, n, m, depth, base, gain = take("<IIIII?3x")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported weight file version {version}")
    if n > MAX_N:
        raise DataError(f"histogram size {n} is over the limit of {MAX_N}")
    try:
        arch = ArchitectureConfig(n=n, m=m, depth=depth, base_channels=base,
                                  emit_gain=gain)
    except ValueError as exc:
        raise DataError(f"bad architecture header: {exc}") from None
    (count,) = take("<I")
    params: dict[str, np.ndarray] = {}
    stats: dict[str, np.ndarray] = {}
    for _ in range(count):
        kind, nlen = take("<BH")
        if kind not in (0, 1):
            raise DataError(f"unknown weight block kind {kind}")
        try:
            name = take(f"<{nlen}s")[0].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError("weight block name is not UTF-8") from None
        (ndim,) = take("<B")
        if ndim > 64:  # numpy's limit on array axes
            raise DataError(f"weight block {name} has {ndim} axes")
        shape = take(f"<{ndim}I")
        nbytes = 4 * math.prod(shape)
        if nbytes > len(raw) - off:
            raise DataError(f"weight block {name} needs {nbytes} bytes, "
                            f"{len(raw) - off} are left")
        arr = np.frombuffer(raw, dtype="<f4", count=nbytes // 4, offset=off) \
            .astype(np.float64).reshape(shape)
        off += nbytes
        if not np.isfinite(arr).all():
            raise DataError(f"weight block {name} holds a non-finite value")
        (params if kind == 0 else stats)[name] = arr
    if off != len(raw):
        raise DataError(f"{len(raw) - off} trailing bytes after the last "
                        f"weight block")
    bn = {}
    for lvl in range(1, depth + 1):
        key = f"enc{lvl}"
        if f"{key}.mean" not in stats or f"{key}.var" not in stats:
            raise DataError(f"weight file is missing the {key} statistics")
        if (stats[f"{key}.var"] < 0).any():
            raise DataError(f"weight file holds a negative {key} variance")
        bn[key] = ad.BatchNormState(stats[f"{key}.mean"], stats[f"{key}.var"])
    w = NetworkWeights(arch, params, bn)
    _check_complete(w)
    return w


def _check_complete(weights: NetworkWeights):
    """Every block the architecture needs, with its shape.  Shapes are
    compared without building reference weights, whose size a damaged
    header sets."""
    ref = _param_shapes(weights.arch)
    missing = set(ref) - set(weights.params)
    extra = set(weights.params) - set(ref)
    if missing or extra:
        raise DataError(f"weight blocks mismatch: missing {sorted(missing)}, "
                        f"unexpected {sorted(extra)}")
    for k, shape in ref.items():
        if weights.params[k].shape != shape:
            raise DataError(f"block {k} has shape {weights.params[k].shape}, "
                            f"expected {shape}")
    for lvl, c in enumerate(weights.arch.channels, start=1):
        got = weights.bn[f"enc{lvl}"]
        if got.mean.shape != (c,) or got.var.shape != (c,):
            raise DataError(f"statistics enc{lvl} have shapes "
                            f"{got.mean.shape} and {got.var.shape}, "
                            f"expected {(c,)}")
