"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64.  A Node wraps one array value; ops build new Nodes
and register, per parent, a vector-Jacobian closure mapping the upstream
gradient to that parent's gradient contribution.  The tape is kept apart
from the values: a node's gradient and closures sit in a small tape entry,
and a child points to its parents' entries, not to their Nodes, so an
activation that no closure captured is freed as soon as the graph builder
drops its Node.  backward() walks the entries in reverse topological order
and releases each interior entry's gradient and closures as soon as they
have been used, so a graph is walked backward once and a training step
holds only what the rest of its walk reads.  A graph built on const leaves
alone (the inference path) keeps no closures: a Node that no gradient
reaches gets no entry, and ops skip the work only their VJP needs.  Graph
construction is deterministic: the same inputs produce bit-identical
values and gradients.

The op set is exactly what the filter-generating network and its training
loss require; this is not a general-purpose autodiff.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Node", "MissingGradientError", "NumericalError", "backward", "const",
    "param",
    "add", "sub", "mul", "scale", "reshape", "concat_channels",
    "select_branch", "take_rows", "branch_max", "conv3x3", "leaky_relu",
    "BatchNormState", "batch_norm", "instance_norm", "max_pool2",
    "upsample2", "softmax2d", "expectation2d", "ccc_conv", "uv_to_rgb",
    "dot", "l2norm", "arccos", "sum_per_sample", "sum_all", "mean_all",
    "GradCheckReport", "grad_check",
]

ARCCOS_CLAMP = 1.0 - 1e-7
LEAKY_SLOPE = 0.2   # leaky_relu's gradient below zero


class NumericalError(RuntimeError):
    """A numeric procedure failed: non-finite values, exhausted rejection
    sampling, or gradients that disagree with finite differences."""


class MissingGradientError(RuntimeError):
    """Backward reached a differentiable path with no registered gradient."""


class _Tape:
    """The tape entry of a node a gradient reaches: its gradient and its
    parents, a tuple of (parent entry, vjp) pairs where vjp(g) returns the
    gradient contribution to that parent given this node's gradient g.  It
    holds no value, so a child that points to it keeps its parent's array
    alive only if one of its VJPs captured the array."""

    __slots__ = ("grad", "parents")
    needs_grad = True

    def __init__(self, parents):
        self.grad = None
        self.parents = parents


def _entry(node):
    """What a child keeps of parent node: the tape entry of a node built by
    an op, and anything else (a leaf, a value no gradient reaches, an
    entry) itself."""
    tape = getattr(node, "tape", None)
    return tape if tape is not None and tape.parents else node


class Node:
    """One value and its tape entry.

    grad, parents and needs_grad are the entry's.  A node that no gradient
    reaches has no entry (tape is None) and keeps no parents, so the
    closures and the arrays they capture are freed once the value exists.
    Children point to an interior node's entry rather than to the node, so
    its value is freed once the graph builder drops the node, unless a VJP
    captured it; a leaf is its own entry.
    """

    __slots__ = ("value", "tape")

    def __init__(self, value, parents=(), needs_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        parents = tuple(parents)
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p, _ in parents)
        self.tape = _Tape(tuple((_entry(p), vjp) for p, vjp in parents)) \
            if needs_grad else None

    @property
    def needs_grad(self):
        return self.tape is not None

    @property
    def grad(self):
        return None if self.tape is None else self.tape.grad

    @grad.setter
    def grad(self, g):
        if self.tape is not None:
            self.tape.grad = g
        elif g is not None:
            raise ValueError("a node no gradient reaches takes no gradient")

    @property
    def parents(self):
        return () if self.tape is None else self.tape.parents

    @parents.setter
    def parents(self, pairs):
        pairs = tuple((_entry(p), vjp) for p, vjp in pairs)
        if self.tape is not None:
            self.tape.parents = pairs
        elif pairs:
            raise ValueError("a node no gradient reaches keeps no parents")

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad = None


def const(value) -> Node:
    """Leaf that never receives a gradient (inputs, targets, fixed planes)."""
    return Node(value, needs_grad=False)


def param(value) -> Node:
    """Leaf whose gradient is wanted (weights)."""
    return Node(value, needs_grad=True)


def backward(root: Node):
    """Accumulate droot/dleaf into .grad for every upstream needs_grad leaf.

    The walk runs over tape entries.  Each interior entry drops its grad
    and parents once its VJPs have run, so a second backward on the same
    root adds nothing."""
    if root.value.size != 1:
        raise ValueError(f"backward needs a scalar root, got shape {root.shape}")
    if root.tape is None:
        return  # no gradient reaches anything upstream
    topo: list = []
    state: dict[int, int] = {}  # id -> 0 discovered, 1 finished
    stack = [root.tape]
    while stack:
        node = stack[-1]
        s = state.get(id(node))
        if s is None:
            state[id(node)] = 0
            for parent, _ in node.parents:
                if parent.needs_grad and id(parent) not in state:
                    stack.append(parent)
        elif s == 0:
            state[id(node)] = 1
            topo.append(node)
            stack.pop()
        else:
            stack.pop()

    root.tape.grad = np.ones_like(root.value)
    while topo:
        node = topo.pop()
        if not node.parents:
            continue  # a leaf keeps its gradient
        g = node.grad
        for parent, vjp in node.parents:
            if not parent.needs_grad:
                continue
            if vjp is None:
                raise MissingGradientError(
                    "node on a differentiable path has no registered gradient")
            contrib = vjp(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib
        node.grad, node.parents = None, ()


# ----- elementwise and shape ops ---------------------------------------------

def add(a: Node, b: Node) -> Node:
    _same_shape(a, b)
    return Node(a.value + b.value, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Node, b: Node) -> Node:
    _same_shape(a, b)
    return Node(a.value - b.value, [(a, lambda g: g), (b, lambda g: -g)])


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b)
    av, bv = a.value, b.value
    return Node(av * bv, [(a, lambda g: g * bv), (b, lambda g: g * av)])


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value * c, [(a, lambda g: g * c)])


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return Node(a.value.reshape(shape), [(a, lambda g: g.reshape(old))])


def concat_channels(nodes) -> Node:
    """Concatenate along axis 1 (the channel axis of (B, C, H, W))."""
    nodes = list(nodes)
    value = np.concatenate([nd.value for nd in nodes], axis=1)
    if not any(nd.needs_grad for nd in nodes):
        return Node(value)
    offsets = np.cumsum([0] + [nd.value.shape[1] for nd in nodes])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[:, lo:hi]

    return Node(value, [(nd, make_vjp(i)) for i, nd in enumerate(nodes)])


def select_branch(a: Node, m: int, index: int = 0) -> Node:
    """From branch-major (B*m, ...) pick one branch: rows index, index+m, ..."""
    bm = a.value.shape[0]
    if bm % m:
        raise ValueError(f"leading axis {bm} not divisible by m={m}")
    return take_rows(a, np.arange(index, bm, m))


def take_rows(a: Node, idx) -> Node:
    """Rows a[idx] of (R, ...) for an array idx of row numbers in [0, R); a
    row may be taken any number of times, or not at all.

    The VJP sums the gradients of a repeated row in a fixed order: idx is
    argsorted stably once, and np.add.reduceat sums each run of equal
    indices in the order the rows were taken.  Rows taken at an even
    forward stride (all rows, or one branch of each group) are a view, not
    a copy.
    """
    idx = np.asarray(idx, dtype=np.intp)
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if len(idx) and step > 0 and (np.diff(idx) == step).all():
        value = a.value[idx[0]:idx[-1] + 1:step]
    else:
        value = a.value[idx]
    if not a.needs_grad:
        return Node(value)
    order = np.argsort(idx, kind="stable")
    ranked = idx[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    rows = ranked[starts]
    shape = a.value.shape  # the VJP keeps the shape, not the array

    def vjp(g):
        out = np.zeros(shape)
        out[rows] = np.add.reduceat(g[order], starts, axis=0)
        return out

    return Node(value, [(a, vjp)])


def branch_max(a: Node, m: int) -> Node:
    """Elementwise max across each group of m consecutive rows of (B*m, ...).

    Ties route the gradient to the first branch in the group.
    """
    bm = a.value.shape[0]
    if bm % m:
        raise ValueError(f"leading axis {bm} not divisible by m={m}")
    grouped = a.value.reshape(bm // m, m, *a.value.shape[1:])
    value = grouped.max(axis=1)
    if not a.needs_grad:
        return Node(value)
    idx = grouped.argmax(axis=1)  # first max in branch order
    shape = grouped.shape  # grouped is a view: keeping it keeps a.value

    def vjp(g):
        out = np.zeros(shape)
        np.put_along_axis(out, idx[:, None], g[:, None], axis=1)
        return out.reshape(bm, *shape[2:])

    return Node(value, [(a, vjp)])


def leaky_relu(a: Node) -> Node:
    av = a.value
    pos = av > 0
    value = np.where(pos, av, av * LEAKY_SLOPE)  # av * 1.0 == av exactly
    if not a.needs_grad:
        return Node(value)
    # keeps the boolean mask, an eighth of a float multiplier; g * 1.0 == g
    return Node(value, [(a, lambda g: np.where(pos, g, g * LEAKY_SLOPE))])


# ----- convolution ------------------------------------------------------------

# Upper bound on one chunk's patch matrix.  A matrix is written once, read
# once by one GEMM and dropped, so a chunk that stays in one core's 2 MB L2
# need never go out to memory.  Against 8 MB chunks, on a 2-CPU Xeon VM,
# training ran 21% faster and peaked 14 MB lower; B=1 eval, whose level-1
# conv splits into up to three chunks, read 4-10% slower at two seeds,
# inside its run-to-run spread.  2 MB chunks ran as fast as 1 MB and peaked 4.6 MB
# higher in training.  A whole batch's matrix at once is no faster and
# raises peak memory by a third.
_COLS_BYTES = 1 << 20

_cols = threading.local()   # each thread's reused patch-matrix buffer


def _corr(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid 3x3 cross-correlation of xp (B, Cin, H, W) with w (Cout, Cin,
    3, 3) as one GEMM per batch chunk, w.reshape(Cout, Cin*9) @ cols."""
    b, _, h, wd = xp.shape
    cout = w.shape[0]
    wm = w.reshape(cout, -1)
    out = np.empty((b, cout, h - 2, wd - 2))
    for lo, hi, cols in _patches(xp):
        out[lo:hi] = (wm @ cols).reshape(cout, hi - lo, h - 2, wd - 2) \
            .transpose(1, 0, 2, 3)
    return out


def _patches(xp: np.ndarray):
    """Yield (lo, hi, cols) over chunks xp[lo:hi] of the batch: cols is the
    (Cin*9, Bc*Ho*Wo) patch matrix, rows ordered (channel, dy, dx) to match
    w.reshape(Cout, Cin*9), and within _COLS_BYTES unless one sample alone
    exceeds it.

    A chunk within _COLS_BYTES is copied into the calling thread's buffer,
    which is kept across chunks, convs and training steps, so no fresh
    memory is faulted in for it: cols is valid only until the next chunk is
    drawn.  The buffer grows to the largest chunk asked for and never past
    _COLS_BYTES; a larger sample gets an array of its own, so no call
    leaves a large buffer behind.

    Each chunk's (Cin, 3, 3, Bc, Ho, Wo) window view is made directly from
    xp's strides: sliding_window_view costs ~20 us a call, an ndarray view
    ~2 us, and a B=1 forward pass makes one per conv.
    """
    b, cin, h, wd = xp.shape
    xp = np.ascontiguousarray(xp)  # the view below reads xp's buffer
    sb, sc, sh, sw = xp.strides
    step = max(1, _COLS_BYTES // (cin * 9 * (h - 2) * (wd - 2) * 8))
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        win = np.ndarray((cin, 3, 3, hi - lo, h - 2, wd - 2), np.float64, xp,
                         lo * sb, (sc, sh, sw, sb, sh, sw))
        if win.nbytes > _COLS_BYTES:
            yield lo, hi, win.reshape(cin * 9, -1)
            continue
        buf = getattr(_cols, "buf", None)
        if buf is None or buf.size < win.size:
            buf = _cols.buf = np.empty(win.size)
        cols = buf[:win.size].reshape(win.shape)
        np.copyto(cols, win)
        yield lo, hi, cols.reshape(cin * 9, -1)


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two spatial axes of (B, C, H, W) by p on every side.
    np.pad costs ~50 us more per call, a quarter of a B=1 conv."""
    if not p:
        return a
    out = np.zeros(a.shape[:2] + (a.shape[2] + 2 * p, a.shape[3] + 2 * p))
    out[:, :, p:-p, p:-p] = a
    return out


def conv3x3(x: Node, w: Node, pad: int = 1) -> Node:
    """3x3 cross-correlation, stride 1: x (B, Cin, H, W), w (Cout, Cin, 3, 3).

    pad=1 keeps the spatial size (zero padding); pad=0 is the valid
    convolution used for smoothness penalties.

    Each path is an im2col GEMM over chunks of the batch (see _corr): the
    forward correlates the padded input with w; the input gradient
    correlates the upstream gradient, padded by 2 - pad, with w flipped in
    space and transposed in channels; the weight gradient sums
    g_chunk (Cout, Bc*Ho*Wo) @ cols_chunk^T over chunks, padding x again
    and rebuilding each chunk's patch matrix rather than keeping either from
    the forward pass.  Every path draws its patch matrices from _patches,
    which reuses one buffer per thread, and finishes each chunk's GEMM
    before drawing the next, so threads may run convs at the same time.
    """
    xv, wv = x.value, w.value
    if xv.ndim != 4 or wv.ndim != 4 or wv.shape[2:] != (3, 3):
        raise ValueError(f"bad conv shapes {xv.shape}, {wv.shape}")
    if xv.shape[1] != wv.shape[1]:
        raise ValueError(f"channel mismatch {xv.shape[1]} vs {wv.shape[1]}")
    if pad not in (0, 1):
        raise ValueError("pad must be 0 or 1")
    if min(xv.shape[2:]) + 2 * pad < 3:
        raise ValueError("input too small for 3x3 valid convolution")
    value = _corr(_pad(xv, pad), wv)

    def vjp_x(g):
        flipped = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _corr(_pad(g, 2 - pad), flipped)

    def vjp_w(g):
        cout = wv.shape[0]
        gw = np.zeros((cout, wv.shape[1] * 9))
        for lo, hi, cols in _patches(_pad(xv, pad)):
            gw += g[lo:hi].transpose(1, 0, 2, 3).reshape(cout, -1) @ cols.T
        return gw.reshape(wv.shape)

    return Node(value, [(x, vjp_x), (w, vjp_w)])


# ----- normalization ----------------------------------------------------------

BN_EPS = 1e-8
BN_MOMENTUM = 0.9   # weight of the old running statistics per update


def _snap32(x: np.ndarray) -> np.ndarray:
    """Round to float32-representable values (kept in float64 storage)."""
    return x.astype(np.float32).astype(np.float64)


@dataclass
class BatchNormState:
    """Running statistics for inference, one entry per channel.

    Updated with momentum BN_MOMENTUM during training forwards; values are
    kept float32-representable so weight files round-trip bit-exactly.
    """

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormState":
        return cls(np.zeros(channels), np.ones(channels))

    def update(self, mu: np.ndarray, var: np.ndarray):
        m = BN_MOMENTUM
        self.mean = _snap32(m * self.mean + (1.0 - m) * mu)
        self.var = _snap32(m * self.var + (1.0 - m) * var)


def batch_norm(x: Node, gamma: Node, beta: Node, training: bool,
               state: BatchNormState = None, counts=None) -> Node:
    """Per-channel normalization of (B, C, H, W) over batch and space.

    Training uses batch statistics (and pushes them into state when given);
    inference normalizes with the running averages.

    counts (B,) makes row b stand for counts[b] identical rows of the batch
    the statistics are taken over; None counts every row once.  With
    take_rows(y, idx) downstream and counts = bincount(idx), value, state
    and gradients are those of batch_norm over x.value[idx], up to the order
    of the sums.  Only training reads counts: inference treats each row
    alone.
    """
    xv = x.value
    axes = (0, 2, 3)
    gm = gamma.value[None, :, None, None]
    if training:
        c = np.ones(xv.shape[0]) if counts is None else \
            np.asarray(counts, dtype=np.float64)
        total = c.sum() * xv.shape[2] * xv.shape[3]

        def mean(a, weights=c):  # over batch and space, per channel
            return (weights @ a.sum(axis=(2, 3)) / total)[None, :, None, None]

        mu = mean(xv)
        centered = xv - mu
        var = mean(centered * centered)
        if state is not None:
            state.update(mu[0, :, 0, 0], var[0, :, 0, 0])
        sigma = np.sqrt(var + BN_EPS)
        xhat = centered / sigma
        value = gm * xhat + beta.value[None, :, None, None]
        ones, cw = np.ones_like(c), c[:, None, None, None]

        # g[b] already sums the gradients of row b's copies, so the means
        # weight it once; each copy subtracts them once
        def vjp_x(g):
            dxhat = g * gm
            return (dxhat - cw * (mean(dxhat, ones)
                                  + xhat * mean(dxhat * xhat, ones))) / sigma
    else:
        if state is None:
            raise ValueError("inference batch_norm needs running statistics")
        sigma = np.sqrt(state.var + BN_EPS)
        xhat = (xv - state.mean[None, :, None, None]) / sigma[None, :, None, None]
        value = gm * xhat + beta.value[None, :, None, None]

        def vjp_x(g):
            return g * gm / sigma[None, :, None, None]

    def vjp_gamma(g):
        return (g * xhat).sum(axis=axes)

    def vjp_beta(g):
        return g.sum(axis=axes)

    return Node(value, [(x, vjp_x), (gamma, vjp_gamma), (beta, vjp_beta)])


def instance_norm(x: Node, gamma: Node, beta: Node) -> Node:
    """Per-sample per-channel normalization of (B, C, H, W) over space."""
    xv = x.value
    axes = (2, 3)
    mu = xv.mean(axis=axes, keepdims=True)
    centered = xv - mu
    # np.var's arithmetic (square, sum, divide by the count) on the one
    # centered copy
    var = np.square(centered).sum(axis=axes, keepdims=True) \
        / (xv.shape[2] * xv.shape[3])
    sigma = np.sqrt(var + BN_EPS)
    xhat = centered / sigma
    gm = gamma.value[None, :, None, None]
    value = gm * xhat + beta.value[None, :, None, None]

    def vjp_x(g):
        dxhat = g * gm
        mean_d = dxhat.mean(axis=axes, keepdims=True)
        mean_dx = (dxhat * xhat).mean(axis=axes, keepdims=True)
        return (dxhat - mean_d - xhat * mean_dx) / sigma

    return Node(value, [
        (x, vjp_x),
        (gamma, lambda g: (g * xhat).sum(axis=(0, 2, 3))),
        (beta, lambda g: g.sum(axis=(0, 2, 3))),
    ])


# ----- resampling -------------------------------------------------------------

_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major window order


def max_pool2(x: Node) -> Node:
    """2x2 max pooling, stride 2; ties pick the first entry in row-major
    window order (so the gradient routing is deterministic).

    The four window entries are read as strided quadrants of x, and a later
    entry replaces the running maximum only when strictly greater (or NaN
    over a number), so the first maximum and the first NaN win, as with
    argmax: -0.0 before +0.0 stays -0.0, where np.maximum's SIMD loop
    gives +0.0.
    """
    xv = x.value
    b, c, h, w = xv.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even, got {h}x{w}")
    value = xv[:, :, 0::2, 0::2]
    idx = np.zeros(value.shape, dtype=np.int8) if x.needs_grad else None
    nan = np.isnan(xv).any()  # the NaN rule costs 3 passes; skip it if none
    for k, (i, j) in enumerate(_QUADRANTS[1:], start=1):
        q = xv[:, :, i::2, j::2]
        take = q > value
        if nan:
            take |= np.isnan(q) & ~np.isnan(value)
        value = np.where(take, q, value)
        if idx is not None:
            idx[take] = k
    if idx is None:
        return Node(value)

    def vjp(g):
        out = np.zeros((b, c, h, w))
        for k, (i, j) in enumerate(_QUADRANTS):
            out[:, :, i::2, j::2] = np.where(idx == k, g, 0.0)
        return out

    return Node(value, [(x, vjp)])


_UPSAMPLE_MATS: dict[int, np.ndarray] = {}


def _upsample_matrix(size: int) -> np.ndarray:
    """Dense (2s, s) bilinear interpolation matrix, half-pixel centers,
    clamped edges.  Rows sum to 1, so constants stay constant."""
    mat = _UPSAMPLE_MATS.get(size)
    if mat is None:
        mat = np.zeros((2 * size, size))
        for i in range(2 * size):
            s = (i + 0.5) / 2.0 - 0.5
            i0 = int(np.floor(s))
            f = s - i0
            mat[i, min(max(i0, 0), size - 1)] += 1.0 - f
            mat[i, min(max(i0 + 1, 0), size - 1)] += f
        _UPSAMPLE_MATS[size] = mat
    return mat


def upsample2(x: Node) -> Node:
    """2x bilinear upsampling of (B, C, H, W)."""
    b, c, h, w = x.value.shape
    ah = _upsample_matrix(h)
    aw = _upsample_matrix(w)
    value = np.matmul(np.matmul(ah, x.value), aw.T)

    def vjp(g):
        return np.matmul(np.matmul(ah.T, g), aw)

    return Node(value, [(x, vjp)])


# ----- heat-map head ----------------------------------------------------------

def softmax2d(x: Node) -> Node:
    """Max-subtracted softmax over the trailing two axes."""
    z = x.value - x.value.max(axis=(-2, -1), keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=(-2, -1), keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=(-2, -1), keepdims=True)
        return p * (g - inner)

    return Node(p, [(x, vjp)])


def expectation2d(p: Node, plane: np.ndarray) -> Node:
    """Weighted coordinate expectation sum_ij p[..., i, j] * plane[i, j]."""
    plane = np.asarray(plane, dtype=np.float64)
    value = (p.value * plane).sum(axis=(-2, -1))
    return Node(value, [(p, lambda g: g[..., None, None] * plane)])


def ccc_conv(h: Node, f: Node) -> Node:
    """Per-sample localization convolution.

    h, f: (B, C, n, n).  Returns (B, n, n): the channel-summed same-size
    linear convolution of each histogram with its own filter, kernel anchored
    at (n//2, n//2).  FFT-based; matches ccc.convolve2d.
    """
    hv, fv = h.value, f.value
    if hv.shape != fv.shape or hv.ndim != 4 or hv.shape[-1] != hv.shape[-2]:
        raise ValueError(f"bad ccc_conv shapes {hv.shape}, {fv.shape}")
    n = hv.shape[-1]
    c = n // 2
    s = 2 * n
    fh = np.fft.rfft2(hv, s=(s, s))
    ff = np.fft.rfft2(fv, s=(s, s))
    full = np.fft.irfft2(fh * ff, s=(s, s))
    value = full[..., c:c + n, c:c + n].sum(axis=1)

    def pad_g(g):
        gp = np.zeros((g.shape[0], s, s))
        gp[:, c:c + n, c:c + n] = g
        return np.fft.rfft2(gp)[:, None]  # broadcast over channels

    def vjp_h(g):
        return np.fft.irfft2(pad_g(g) * np.conj(ff), s=(s, s))[..., :n, :n]

    def vjp_f(g):
        return np.fft.irfft2(pad_g(g) * np.conj(fh), s=(s, s))[..., :n, :n]

    return Node(value, [(h, vjp_h), (f, vjp_f)])


def uv_to_rgb(u: Node, v: Node) -> Node:
    """(..., ) log-chroma pair to (..., 3) unit RGB, ell = (e^-u, 1, e^-v)/z."""
    a = np.exp(-u.value)
    b = np.exp(-v.value)
    z = np.sqrt(a * a + b * b + 1.0)
    lr, lg, lb = a / z, 1.0 / z, b / z
    value = np.stack([lr, lg, lb], axis=-1)

    def vjp_u(g):
        return (g[..., 0] * (lr**3 - lr) + g[..., 1] * lr**2 * lg
                + g[..., 2] * lr**2 * lb)

    def vjp_v(g):
        return (g[..., 0] * lb**2 * lr + g[..., 1] * lb**2 * lg
                + g[..., 2] * (lb**3 - lb))

    return Node(value, [(u, vjp_u), (v, vjp_v)])


def dot(a: Node, b: Node) -> Node:
    """Inner product over the last axis."""
    _same_shape(a, b)
    av, bv = a.value, b.value
    return Node((av * bv).sum(axis=-1), [
        (a, lambda g: g[..., None] * bv),
        (b, lambda g: g[..., None] * av),
    ])


def l2norm(a: Node) -> Node:
    """Euclidean norm over the last axis (positive input norm assumed)."""
    r = np.sqrt((a.value ** 2).sum(axis=-1))
    av = a.value
    return Node(r, [(a, lambda g: g[..., None] * av / r[..., None])])


def arccos(a: Node) -> Node:
    """arccos with the argument clamped to +-(1 - 1e-7); the gradient is zero
    in the clamped region."""
    clamped = np.clip(a.value, -ARCCOS_CLAMP, ARCCOS_CLAMP)
    inside = np.abs(a.value) < ARCCOS_CLAMP
    deriv = np.where(inside, -1.0 / np.sqrt(1.0 - clamped**2), 0.0)
    return Node(np.arccos(clamped), [(a, lambda g: g * deriv)])


# ----- reductions -------------------------------------------------------------

def sum_per_sample(a: Node) -> Node:
    """Sum everything but the leading axis: (B, ...) -> (B,)."""
    shape = a.value.shape
    axes = tuple(range(1, len(shape)))
    value = a.value.sum(axis=axes)

    def vjp(g):
        return np.broadcast_to(g.reshape(g.shape + (1,) * len(axes)),
                               shape).copy()

    return Node(value, [(a, vjp)])


def sum_all(a: Node) -> Node:
    shape = a.value.shape
    return Node(a.value.sum(),
                [(a, lambda g: np.broadcast_to(g, shape).copy())])


def mean_all(a: Node) -> Node:
    shape, k = a.value.shape, 1.0 / a.value.size
    return Node(a.value.mean(),
                [(a, lambda g: np.broadcast_to(g * k, shape).copy())])


def _same_shape(a: Node, b: Node):
    if a.value.shape != b.value.shape:
        raise ValueError(f"shape mismatch {a.value.shape} vs {b.value.shape}")


# ----- finite-difference checking ---------------------------------------------

@dataclass
class GradCheckReport:
    """Per-leaf worst relative errors between analytic and numeric grads."""

    per_leaf: dict = field(default_factory=dict)
    tol: float = 1e-4

    @property
    def max_rel_err(self) -> float:
        return max(self.per_leaf.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(build, leaves: dict, step: float = 1e-4, tol: float = 1e-4,
               rng: np.random.Generator = None,
               max_per_leaf: int = None) -> GradCheckReport:
    """Compare backward() gradients against central finite differences.

    build is a zero-argument callable returning a scalar Node constructed
    from the Nodes in leaves (name -> Node); it is re-executed per probe, so
    it must be deterministic -- this is verified and a mismatch is an error.
    The relative error denominator is floored at 1e-3 to keep finite
    difference noise on near-zero gradients from dominating.

    max_per_leaf subsamples probe positions per leaf (rng required) so large
    tensors stay affordable; None probes every element, and a value below 1,
    which would probe nothing, raises ValueError.
    """
    if max_per_leaf is not None and max_per_leaf < 1:
        raise ValueError(f"max_per_leaf must be >= 1, got {max_per_leaf}")
    for leaf in leaves.values():
        leaf.zero_grad()
    out = build()
    out2 = build()
    if not np.array_equal(out.value, out2.value):
        raise RuntimeError("build() is not deterministic; gradients would be "
                           "meaningless")
    backward(out)
    analytic = {}
    for name, leaf in leaves.items():
        if leaf.grad is None:
            analytic[name] = np.zeros_like(leaf.value)
        else:
            analytic[name] = leaf.grad.copy()
        leaf.zero_grad()

    report = GradCheckReport(tol=tol)
    for name, leaf in leaves.items():
        flat = leaf.value.reshape(-1)
        count = flat.size
        if max_per_leaf is not None and count > max_per_leaf:
            if rng is None:
                raise ValueError("subsampling requires an rng")
            picks = rng.choice(count, size=max_per_leaf, replace=False)
        else:
            picks = np.arange(count)
        worst = 0.0
        ana = analytic[name].reshape(-1)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + step
            fp = float(build().value)
            flat[i] = keep - step
            fm = float(build().value)
            flat[i] = keep
            num = (fp - fm) / (2.0 * step)
            denom = max(abs(num), abs(ana[i]), 1e-3)
            worst = max(worst, abs(num - ana[i]) / denom)
        report.per_leaf[name] = worst
    return report
