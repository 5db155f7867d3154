"""Histogram-domain illuminant localization: the CCC head.

Learned 2D filters are convolved against the chroma histogram channels; a
softmax over bias + [gain *] summed responses yields a probability map
("heat map") on the (u, v) grid, and its coordinate expectation is the
illuminant estimate.  Because a global per-channel gain translates the
histogram, a single filter bank localizes the illuminant for any shift:
estimation is a sliding-window search in chroma space.

The head has one definition, _head_nodes, built from autodiff ops.
hypernet._predict builds it on a batch of network outputs, for training and
inference; estimate_illuminant builds it on constant Nodes of one stack.  Its
convolution is the tape's FFT (autodiff.ccc_conv): linear (non-circular),
same-size, zero-padded, with the kernel anchored at (n//2, n//2):

    out[i, j] = sum_{p, q} x[i + c - p, j + c - q] * k[p, q],  c = n // 2

convolve2d exposes it on plain arrays, and its "direct" mode, an explicit
shift-and-add, is the slow obviously-correct reference for the FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .histograms import HistogramConfig, _stack_array

__all__ = [
    "CCCParams",
    "convolve2d",
    "soft_argmax",
    "uv_to_rgb",
    "estimate_illuminant",
]


@dataclass
class CCCParams:
    """Per-image localization parameters emitted by the hypernetwork.

    bias: (n, n) log-prior over illuminant locations.
    filters: (2, n, n), one filter per histogram channel.
    gain: optional (n, n) multiplier on the summed filter responses.
    """

    bias: np.ndarray
    filters: np.ndarray
    gain: np.ndarray = None

    def __post_init__(self):
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.filters = np.asarray(self.filters, dtype=np.float64)
        n = self.bias.shape[0]
        if self.bias.shape != (n, n):
            raise ValueError(f"bias must be square, got {self.bias.shape}")
        if self.filters.shape != (2, n, n):
            raise ValueError(
                f"filters must be (2, {n}, {n}), got {self.filters.shape}")
        if self.gain is not None:
            self.gain = np.asarray(self.gain, dtype=np.float64)
            if self.gain.shape != (n, n):
                raise ValueError(
                    f"gain must be ({n}, {n}), got {self.gain.shape}")

    @property
    def n(self) -> int:
        return self.bias.shape[0]


def _conv_same_direct(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Reference same-size linear convolution: explicit shift-and-add over
    every kernel tap, zero padding outside the input."""
    n = x.shape[-1]
    c = n // 2
    out = np.zeros_like(x)
    for p in range(n):
        for q in range(n):
            w = k[..., p, q]
            if np.all(w == 0.0):
                continue
            # out[i, j] += x[i + c - p, j + c - q] * w  where indices hit x
            di, dj = c - p, c - q
            si0, si1 = max(0, -di), min(n, n - di)
            sj0, sj1 = max(0, -dj), min(n, n - dj)
            if si0 >= si1 or sj0 >= sj1:
                continue
            out[..., si0:si1, sj0:sj1] += (
                x[..., si0 + di:si1 + di, sj0 + dj:sj1 + dj]
                * (w[..., None, None] if np.ndim(w) else w))
    return out


def convolve2d(x: np.ndarray, k: np.ndarray, mode: str = "fft") -> np.ndarray:
    """Same-size linear convolution of two equally sized square arrays,
    batched over (broadcast) leading axes."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if x.shape[-2:] != k.shape[-2:] or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"need matching square arrays, got {x.shape} vs {k.shape}")
    if mode == "fft":
        x, k = np.broadcast_arrays(x, k)
        planes = (-1, 1) + x.shape[-2:]  # one channel each: nothing is summed
        return ad.ccc_conv(ad.const(x.reshape(planes)),
                           ad.const(k.reshape(planes))).value.reshape(x.shape)
    if mode == "direct":
        return _conv_same_direct(x, k)
    raise ValueError(f"unknown mode {mode!r}")


def _uv_nodes(prob: ad.Node, config: HistogramConfig):
    """Expected (u, v) under (..., n, n) maps on the bin-center grid: u
    runs along columns, v along rows."""
    c = config.centers()
    ones = np.ones((c.size, c.size))
    return (ad.expectation2d(prob, ones * c[None, :]),
            ad.expectation2d(prob, ones * c[:, None]))


def _head_nodes(hists: ad.Node, filters: ad.Node, bias: ad.Node,
                gain: ad.Node):
    """The CCC head on the tape, for a batch of B images.

    hists, filters: (B, 2, n, n); bias and gain (None for no gain):
    (B, n, n).  Returns the heat map P = softmax(bias + [gain *]
    sum_i conv(N_i, F_i)) as a (B, n, n) Node and its expected (u, v) on
    the grid of size n as a (B, 3) unit RGB Node.
    """
    resp = ad.ccc_conv(hists, filters)
    if gain is not None:
        resp = ad.mul(gain, resp)
    prob = ad.softmax2d(ad.add(bias, resp))
    grid = HistogramConfig(n=hists.value.shape[-1])
    return prob, ad.uv_to_rgb(*_uv_nodes(prob, grid))


def estimate_illuminant(stack, params: CCCParams):
    """Full evaluator: returns (unit illuminant RGB, heat map P =
    softmax(bias + [gain *] sum_i conv(N_i, F_i))) on the grid of size
    params.n.

    stack may be a ChromaHistogram or its (4, n, n) array; only
    channels 0-1 (the two histograms) are convolved.
    """
    hists = _stack_array(stack, params.n)[None, :2]
    gain = None if params.gain is None else ad.const(params.gain[None])
    prob, ell = _head_nodes(ad.const(hists), ad.const(params.filters[None]),
                            ad.const(params.bias[None]), gain)
    return ell.value[0], prob.value[0]


def soft_argmax(p: np.ndarray, config: HistogramConfig) -> tuple[float, float]:
    """Expected (u, v) under a probability map on the bin-center grid."""
    u, v = _uv_nodes(ad.const(p), config)
    return float(u.value), float(v.value)


def uv_to_rgb(u, v) -> np.ndarray:
    """Unit-norm RGB direction for log-chroma coordinates.

    ell = (e^-u, 1, e^-v) / z with z the Euclidean norm; broadcasts over
    array-shaped u, v and stacks RGB on the last axis.
    """
    return ad.uv_to_rgb(ad.const(u), ad.const(v)).value
