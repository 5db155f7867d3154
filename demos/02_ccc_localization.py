# Convolutional localization: how a histogram becomes an illuminant.
#
# The estimator scores every candidate illuminant position by convolving
# the histogram with learned filters and adding a bias, softmaxes the
# result into a heat map, and reads out the expected (u, v) position.
# Here we hand-build filters that act like matched templates and show the
# readout recovering a known light, plus the FFT/direct agreement the
# implementation relies on.

import numpy as np

from chromacc import CCCParams, HistogramConfig, RawImage
from chromacc.ccc import convolve2d, estimate_illuminant
from chromacc.evaluation import angular_error
from chromacc.histograms import assemble_feature_stack

rng = np.random.default_rng(7)
cfg = HistogramConfig(n=64)

# scene with a known illuminant
base = np.array([[0.7, 0.5, 0.4], [0.3, 0.55, 0.5], [0.45, 0.5, 0.75]])
pixels = base[rng.integers(0, 3, size=(48, 48))]
ell_true = np.array([0.45, 0.75, 0.49])
ell_true /= np.linalg.norm(ell_true)
image = RawImage(pixels * ell_true)
stack = assemble_feature_stack(image, cfg)

# a crude matched filter: correlate the histogram with the same scene under
# neutral light, so the response peaks at the illuminant's uv offset.
# Convolution with the flipped template (the flip is about the kernel
# anchor n//2, hence the one-bin roll) is cross-correlation.
neutral = assemble_feature_stack(RawImage(pixels), cfg)
template = neutral.data[..., 0]
flt = np.roll(template[::-1, ::-1], (1, 1), axis=(0, 1)) * 40.0
params = CCCParams(bias=np.zeros((64, 64)),
                   filters=np.stack([flt, np.zeros_like(flt)]))

ell_hat, heat = estimate_illuminant(stack, params)
print("heat map sums to", heat.sum())
print("true     ", np.round(ell_true, 4))
print("estimated", np.round(ell_hat, 4))
# a hand-built template has no sub-bin precision, so expect an error on
# the order of one bin (0.089 log-chroma units)
print("angular error: %.3f degrees" % angular_error(ell_hat, ell_true))

# the fast path: convolution by FFT equals the direct sum
a = rng.normal(size=(64, 64))
b = rng.normal(size=(64, 64))
direct = convolve2d(a, b, mode="direct")
fast = convolve2d(a, b, mode="fft")
print("fft vs direct max |diff|:", np.abs(fast - direct).max())
