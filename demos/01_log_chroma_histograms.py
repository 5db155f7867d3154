# Log-chroma histograms: the network's input representation.
#
# A raw pixel (r, g, b) maps to u = log(g/r), v = log(g/b).  Dividing the
# whole image by an illuminant multiplies every pixel by the same gains,
# which in log-chroma is a pure translation of the histogram.  This script
# builds the 4-channel feature stack and demonstrates the translation.

import numpy as np

from chromacc import HistogramConfig, RawImage, assemble_feature_stack

rng = np.random.default_rng(0)
cfg = HistogramConfig(n=64)

# a toy "scene": three reflectance clusters under a neutral light
colors = np.array([[0.8, 0.4, 0.3], [0.2, 0.6, 0.5], [0.5, 0.5, 0.9]])
pixels = colors[rng.integers(0, 3, size=(64, 64))]
pixels *= rng.uniform(0.5, 1.0, size=(64, 64, 1))  # shading, chroma-neutral
image = RawImage(pixels)

stack = assemble_feature_stack(image, cfg)
print("feature stack:", stack.data.shape)  # (4, n, n), channel-first
print("pixel histogram sums to", stack.data[0].sum())
print("gradient histogram sums to", stack.data[1].sum())

# channels 2 and 3 are the bin-center coordinate planes the decoder uses to
# read out positions
centers = cfg.centers()
print("u plane row 0 == bin centers:",
      np.array_equal(stack.data[2, 0], centers))

# now "change the illuminant": gains aligned to whole bins move every
# pixel's bin assignment by exactly that many bins.  (The brightness
# weights rescale with the gain, so the occupied CELLS translate exactly
# while the mass redistributes slightly.)
shift = 3
gain = np.exp(-shift * cfg.bin_width)
tinted = RawImage(pixels * np.array([gain, 1.0, 1.0]))  # shifts u only
shifted = assemble_feature_stack(tinted, cfg)

orig = stack.data[0] > 0
moved = shifted.data[0] > 0
# u grows along columns, so the support moves right by `shift` columns
aligned = np.zeros_like(orig)
aligned[:, shift:] = orig[:, :-shift]
print("support translated exactly:", np.array_equal(moved, aligned))
