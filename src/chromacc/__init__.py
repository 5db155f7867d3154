"""Cross-camera color constancy.

A small toolkit for estimating scene illuminants from camera raw images.
The estimator is a hypernetwork: given a query image's log-chroma histogram
stack and a handful of unlabeled images from the same camera, it emits the
filters and bias of a convolutional localizer, which is then evaluated on
the query histogram to produce a heat map over illuminant chromaticities.
Training, a from-scratch reverse-mode autodiff engine, a sensor simulation
pipeline for re-rendering labeled images across cameras, dataset plumbing,
and an evaluation harness are included; numpy is the only dependency.
"""

from . import autodiff
from .autodiff import NumericalError, grad_check
from .ccc import CCCParams, convolve2d, estimate_illuminant, uv_to_rgb
from .datasets import (WORKING_RES, DataError, DatasetManifest, LabeledSample,
                       load_dataset, write_manifest)
from .evaluation import (EvalReport, EvalSample, EvalStats, angular_error,
                         chroma_variance, eval_stats, format_report,
                         gray_world, run_eval)
from .floatmap import read_pfm, write_pfm
from .histograms import (ChromaHistogram, EmptyHistogramError, HistogramConfig,
                         RawImage, assemble_feature_stack, bilinear_resize,
                         build_histogram)
from .hypernet import (ArchitectureConfig, NetworkWeights, c5_infer,
                       infer_from_stacks, init_weights, load_weights,
                       save_weights)
from .sensor import (AugmentTarget, CameraProfile, CaptureMeta, CMFTable,
                     augment_image, estimate_cct, fit_planckian_cubic,
                     make_synthetic_camera, planck_spd, temp_to_xyz)
from .synthbench import Benchmark, BenchmarkResult, make_benchmark, run_benchmark
from .training import TrainConfig, TrainingSample, TrainResult, train

__version__ = "0.1.0"
