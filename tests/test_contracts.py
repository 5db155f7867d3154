"""One definition per data contract.

The illuminant rule (histograms.unit_illuminant) is checked through every
caller.  The CST interpolation, the CCT sweep, the stratified source
selection and the config reader each replaced an earlier implementation
that was meant to give the same bits; frozen copies of those earlier
implementations live here, and the tests compare both bit for bit (and
the random generator's state after the call).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacc.hypernet as hn
import chromacc.training as tr
from chromacc.datasets import DataError, LabeledSample
from chromacc.evaluation import EvalSample
from chromacc.histograms import RawImage, unit_illuminant
from chromacc.sensor import (CANONICAL_BASE, CameraProfile, CaptureMeta,
                             CMFTable, estimate_cct, interp_cst,
                             stratified_selection, temp_to_xyz,
                             temperature_groups)
from chromacc.synthbench import capture

CMF = CMFTable.load()
PROFILE = CameraProfile(CANONICAL_BASE, CANONICAL_BASE * [1.1, 1.0, 0.9],
                        2856.0, 6504.0)
STACK = np.zeros((4, 4, 4))


# ----- frozen earlier implementations -------------------------------------------

def frozen_interp_cst(profile, q):
    if q <= 0:
        raise ValueError(f"temperature must be positive, got {q}")
    alpha = (1.0 / q - 1.0 / profile.q2) / (1.0 / profile.q1 - 1.0 / profile.q2)
    alpha = min(max(alpha, 0.0), 1.0)
    return alpha * profile.c1 + (1.0 - alpha) * profile.c2


CCT_GRID = np.arange(2500.0, 7500.0 + 10.0 / 2, 10.0)
CCT_XYZ = np.stack([temp_to_xyz(q, CMF) for q in CCT_GRID])


def frozen_estimate_cct(ell_raw, profile):
    ell = np.asarray(ell_raw, dtype=np.float64)
    if ell.shape != (3,) or np.any(ell <= 0):
        raise ValueError("illuminant must be a positive 3-vector")
    qs = CCT_GRID
    inv_q = 1.0 / qs
    alpha = (inv_q - 1.0 / profile.q2) / (1.0 / profile.q1 - 1.0 / profile.q2)
    alpha = np.clip(alpha, 0.0, 1.0)
    csts = alpha[:, None, None] * profile.c1 + \
        (1.0 - alpha)[:, None, None] * profile.c2
    cand = np.linalg.solve(csts, CCT_XYZ[..., None])[..., 0]
    cos = cand @ ell / (np.linalg.norm(cand, axis=1) * np.linalg.norm(ell))
    best = int(np.argmin(np.arccos(np.clip(cos, -1.0, 1.0))))
    return float(qs[best]), csts[best]


def frozen_stratified_selection(temps, count, rng):
    groups = temperature_groups(temps)
    if not groups:
        raise ValueError("no source temperatures to select from")
    pools = {band: list(rng.permutation(members))
             for band, members in groups.items()}
    order = sorted(pools)
    picks = []
    cursors = {band: 0 for band in order}
    while len(picks) < count:
        for band in order:
            if len(picks) >= count:
                break
            pool = pools[band]
            if cursors[band] >= len(pool):
                pools[band] = list(rng.permutation(groups[band]))
                cursors[band] = 0
                pool = pools[band]
            picks.append(int(pool[cursors[band]]))
            cursors[band] += 1
    return picks


FROZEN_TRAIN_KEYS = {
    "epochs": int, "lr": float, "weight_decay": float, "lambda_f": float, "lambda_b": float,
    "lambda_g": float, "val_fraction": float, "seed": int,
}


def frozen_parse_config(text):
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def frozen_train_config_from(mapping):
    kw = {}
    for key, conv in FROZEN_TRAIN_KEYS.items():
        if key in mapping:
            kw[key] = conv(mapping[key])
    if "batch_sizes" in mapping:
        kw["batch_sizes"] = tuple(
            int(tok) for tok in mapping["batch_sizes"].split(",") if tok.strip())
    return tr.TrainConfig(**kw)


def frozen_arch_config_from(mapping):
    kw = {}
    for key in ("n", "m", "depth", "base_channels"):
        if key in mapping:
            kw[key] = int(mapping[key])
    if "emit_gain" in mapping:
        kw["emit_gain"] = mapping["emit_gain"].lower() in ("1", "true", "yes")
    return hn.ArchitectureConfig(**kw)


# ----- the illuminant rule, through each caller ---------------------------------

def _meta(ell):
    return CaptureMeta(iso=100.0, aperture=2.0, exposure_time=0.01,
                       baseline_exposure=0.0, baseline_noise=1.0,
                       illuminant=ell)


CALLERS = {
    "TrainingSample": (lambda e: tr.TrainingSample(STACK, e, "c").illuminant,
                       ValueError),
    "EvalSample": (lambda e: EvalSample(RawImage(np.ones((2, 2, 3))),
                                        e).illuminant, ValueError),
    "CaptureMeta": (lambda e: _meta(e).illuminant, ValueError),
    "LabeledSample": (lambda e: LabeledSample("a.pfm", "c", e).illuminant,
                      DataError),
    "capture": (lambda e: capture(np.ones((2, 2, 3)), e), ValueError),
    "estimate_cct": (lambda e: estimate_cct(e, PROFILE, CMF), ValueError),
}
BAD = {
    "nan": [math.nan, 1.0, 1.0],
    "inf": [math.inf, 1.0, 1.0],
    "minus-inf": [1.0, -math.inf, 1.0],
    "norm-overflows": [1e200, 1e200, 1e200],
    "norm-underflows": [1e-200, 1e-200, 1e-200],
    "zero": [0.0, 0.0, 0.0],
    "zero-component": [0.0, 2.0, 0.0],
    "negative": [-1.0, 1.0, 1.0],
    "two-components": [1.0, 1.0],
    "four-components": [1.0, 1.0, 1.0, 1.0],
    "matrix": [[1.0, 1.0, 1.0]],
}


@pytest.mark.parametrize("bad", list(BAD), ids=list(BAD))
@pytest.mark.parametrize("caller", list(CALLERS))
def test_every_caller_rejects_a_bad_illuminant(caller, bad):
    make, error = CALLERS[caller]
    with pytest.raises(error, match="illuminant must be"):
        make(BAD[bad])


@pytest.mark.parametrize("caller",
                         ["TrainingSample", "EvalSample", "CaptureMeta",
                          "LabeledSample"])
def test_normalizing_callers_return_the_unit_vector(caller):
    ell = np.array([0.2, 0.5, 0.3])
    assert np.array_equal(CALLERS[caller][0](ell), ell / np.linalg.norm(ell))
    assert np.array_equal(unit_illuminant(ell), ell / np.linalg.norm(ell))


def test_validating_callers_compute_with_the_raw_vector():
    ell = np.array([0.2, 0.5, 0.3])
    assert np.array_equal(capture(np.ones((2, 2, 3)), ell).pixels[0, 0], ell)
    assert estimate_cct(ell, PROFILE, CMF)[0] == \
        estimate_cct(ell / np.linalg.norm(ell), PROFILE, CMF)[0]


def test_labeled_sample_still_warns_when_it_renormalizes():
    with pytest.warns(UserWarning, match="re-normalized"):
        LabeledSample("a.pfm", "c", [1.0, 2.0, 2.0])


# ----- bit-identity with the frozen implementations -----------------------------

def _profile(seed):
    """A random two-point profile near the canonical one."""
    rng = np.random.default_rng(seed)
    c1, c2 = (CANONICAL_BASE @ (np.eye(3) + rng.normal(0.0, 0.1, (3, 3)))
              for _ in range(2))
    q1 = rng.uniform(2000.0, 5000.0)
    return CameraProfile(c1, c2, q1, q1 + rng.uniform(1.0, 5000.0)), rng


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_estimate_cct_matches_frozen_copy(seed):
    profile, rng = _profile(seed)
    ell = rng.uniform(0.05, 1.0, 3)
    q, cst = estimate_cct(ell, profile, CMF)
    q0, cst0 = frozen_estimate_cct(ell, profile)
    assert q == q0 and np.array_equal(cst, cst0)


@given(seed=st.integers(0, 2 ** 32 - 1),
       q=st.floats(1.0, 30000.0) | st.sampled_from([2856.0, 6504.0]))
@settings(max_examples=200, deadline=None)
def test_interp_cst_matches_frozen_copy(seed, q):
    profile, _ = _profile(seed)
    qs = np.array([q, profile.q1, profile.q2, 2 * q])
    stacked = interp_cst(profile, qs)
    for qi, cst in zip(qs, stacked):
        assert np.array_equal(cst, frozen_interp_cst(profile, float(qi)))
    assert np.array_equal(interp_cst(profile, q), frozen_interp_cst(profile, q))


def test_interp_cst_rejects_a_non_positive_temperature():
    for q in (0.0, -5.0, np.array([3000.0, 0.0])):
        with pytest.raises(ValueError, match="positive"):
            interp_cst(PROFILE, q)


@given(temps=st.lists(st.floats(1500.0, 9000.0), min_size=1, max_size=40),
       count=st.integers(0, 120), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=500, deadline=None)
def test_stratified_selection_matches_frozen_copy(temps, count, seed):
    rng, rng0 = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = stratified_selection(temps, count, rng)
    assert picks == frozen_stratified_selection(temps, count, rng0)
    assert rng.bit_generator.state == rng0.bit_generator.state


def _spaced(key, value, draw):
    pad = draw(st.sampled_from(["", " ", "  "]))
    note = draw(st.sampled_from(["", "  # note"]))
    return f"{pad}{key}{pad}={pad}{value}{note}"


@st.composite
def config_texts(draw):
    """Texts every reader accepts: a random subset of the keys, valid values,
    varied spacing, comments and blank lines."""
    depth = draw(st.integers(1, 4))
    sizes = sorted(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)))
    floats = st.floats(1e-6, 0.5, allow_nan=False)
    values = {
        "epochs": draw(st.integers(0, 200)),
        "lr": draw(floats), "weight_decay": draw(floats),
        "lambda_f": draw(floats), "lambda_b": draw(floats),
        "lambda_g": draw(floats), "val_fraction": draw(st.floats(0.0, 0.9)),
        "seed": draw(st.integers(0, 2 ** 31)),
        "batch_sizes": draw(st.sampled_from([",", ", ", " , "])).join(
            str(b) for b in sizes),
        "n": 2 ** depth * draw(st.integers(1, 8)), "depth": depth,
        "m": draw(st.integers(1, 12)),
        "base_channels": draw(st.integers(1, 16)),
        "emit_gain": draw(st.sampled_from(
            ["true", "false", "yes", "no", "1", "0", "True", "NO"])),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    if "n" in keys and "depth" not in keys:
        keys.append("depth")
    if "depth" in keys and "n" not in keys:
        keys.append("n")
    lines = [_spaced(k, values[k], draw) for k in keys]
    lines.insert(draw(st.integers(0, len(lines))),
                 draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines)


@given(text=config_texts())
@settings(max_examples=300, deadline=None)
def test_parse_config_matches_frozen_builders(text):
    cfg, arch = tr.parse_config(text)
    mapping = frozen_parse_config(text)
    assert cfg == frozen_train_config_from(mapping)
    assert arch == frozen_arch_config_from(mapping)


@pytest.mark.parametrize("text, match", [
    ("epochs = abc", "cannot read"),
    ("epochs 3", "key = value"),
    ("n = 30", "multiple"),
    ("epochs = -1", "epochs"),
    ("batch_sizes = 32,16", "ascending"),
    ("lamda_f = 0.1", "unknown key"),
    # Adam's settings are constants of training, not keys
    ("beta1 = 0.9", "unknown key"),
    ("beta2 = 0.999", "unknown key"),
    ("eps = 1e-8", "unknown key"),
    ("lr = 0", "lr must be > 0"),
    ("lr = -0.01", "lr must be > 0"),
    ("lr = 1e999", "cannot read"),
    ("lr = nan", "cannot read"),
    ("emit_gain = maybe", "cannot read"),
    ("epochs = 2.5", "cannot read"),
    ("= 3", "unknown key"),
])
def test_parse_config_rejects(text, match):
    with pytest.raises(DataError, match=match):
        tr.parse_config(text)
