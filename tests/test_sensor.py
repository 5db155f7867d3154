import dataclasses
import inspect

import numpy as np
import pytest

import chromacc.sensor as sn
from chromacc.autodiff import NumericalError
from chromacc.histograms import RawImage


@pytest.fixture(scope="module")
def cmf():
    return sn.CMFTable.load()


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def identity_profile():
    return sn.CameraProfile(np.eye(3), np.eye(3), 2856.0, 6504.0)


def random_profile(rng):
    return sn.CameraProfile(
        sn.CANONICAL_BASE @ (np.eye(3) + rng.normal(0, 0.05, (3, 3))),
        sn.CANONICAL_BASE @ (np.eye(3) + rng.normal(0, 0.05, (3, 3))),
        2856.0, 6504.0)


# ----- CMF table and blackbody spectra -----

def test_cmf_table_loads(cmf):
    assert len(cmf.wavelengths) == 81
    assert np.isclose(cmf.wavelengths[0], 380e-9)
    assert np.isclose(cmf.wavelengths[-1], 780e-9)
    assert np.isclose(cmf.step, 5e-9)
    for v in (cmf.xbar, cmf.ybar, cmf.zbar):
        assert np.all(v >= 0)


def test_cmf_table_is_parsed_once_and_read_only(monkeypatch):
    table = sn.CMFTable.load()
    assert sn.CMFTable.load() is table
    for arr in (table.wavelengths, table.xbar, table.ybar, table.zbar):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # a camera drawn with the shared table equals one drawn with a freshly
    # parsed, writable copy, bit for bit
    ref = sn.resources.files("chromacc").joinpath("data/cie1931_2deg_5nm.csv")
    raw = np.loadtxt(str(ref), delimiter=",", comments="#")
    fresh = sn.CMFTable(raw[:, 0] * 1e-9, raw[:, 1], raw[:, 2], raw[:, 3])
    draws = []
    for load in (sn.CMFTable.load, lambda: fresh):
        monkeypatch.setattr(sn.CMFTable, "load", load)
        draws.append(sn.make_synthetic_camera(
            np.random.default_rng(7), tint=0.15, perturbation=0.04,
            n_illuminants=16))
    (p1, m1), (p2, m2) = draws
    assert np.array_equal(p1.c1, p2.c1) and np.array_equal(p1.c2, p2.c2)
    assert len(m1) == len(m2) == 16
    for a, b in zip(m1, m2):
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))


def test_cmf_validation():
    w = np.array([380e-9, 385e-9, 395e-9])  # uneven
    ones = np.ones(3)
    with pytest.raises(ValueError):
        sn.CMFTable(w, ones, ones, ones)
    with pytest.raises(ValueError):
        sn.CMFTable(np.array([380e-9, 385e-9]), np.array([1.0, -0.1]),
                    np.ones(2), np.ones(2))


def test_planck_frozen_high_precision_value():
    # arbitrary-precision evaluation (mpmath, 40 digits) of the law at
    # 5000 K, 560 nm
    expected = 40090921072311.599436
    got = float(sn.planck_spd(5000.0, 560e-9))
    assert np.isclose(got, expected, rtol=1e-12)


def test_planck_monotone_in_temperature():
    vals = [float(sn.planck_spd(q, 560e-9))
            for q in (500, 2000, 5000, 9000, 20000)]
    assert np.all(np.diff(vals) > 0)


def test_planck_wien_shift_direction():
    def ratio(q):
        return float(sn.planck_spd(q, 450e-9) / sn.planck_spd(q, 650e-9))
    assert ratio(6500.0) > ratio(3000.0)


def test_planck_range_errors():
    with pytest.raises(ValueError):
        sn.planck_spd(400.0, 560e-9)
    with pytest.raises(ValueError):
        sn.planck_spd(25000.0, 560e-9)
    with pytest.raises(ValueError):
        sn.planck_spd(5000.0, 300e-9)


def test_temp_to_xyz_chromaticity(cmf):
    for q in (2500.0, 5000.0, 7500.0):
        xyz = sn.temp_to_xyz(q, cmf)
        assert np.isclose(xyz.sum(), 1.0)
        assert np.all(xyz > 0)
    x65, y65, _ = sn.temp_to_xyz(6500.0, cmf)
    assert abs(x65 - 0.3135) < 0.002
    assert abs(y65 - 0.3237) < 0.002
    assert sn.temp_to_xyz(3000.0, cmf)[0] > x65  # warmer is redder


def test_temp_to_xyz_monotone_locus(cmf):
    xs = [sn.temp_to_xyz(q, cmf)[0] for q in np.arange(2500.0, 7501.0, 250.0)]
    assert np.all(np.diff(xs) < 0)  # x falls as temperature rises


def test_temp_to_xyz_degenerate(cmf):
    zeros = sn.CMFTable(cmf.wavelengths, np.zeros(81), np.zeros(81),
                        np.zeros(81))
    with pytest.raises(ValueError, match="degenerate"):
        sn.temp_to_xyz(5000.0, zeros)


# ----- CST interpolation and CCT estimation -----

def test_profile_validation():
    with pytest.raises(ValueError):
        sn.CameraProfile(np.zeros((3, 3)), np.eye(3), 2856.0, 6504.0)
    with pytest.raises(ValueError):
        sn.CameraProfile(np.eye(3), np.eye(3), 6504.0, 2856.0)
    with pytest.raises(ValueError):
        sn.CameraProfile(np.eye(3), np.eye(3), 5000.0, 5000.0)


def test_interp_cst_endpoints_and_midpoint():
    rng = np.random.default_rng(0)
    c1 = np.eye(3) + rng.normal(0, 0.1, (3, 3))
    c2 = np.eye(3) + rng.normal(0, 0.1, (3, 3))
    p = sn.CameraProfile(c1, c2, 2856.0, 6504.0)
    assert np.allclose(sn.interp_cst(p, 2856.0), c1)
    assert np.allclose(sn.interp_cst(p, 6504.0), c2)
    q_mid = 2.0 * p.q1 * p.q2 / (p.q1 + p.q2)  # reciprocal midpoint
    assert np.allclose(sn.interp_cst(p, q_mid), (c1 + c2) / 2.0)
    # clamped outside the calibration interval
    assert np.allclose(sn.interp_cst(p, 1000.0), c1)
    assert np.allclose(sn.interp_cst(p, 20000.0), c2)
    same = sn.CameraProfile(c1, c1, 2856.0, 6504.0)
    assert np.allclose(sn.interp_cst(same, 4321.0), c1)
    with pytest.raises(ValueError):
        sn.interp_cst(p, 0.0)


def test_estimate_cct_recovers_fixture_temperatures(cmf):
    prof = identity_profile()
    rng = np.random.default_rng(1)
    for q_true in rng.uniform(2505.0, 7495.0, 8):
        ell = unit(sn.temp_to_xyz(q_true, cmf))
        q_hat, cst = sn.estimate_cct(ell, prof, cmf)
        assert abs(q_hat - q_true) <= 10.0
        assert np.allclose(cst, np.eye(3))


def test_estimate_cct_boundary(cmf):
    prof = identity_profile()
    ell = unit(sn.temp_to_xyz(2500.0, cmf))
    q_hat, _ = sn.estimate_cct(ell, prof, cmf)
    assert q_hat == 2500.0


def test_estimate_cct_tie_breaks_low(cmf):
    # constant CMFs give every temperature the same chromaticity, so all
    # candidates tie and the sweep must return its lowest temperature
    flat = sn.CMFTable(cmf.wavelengths, np.ones(81), np.ones(81), np.ones(81))
    q_hat, _ = sn.estimate_cct(unit([1.0, 1.0, 1.0]), identity_profile(), flat)
    assert q_hat == 2500.0


def test_estimate_cct_rejects_bad_illuminant(cmf):
    with pytest.raises(ValueError):
        sn.estimate_cct([0.0, 1.0, 1.0], identity_profile(), cmf)


# ----- raw <-> XYZ mapping -----

def test_raw_to_xyz_neutral_illuminant_identity(cmf):
    rng = np.random.default_rng(2)
    img = RawImage(rng.uniform(0.1, 1.0, (4, 5, 3)))
    out, _ = sn.raw_to_xyz(img, unit([1.0, 1.0, 1.0]), identity_profile(),
                           cmf)
    assert np.allclose(out, img.pixels)


def test_raw_to_xyz_whitepoint_direction(cmf):
    rng = np.random.default_rng(3)
    prof = random_profile(rng)
    ell = unit([0.5, 0.9, 0.7])
    img = RawImage(np.tile(ell, (2, 2, 1)))
    out, q = sn.raw_to_xyz(img, ell, prof, cmf)
    q_est, cst = sn.estimate_cct(ell, prof, cmf)
    assert q == q_est
    white = cst @ np.ones(3)
    assert np.allclose(unit(out[0, 0]), unit(white))


def test_raw_to_xyz_linear(cmf):
    rng = np.random.default_rng(4)
    prof = random_profile(rng)
    ell = unit(rng.uniform(0.3, 1.0, 3))
    px = rng.uniform(0.1, 1.0, (3, 4, 3))
    a, _ = sn.raw_to_xyz(RawImage(px), ell, prof, cmf)
    b, _ = sn.raw_to_xyz(RawImage(3.0 * px), ell, prof, cmf)
    assert np.allclose(b, 3.0 * a)


def test_xyz_round_trip_recovers_raw(cmf):
    rng = np.random.default_rng(5)
    prof = random_profile(rng)
    ell = unit(rng.uniform(0.3, 1.0, 3))
    px = rng.uniform(0.05, 1.0, (6, 7, 3))
    xyz, q = sn.raw_to_xyz(RawImage(px), ell, prof, cmf)
    back = sn.xyz_to_target_raw(xyz, ell, prof, q)
    assert np.allclose(back, px, rtol=1e-6, atol=1e-12)


def test_xyz_to_target_raw_matrix_chain_oracle():
    m1 = np.array([[0.9, 0.1, 0.0], [0.05, 1.0, 0.05], [0.0, 0.2, 1.1]])
    prof = sn.CameraProfile(m1, m1, 2856.0, 6504.0)
    j = unit([0.4, 0.8, 0.5])
    xyz = np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 12.0 + 0.1
    d = np.diag([j[1] / j[0], 1.0, j[1] / j[2]])
    expected = np.einsum("ij,hwj->hwi", np.linalg.inv(m1 @ d), xyz)
    got = sn.xyz_to_target_raw(xyz, j, prof, 5000.0)
    assert np.allclose(got, np.clip(expected, 0, None))


def test_xyz_to_target_raw_neutral_is_pure_cst():
    rng = np.random.default_rng(6)
    prof = random_profile(rng)
    xyz = rng.uniform(0.1, 1.0, (3, 3, 3))
    got = sn.xyz_to_target_raw(xyz, unit([1, 1, 1]), prof, 5000.0)
    expected = np.einsum("ij,hwj->hwi",
                         np.linalg.inv(sn.interp_cst(prof, 5000.0)), xyz)
    assert np.allclose(got, np.clip(expected, 0, None))


# ----- capture features and retrieval -----

def meta(iso=100.0, aperture=2.8, l=0.01, ble=0.0, bln=1.0,
         ell=(0.5, 0.8, 0.6), camera="cam"):
    return sn.CaptureMeta(iso=iso, aperture=aperture, exposure_time=l,
                          baseline_exposure=ble, baseline_noise=bln,
                          illuminant=unit(ell), camera=camera)


def test_raw_feature_formulas():
    f = sn.raw_feature(meta(iso=100.0, bln=1.0, ble=0.0, l=0.01), 5000.0)
    assert np.allclose(f, [5000.0, 100.0, 2.8, 0.01])
    f2 = sn.raw_feature(meta(ble=2.0, l=0.01), 5000.0)
    assert np.isclose(f2[3], 0.02)  # sqrt(2^2) * 0.01


def test_capture_feature_normalization():
    norms = sn.FeatureNorms(np.array([2500.0, 50.0, 1.0, 0.0]),
                            np.array([7500.0, 250.0, 1.0, 0.04]))
    v = sn.capture_feature(meta(iso=150.0, ble=2.0, l=0.01), 5000.0, norms)
    assert np.allclose(v, [0.5, 0.5, 0.0, 0.5])  # aperture range degenerate


def test_knn_hand_weights():
    feats = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    idx, w = sn.knn_retrieve(np.zeros(4), feats, k=3)
    assert list(idx) == [0, 1, 2]
    raw = np.exp([1.0, 0.5, 0.0])
    assert np.allclose(w, raw / raw.sum())
    assert np.isclose(w.sum(), 1.0)


def test_knn_equal_distances_uniform():
    feats = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
    _, w = sn.knn_retrieve(np.zeros(4), feats, k=3)
    assert np.allclose(w, 1.0 / 3.0)


def test_knn_single_and_clamping():
    feats = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0]])
    idx, w = sn.knn_retrieve(np.zeros(4), feats, k=1)
    assert list(idx) == [0] and np.allclose(w, [1.0])
    idx, w = sn.knn_retrieve(np.zeros(4), feats, k=10)
    assert len(idx) == 2


# ----- cubic illuminant model -----

FIX_CUBIC = np.array([0.30, 0.45, -0.25, 0.04])


def cubic_illuminants(rs):
    out = []
    for r in rs:
        g = np.polynomial.polynomial.polyval(r, FIX_CUBIC)
        out.append(unit([r, g, 1.0 - r - g]))
    return np.stack(out)


def test_fit_cubic_exact_recovery():
    rs = np.linspace(0.25, 0.45, 9)
    model = sn.fit_planckian_cubic(cubic_illuminants(rs))
    assert np.allclose(model.coeffs, FIX_CUBIC, atol=1e-8)
    gs = np.polynomial.polynomial.polyval(rs, FIX_CUBIC)
    assert np.isclose(model.sigma_r, rs.std())
    assert np.isclose(model.sigma_g, gs.std())


def test_fit_cubic_error_paths():
    with pytest.raises(ValueError):
        sn.fit_planckian_cubic(cubic_illuminants([0.3, 0.35, 0.4]))
    same_r = np.tile(unit([0.3, 0.5, 0.2]), (5, 1))
    with pytest.raises(ValueError, match="rank"):
        sn.fit_planckian_cubic(same_r)


def test_sample_illuminant_noise_free_lies_on_cubic():
    model = sn.fit_planckian_cubic(cubic_illuminants(np.linspace(0.25, 0.45, 8)))
    rng = np.random.default_rng(7)
    ell = sn.sample_illuminant(np.array([0.33]), np.array([1.0]), model, rng,
                               lambda_r=0.0, lambda_g=0.0)
    assert np.isclose(np.linalg.norm(ell), 1.0)
    r, g = sn.rg_chromaticity(ell[None])[0]
    assert np.isclose(r, 0.33, atol=1e-12)
    assert np.isclose(g, float(model(0.33)), atol=1e-12)


def test_sample_illuminant_defaults_and_determinism():
    sig = inspect.signature(sn.sample_illuminant)
    assert sig.parameters["lambda_r"].default == 0.7
    assert sig.parameters["lambda_g"].default == 1.0
    model = sn.fit_planckian_cubic(cubic_illuminants(np.linspace(0.25, 0.45, 8)))
    args = (np.array([0.3, 0.4]), np.array([0.5, 0.5]), model)
    a = sn.sample_illuminant(*args, np.random.default_rng(8))
    b = sn.sample_illuminant(*args, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert np.all(a > 0) and np.isclose(np.linalg.norm(a), 1.0)


def test_sample_illuminant_rejection_exhausted():
    bad = sn.PlanckianCubic(np.array([2.0, 0.0, 0.0, 0.0]), 0.01, 0.01)
    with pytest.raises(NumericalError, match="100"):
        sn.sample_illuminant(np.array([0.3]), np.array([1.0]), bad,
                             np.random.default_rng(9))


# ----- augmentation -----

def identity_fixture(cmf):
    """Target metas whose illuminants sit exactly on a cubic, so k=1
    noise-free sampling reproduces a member illuminant bit-for-bit in
    chromaticity."""
    rs = np.linspace(0.25, 0.45, 6)
    ills = cubic_illuminants(rs)
    prof = sn.CameraProfile(sn.CANONICAL_BASE, sn.CANONICAL_BASE,
                            2856.0, 6504.0, name="fixture")
    metas = [sn.CaptureMeta(iso=100.0 * (i + 1), aperture=2.0 + 0.5 * i,
                            exposure_time=0.01 * (i + 1),
                            baseline_exposure=0.0, baseline_noise=1.0,
                            illuminant=ills[i], camera="fixture")
             for i in range(len(rs))]
    return prof, metas


def test_augment_identity_round_trip(cmf):
    prof, metas = identity_fixture(cmf)
    target = sn.AugmentTarget.build(prof, metas, cmf)
    rng = np.random.default_rng(10)
    src = RawImage(rng.uniform(0.05, 1.0, (8, 10, 3)))
    out, j = sn.augment_image(src, metas[2], prof, target, cmf, rng,
                              k=1, lambda_r=0.0, lambda_g=0.0, crop=False)
    assert np.allclose(out.pixels, src.pixels, rtol=1e-6, atol=1e-9)
    assert np.allclose(j, metas[2].illuminant, atol=1e-8)


def test_augment_general_properties(cmf):
    prof, metas = identity_fixture(cmf)
    rng = np.random.default_rng(11)
    src_prof = random_profile(rng)
    target = sn.AugmentTarget.build(prof, metas, cmf)
    src = RawImage(rng.uniform(0.05, 1.0, (12, 16, 3)))
    src_meta = meta(ell=(0.55, 0.85, 0.65), camera="src")
    out, j = sn.augment_image(src, src_meta, src_prof, target, cmf, rng)
    assert out.pixels.shape == src.pixels.shape  # crop resizes back
    assert np.all(out.pixels >= 0)
    assert np.all(j > 0) and np.isclose(np.linalg.norm(j), 1.0)
    # seeded reproducibility
    out2, j2 = sn.augment_image(src, src_meta, src_prof, target, cmf,
                                np.random.default_rng(11))
    rng3 = np.random.default_rng(11)
    sn.random_crop(rng3.random((4, 4, 3)), rng3,
                   np.ones((4, 4), dtype=bool))  # desync on purpose
    assert not np.array_equal(
        sn.augment_image(src, src_meta, src_prof, target, cmf, rng3)[1], j)


def test_random_crop_mask_and_shape():
    rng = np.random.default_rng(12)
    px = rng.random((20, 30, 3))
    mask = np.zeros((20, 30), dtype=bool)
    mask[5:15, 10:25] = True
    out, m = sn.random_crop(px, rng, mask=mask)
    assert out.shape == (20, 30, 3)
    assert m.shape == (20, 30) and m.dtype == bool
    assert m.any() and not m.all()
    _, full = sn.random_crop(px, rng, mask=np.ones((20, 30), dtype=bool))
    assert full.all()


def test_temperature_groups_and_stratified_selection():
    temps = [2600.0, 2610.0, 5100.0, 7400.0]
    groups = sn.temperature_groups(temps)
    assert set(groups) == {0, 10, 19}
    assert sorted(groups[0]) == [0, 1]
    picks = sn.stratified_selection(temps, 6, np.random.default_rng(13))
    assert len(picks) == 6
    # two from each represented band, round-robin
    bands = [0 if p in (0, 1) else (10 if p == 2 else 19) for p in picks]
    assert bands == [0, 10, 19, 0, 10, 19]
    again = sn.stratified_selection(temps, 6, np.random.default_rng(13))
    assert picks == again
    with pytest.raises(ValueError):
        sn.stratified_selection([], 3, np.random.default_rng(0))


# ----- synthetic cameras -----

def test_synthetic_camera_zero_perturbation_is_canonical():
    prof, metas = sn.make_synthetic_camera(np.random.default_rng(14),
                                           tint=0.0, perturbation=0.0,
                                           n_illuminants=8, name="canon")
    assert np.allclose(prof.c1, sn.CANONICAL_BASE)
    assert np.allclose(prof.c2, sn.CANONICAL_BASE)
    assert (prof.q1, prof.q2) == (2856.0, 6504.0)
    assert prof.name == "canon"
    assert len(metas) == 8


def test_synthetic_camera_illuminants_valid():
    prof, metas = sn.make_synthetic_camera(np.random.default_rng(15),
                                           tint=0.15, perturbation=0.05,
                                           n_illuminants=24)
    for m in metas:
        assert np.all(m.illuminant > 0)
        assert np.isclose(np.linalg.norm(m.illuminant), 1.0)
        assert m.iso > 0 and m.exposure_time > 0
    # population supports the cubic fit used by augmentation
    target = sn.AugmentTarget.build(prof, metas, sn.CMFTable.load())
    assert target.features.shape == (24, 4)
    assert np.isfinite(target.cubic.coeffs).all()


def test_synthetic_cameras_differ_across_seeds():
    def mean_rg(seed):
        _, metas = sn.make_synthetic_camera(np.random.default_rng(seed),
                                            tint=0.2, perturbation=0.05,
                                            n_illuminants=24)
        ills = np.stack([m.illuminant for m in metas])
        return sn.rg_chromaticity(ills).mean(axis=0)

    a, b = mean_rg(16), mean_rg(17)
    assert np.linalg.norm(a - b) > 1e-3
