"""Virtual sensor pipeline: cross-camera raw image mapping.

Training data for a new camera is manufactured by taking labeled raw images
from other cameras, undoing their capture (white balance, then the camera's
color space transform into CIE XYZ) and re-rendering them through the target
camera's transform under an illuminant sampled to look like that camera's
illuminant distribution.  Supporting machinery: blackbody spectra and the
Planckian locus, correlated color temperature estimation, two-point CST
interpolation over reciprocal temperature, capture-metadata nearest-neighbor
retrieval, and a cubic illuminant-chromaticity model.

Synthetic cameras (perturbed colorimetric matrices plus a Planckian
illuminant population) make fully self-contained cross-camera benchmarks
possible without any real raw datasets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import NumericalError
from .histograms import RawImage, bilinear_resize, unit_illuminant

__all__ = [
    "PLANCK_C1", "PLANCK_C2", "CMFTable", "planck_spd", "temp_to_xyz",
    "CameraProfile", "interp_cst", "estimate_cct", "raw_to_xyz",
    "xyz_to_target_raw", "CaptureMeta", "FeatureNorms", "raw_feature",
    "capture_feature", "knn_retrieve", "PlanckianCubic",
    "fit_planckian_cubic", "sample_illuminant", "AugmentTarget",
    "augment_image", "random_crop", "temperature_groups",
    "stratified_selection", "make_synthetic_camera", "CANONICAL_BASE",
]

# radiation constants (W m^2 and m K)
PLANCK_C1 = 3.741832e-16
PLANCK_C2 = 1.4388e-2

Q_RANGE = (500.0, 20000.0)
LAMBDA_RANGE = (380e-9, 780e-9)
CCT_RANGE = (2500.0, 7500.0)
CCT_STEP = 10.0
BAND_K = 250.0   # width of a temperature band (stratified selection, cameras)


@dataclass(frozen=True)
class CMFTable:
    """Color matching functions on an even wavelength grid (nanometers in
    the file, meters here)."""

    wavelengths: np.ndarray  # meters, ascending, even spacing
    xbar: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray

    def __post_init__(self):
        for name in ("wavelengths", "xbar", "ybar", "zbar"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), np.float64))
        w = self.wavelengths
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("need at least two wavelengths")
        steps = np.diff(w)
        if np.any(steps <= 0) or \
                not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
            raise ValueError("wavelengths must ascend with even spacing")
        for name in ("xbar", "ybar", "zbar"):
            v = getattr(self, name)
            if v.shape != w.shape:
                raise ValueError(f"{name} length mismatch")
            if np.any(v < 0):
                raise ValueError(f"{name} must be non-negative")

    @property
    def step(self) -> float:
        """Grid spacing in meters."""
        return float(self.wavelengths[1] - self.wavelengths[0])

    @classmethod
    @functools.cache
    def load(cls) -> "CMFTable":
        """The packaged CIE 1931 2-degree table (columns wavelength_nm, xbar,
        ybar, zbar), parsed once per process: every call returns that one
        table, and its arrays are read-only."""
        ref = resources.files("chromacc").joinpath("data/cie1931_2deg_5nm.csv")
        with resources.as_file(ref) as p:
            raw = np.loadtxt(p, delimiter=",", comments="#")
        table = cls(raw[:, 0] * 1e-9, raw[:, 1], raw[:, 2], raw[:, 3])
        for arr in (table.wavelengths, table.xbar, table.ybar, table.zbar):
            arr.flags.writeable = False
        return table


def planck_spd(q: float, lam) -> np.ndarray:
    """Blackbody spectral power at temperature q (K) and wavelength lam (m)."""
    if not Q_RANGE[0] <= q <= Q_RANGE[1]:
        raise ValueError(f"temperature {q} outside {Q_RANGE}")
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < LAMBDA_RANGE[0]) or np.any(lam > LAMBDA_RANGE[1]):
        raise ValueError(f"wavelength outside {LAMBDA_RANGE}")
    return PLANCK_C1 * lam ** -5.0 / np.expm1(PLANCK_C2 / (lam * q))


def temp_to_xyz(q: float, cmf: CMFTable) -> np.ndarray:
    """Chromaticity (x, y, z), x+y+z = 1, of the blackbody at q."""
    s = planck_spd(q, cmf.wavelengths)
    tri = cmf.step * np.array([(cmf.xbar * s).sum(), (cmf.ybar * s).sum(),
                               (cmf.zbar * s).sum()])
    total = tri.sum()
    if total <= 0.0:
        raise ValueError("degenerate tristimulus (all-zero CMF?)")
    return tri / total


@dataclass(frozen=True)
class CameraProfile:
    """Two-point colorimetric calibration: raw -> XYZ matrices C1 and C2
    measured at color temperatures q1 < q2."""

    c1: np.ndarray
    c2: np.ndarray
    q1: float
    q2: float
    name: str = ""

    def __post_init__(self):
        for attr in ("c1", "c2"):
            m = np.asarray(getattr(self, attr), dtype=np.float64)
            if m.shape != (3, 3):
                raise ValueError(f"{attr} must be 3x3, got {m.shape}")
            if abs(np.linalg.det(m)) < 1e-12:
                raise ValueError(f"{attr} is singular")
            object.__setattr__(self, attr, m)
        if not self.q1 < self.q2:
            raise ValueError(f"need q1 < q2, got {self.q1}, {self.q2}")


def interp_cst(profile: CameraProfile, q) -> np.ndarray:
    """CST at temperature q by linear interpolation in reciprocal
    temperature, pinned so q = q1 returns C1 and q = q2 returns C2; clamped
    outside the calibration interval.  An array of temperatures gives a
    stack of CSTs, shape q.shape + (3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    if not (q > 0).all():
        raise ValueError(f"temperature must be positive, got {q}")
    alpha = (1.0 / q - 1.0 / profile.q2) / (1.0 / profile.q1 - 1.0 / profile.q2)
    # minimum/maximum, not np.clip: same bits, less overhead on a scalar
    alpha = np.minimum(np.maximum(alpha, 0.0), 1.0)[..., None, None]
    return alpha * profile.c1 + (1.0 - alpha) * profile.c2


def estimate_cct(ell_raw, profile: CameraProfile, cmf: CMFTable):
    """Correlated color temperature of a raw illuminant.

    Sweeps a 10 K grid over 2500-7500 K; each candidate q renders the
    blackbody chromaticity into raw space through the inverse CST and is
    scored by angle against ell_raw.  Returns (q, CST at q); ties go to the
    lower temperature.
    """
    ell = np.asarray(ell_raw, dtype=np.float64)
    unit_illuminant(ell)
    qs = np.arange(CCT_RANGE[0], CCT_RANGE[1] + CCT_STEP / 2, CCT_STEP)
    csts = interp_cst(profile, qs)
    xyz = np.stack([temp_to_xyz(q, cmf) for q in qs])
    cand = np.linalg.solve(csts, xyz[..., None])[..., 0]
    cos = cand @ ell / (np.linalg.norm(cand, axis=1) * np.linalg.norm(ell))
    best = int(np.argmin(np.arccos(np.clip(cos, -1.0, 1.0))))  # first = lowest q
    return float(qs[best]), csts[best]


def _wb_diag(ell) -> np.ndarray:
    """Green-preserving white balance: diag(g/r, 1, g/b)."""
    r, g, b = ell
    return np.diag([g / r, 1.0, g / b])


def raw_to_xyz(image: RawImage, ell_raw, profile: CameraProfile,
               cmf: CMFTable):
    """Map a raw image into CIE XYZ: white balance by its illuminant, then
    apply the CST interpolated at the illuminant's estimated CCT.  Returns
    (XYZ pixels, that CCT q)."""
    q, cst = estimate_cct(ell_raw, profile, cmf)
    return image.pixels @ (cst @ _wb_diag(np.asarray(ell_raw))).T, q


def xyz_to_target_raw(xyz: np.ndarray, target_ill, target_profile: CameraProfile,
                      q: float) -> np.ndarray:
    """Render an XYZ image into a target camera's raw space under a chosen
    illuminant: inverse CST at q, then per-channel multiplication by the
    illuminant cast.  Negative values from the matrix chain are clipped."""
    j = np.asarray(target_ill, dtype=np.float64)
    m = interp_cst(target_profile, q)
    chain = np.linalg.inv(m @ _wb_diag(j))
    return np.clip(xyz @ chain.T, 0.0, None)


# ----- capture metadata features -------------------------------------------------

@dataclass(frozen=True)
class CaptureMeta:
    """Capture settings and ground truth for one raw image."""

    iso: float
    aperture: float            # f-number
    exposure_time: float       # seconds
    baseline_exposure: float   # EV offset
    baseline_noise: float
    illuminant: np.ndarray     # unit 3-vector in this camera's raw space
    camera: str = ""

    def __post_init__(self):
        for name in ("iso", "aperture", "exposure_time", "baseline_noise"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "illuminant",
                           unit_illuminant(self.illuminant))


def raw_feature(meta: CaptureMeta, q: float) -> np.ndarray:
    """Unnormalized capture descriptor [q, BLN*ISO, aperture, sqrt(2^BLE)*l]."""
    gain = meta.baseline_noise * meta.iso
    exposure = np.sqrt(2.0 ** meta.baseline_exposure) * meta.exposure_time
    return np.array([q, gain, meta.aperture, exposure])


@dataclass(frozen=True)
class FeatureNorms:
    """Per-component min-max ranges of raw capture features."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def from_features(cls, feats: np.ndarray) -> "FeatureNorms":
        feats = np.asarray(feats, dtype=np.float64)
        return cls(feats.min(axis=0), feats.max(axis=0))


def capture_feature(meta: CaptureMeta, q: float, norms: FeatureNorms
                    ) -> np.ndarray:
    """Min-max normalized capture descriptor; components with a degenerate
    range come out 0."""
    f = raw_feature(meta, q)
    span = norms.hi - norms.lo
    out = np.zeros(4)
    ok = span > 0
    out[ok] = (f[ok] - norms.lo[ok]) / span[ok]
    return out


def knn_retrieve(v_query: np.ndarray, features: np.ndarray, k: int = 4):
    """K nearest feature rows by Euclidean distance.

    Returns (indices, weights): distances are normalized by the max within
    the retrieved set and weighted softmax(1 - d); equal distances (or a
    single candidate) give uniform weights.  k is clamped to the set size.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) == 0:
        raise ValueError("need a non-empty (N, 4) feature set")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(features))
    d = np.linalg.norm(features - np.asarray(v_query, np.float64), axis=1)
    idx = np.argsort(d, kind="stable")[:k]
    dk = d[idx]
    dmax = dk.max()
    dn = dk / dmax if dmax > 0 else np.zeros_like(dk)
    w = np.exp(1.0 - dn)
    return idx, w / w.sum()


# ----- illuminant model -----------------------------------------------------------

def rg_chromaticity(ills: np.ndarray) -> np.ndarray:
    """(N, 3) colors -> (N, 2) rg chromaticities r = R/(R+G+B), g likewise."""
    ills = np.asarray(ills, dtype=np.float64)
    s = ills.sum(axis=-1, keepdims=True)
    return (ills / s)[..., :2]


@dataclass(frozen=True)
class PlanckianCubic:
    """g = f(r) model of a camera's illuminant chromaticities.

    coeffs are ascending powers (intercept first); sigma_r / sigma_g are the
    population standard deviations of the fitted set.
    """

    coeffs: np.ndarray
    sigma_r: float
    sigma_g: float

    def __call__(self, r):
        return np.polynomial.polynomial.polyval(r, self.coeffs)


def fit_planckian_cubic(illuminants) -> PlanckianCubic:
    """Least-squares cubic over the rg chromaticities of a set of target
    illuminants.  Requires >= 4 points with enough distinct r values."""
    ills = np.asarray(illuminants, dtype=np.float64)
    if ills.ndim != 2 or ills.shape[0] < 4 or ills.shape[1] != 3:
        raise ValueError("need at least 4 illuminant 3-vectors")
    rg = rg_chromaticity(ills)
    r, g = rg[:, 0], rg[:, 1]
    design = np.stack([np.ones_like(r), r, r ** 2, r ** 3], axis=1)
    coeffs, _, rank, _ = np.linalg.lstsq(design, g, rcond=None)
    if rank < 4:
        raise ValueError("rank-deficient fit: r values too clustered")
    return PlanckianCubic(coeffs, float(r.std()), float(g.std()))


def sample_illuminant(neighbor_r: np.ndarray, weights: np.ndarray,
                      cubic: PlanckianCubic, rng: np.random.Generator,
                      lambda_r: float = 0.7, lambda_g: float = 1.0
                      ) -> np.ndarray:
    """Draw a plausible target-camera illuminant.

    r is the weighted mean of retrieved neighbors' r chromaticities plus
    scaled Gaussian noise; g comes from the cubic plus its own noise; blue is
    1 - r - g.  Draws with any non-positive component are rejected, up to 100
    tries.
    """
    base_r = float(np.dot(neighbor_r, weights))
    for _ in range(100):
        r = base_r + lambda_r * rng.normal(0.0, cubic.sigma_r)
        g = float(cubic(r)) + lambda_g * rng.normal(0.0, cubic.sigma_g)
        b = 1.0 - r - g
        if r > 0 and g > 0 and b > 0:
            ell = np.array([r, g, b])
            return ell / np.linalg.norm(ell)
    raise NumericalError("no positive illuminant in 100 draws "
                         "(degenerate cubic or sigmas)")


# ----- augmentation ---------------------------------------------------------------

@dataclass(frozen=True)
class AugmentTarget:
    """A target camera's profile and everything precomputed from its metas
    by build: the feature norms, each meta's normalized feature (from its
    CCT), r chromaticities, and the fitted chromaticity cubic."""

    profile: CameraProfile
    norms: FeatureNorms
    features: np.ndarray
    r_chroma: np.ndarray
    cubic: PlanckianCubic

    @classmethod
    def build(cls, profile: CameraProfile, metas, cmf: CMFTable
              ) -> "AugmentTarget":
        if not metas:
            raise ValueError("need at least one target meta")
        metas = list(metas)
        temps = np.array([estimate_cct(m.illuminant, profile, cmf)[0]
                          for m in metas])
        norms = FeatureNorms.from_features(
            np.stack([raw_feature(m, q) for m, q in zip(metas, temps)]))
        features = np.stack([capture_feature(m, q, norms)
                             for m, q in zip(metas, temps)])
        ills = np.stack([m.illuminant for m in metas])
        return cls(profile, norms, features,
                   rg_chromaticity(ills)[:, 0], fit_planckian_cubic(ills))


def random_crop(pixels: np.ndarray, rng: np.random.Generator,
                mask: np.ndarray):
    """Crop a uniform 80-100% of the area with the original aspect ratio,
    then resize back to the input size.  Returns (pixels, mask) with the
    mask resampled by nearest threshold."""
    h, w = pixels.shape[:2]
    scale = np.sqrt(rng.uniform(0.8, 1.0))
    ch = max(1, round(h * scale))
    cw = max(1, round(w * scale))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    out = bilinear_resize(pixels[top:top + ch, left:left + cw], h, w)
    frac = bilinear_resize(mask[top:top + ch, left:left + cw]
                           .astype(np.float64), h, w)
    return out, frac >= 0.5


def augment_image(image: RawImage, meta: CaptureMeta,
                  src_profile: CameraProfile, target: AugmentTarget,
                  cmf: CMFTable, rng: np.random.Generator, k: int = 4,
                  lambda_r: float = 0.7, lambda_g: float = 1.0,
                  crop: bool = True):
    """Re-render one labeled raw image into the target camera's space.

    Returns (RawImage in target space, its ground-truth illuminant).  The
    source capture's estimated CCT drives both CST interpolations and the
    metadata retrieval; noise scales and cropping follow the keyword knobs.
    """
    xyz, q = raw_to_xyz(image, meta.illuminant, src_profile, cmf)
    v_query = capture_feature(meta, q, target.norms)
    idx, weights = knn_retrieve(v_query, target.features, k)
    j = sample_illuminant(target.r_chroma[idx], weights, target.cubic, rng,
                          lambda_r, lambda_g)
    out = xyz_to_target_raw(xyz, j, target.profile, q)
    mask = image.mask
    if crop:
        out, mask = random_crop(out, rng, mask=mask)
    return RawImage(out, mask), j


def temperature_groups(temps) -> dict:
    """Bucket temperatures into the BAND_K-wide bands of CCT_RANGE (the
    outer bands take what lies beyond it); returns {band index: [positions]}
    for non-empty bands only."""
    lo, hi = CCT_RANGE
    groups: dict[int, list] = {}
    for pos, q in enumerate(np.asarray(temps, dtype=np.float64)):
        band = int(np.clip((q - lo) // BAND_K, 0, (hi - lo) // BAND_K - 1))
        groups.setdefault(band, []).append(pos)
    return groups


def stratified_selection(temps, count: int, rng: np.random.Generator) -> list:
    """Pick source indices round-robin over the temperature bands so every
    represented band contributes evenly; repeats once a band is exhausted."""
    groups = temperature_groups(temps)
    if not groups:
        raise ValueError("no source temperatures to select from")
    pools = {band: list(rng.permutation(members))
             for band, members in groups.items()}
    picks: list[int] = []
    for _, band in zip(range(count), itertools.cycle(sorted(pools))):
        if not pools[band]:
            pools[band] = list(rng.permutation(groups[band]))
        picks.append(int(pools[band].pop(0)))
    return picks


# ----- synthetic cameras ----------------------------------------------------------

# linear sRGB -> XYZ (D65), the reference colorimetric response
CANONICAL_BASE = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
CANONICAL_Q1 = 2856.0   # incandescent calibration point
CANONICAL_Q2 = 6504.0   # daylight calibration point


def make_synthetic_camera(rng: np.random.Generator, tint: float = 0.0,
                          perturbation: float = 0.0, n_illuminants: int = 64,
                          name: str = ""):
    """Manufacture a virtual camera: a perturbed two-point profile plus a
    Planckian illuminant population with correlated capture metadata.

    tint scales a per-channel sensitivity skew (red/blue gains); perturbation
    scales random entrywise deviations of each CST.  Zero for both returns
    the canonical reference profile.  Illuminant temperatures are stratified
    over the BAND_K bands of CCT_RANGE; rg chromaticities get an off-locus
    jitter (standard deviation 0.005) so the population has nonzero spread
    around its cubic.
    """
    if n_illuminants < 4:
        raise ValueError("need at least 4 illuminants for the cubic model")
    tr = rng.uniform(-tint, tint) if tint else 0.0
    tb = rng.uniform(-tint, tint) if tint else 0.0
    skew = np.diag([1.0 / (1.0 + tr), 1.0, 1.0 / (1.0 + tb)])

    def draw_cst():
        for _ in range(100):
            e = rng.normal(0.0, perturbation, (3, 3)) if perturbation else 0.0
            c = CANONICAL_BASE @ skew @ (np.eye(3) + e)
            if abs(np.linalg.det(c)) > 1e-6:
                return c
        raise NumericalError("could not draw an invertible CST")

    profile = CameraProfile(draw_cst(), draw_cst(), CANONICAL_Q1,
                            CANONICAL_Q2, name=name)
    cmf = CMFTable.load()

    lo, hi = CCT_RANGE
    n_bands = int((hi - lo) // BAND_K)
    metas = []
    for i in range(n_illuminants):
        band = i % n_bands
        q = rng.uniform(lo + band * BAND_K, lo + (band + 1) * BAND_K)
        xyz = temp_to_xyz(q, cmf)
        ell = np.linalg.solve(interp_cst(profile, q), xyz)
        if np.any(ell <= 0):
            raise NumericalError(f"profile {name!r} yields a non-positive "
                                 f"illuminant at {q:.0f} K")
        rg = rg_chromaticity(ell[None])[0] + rng.normal(0, 0.005, 2)
        ell = np.array([rg[0], rg[1], 1.0 - rg[0] - rg[1]])
        if np.any(ell <= 0):
            ell = np.linalg.solve(interp_cst(profile, q), xyz)  # drop jitter
        ell = ell / np.linalg.norm(ell)

        # colder scenes read as daylight: faster, dimmer-gain captures
        t = (q - lo) / (hi - lo)
        iso = float(np.clip(100.0 * 2.0 ** (3.0 * (1.0 - t)
                                            + 0.5 * rng.normal()), 50, 6400))
        aperture = float(np.clip(2.0 + 4.0 * t + 0.3 * rng.normal(), 1.4, 16))
        exposure = float(2.0 ** (-(3.0 + 4.0 * t) + 0.5 * rng.normal()))
        metas.append(CaptureMeta(
            iso=iso, aperture=aperture, exposure_time=exposure,
            baseline_exposure=float(rng.normal(0.0, 0.3)),
            baseline_noise=float(np.clip(rng.uniform(0.8, 1.2), 0.01, None)),
            illuminant=ell, camera=name))
    return profile, metas
