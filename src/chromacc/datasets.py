"""Dataset manifests and image loading.

A dataset is a directory of float-map images plus one line-oriented manifest:
each line is a JSON record, either a camera (its two-point color profile) or
an image (path, optional mask path, camera id, ground-truth illuminant,
optional scene id and capture metadata).  Images load lazily and are resized
to a working resolution; ground truth is unit-normalized (with a warning when
the manifest entry was not).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .floatmap import DataError, read_pfm
from .histograms import RawImage, bilinear_resize, unit_illuminant
from .sensor import CameraProfile, CaptureMeta

__all__ = [
    "DataError", "WORKING_RES", "LabeledSample", "read_raw_image",
    "DatasetManifest", "load_dataset", "write_manifest",
]

WORKING_RES = (256, 384)  # rows, columns


_META_KEYS = ("iso", "aperture", "exposure_time", "baseline_exposure",
              "baseline_noise")


@dataclass
class LabeledSample:
    """One manifest image entry; pixels stay on disk until load()."""

    image_path: str
    camera: str
    illuminant: np.ndarray
    mask_path: str = None
    scene: str = None
    meta: CaptureMeta = None

    def __post_init__(self):
        ell = np.asarray(self.illuminant, dtype=np.float64)
        try:
            self.illuminant = unit_illuminant(ell)
        except ValueError as exc:
            raise DataError(f"{self.image_path}: {exc}") from None
        norm = np.linalg.norm(ell)
        if not np.isclose(norm, 1.0, atol=1e-6):
            warnings.warn(f"{self.image_path}: illuminant norm {norm:.6g} "
                          f"re-normalized to 1")

    def load(self, working_res=WORKING_RES) -> RawImage:
        """Read the image (and mask), resized to working_res (rows, cols);
        None keeps the stored resolution."""
        return read_raw_image(self.image_path, self.mask_path, working_res)


def read_raw_image(image_path, mask_path=None, working_res=None) -> RawImage:
    """Read a 3-channel float map and optional mask (> 0.5 is valid) as a
    RawImage, resized to working_res (rows, cols) unless None.  Negative
    values clip to zero; pixels RawImage rejects (non-finite, or above
    float32's maximum after the header's scale) are a DataError."""
    data = read_pfm(image_path)
    if data.ndim != 3:
        raise DataError(f"{image_path}: expected a 3-channel image")
    mask = None
    if mask_path is not None:
        m = read_pfm(mask_path)
        if m.ndim != 2 or m.shape != data.shape[:2]:
            raise DataError(f"{mask_path}: mask shape {m.shape} "
                            f"does not match image {data.shape[:2]}")
        mask = m > 0.5
    if working_res is not None and data.shape[:2] != tuple(working_res):
        h, w = working_res
        data = bilinear_resize(data, h, w)
        if mask is not None:
            mask = bilinear_resize(mask.astype(np.float64), h, w) >= 0.5
    try:
        return RawImage(np.clip(data, 0.0, None), mask)
    except ValueError as exc:
        raise DataError(f"{image_path}: {exc}") from None


@dataclass
class DatasetManifest:
    """Parsed manifest: camera profiles keyed by id plus image entries."""

    profiles: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)

    def cameras(self) -> list:
        return sorted({s.camera for s in self.samples})


def _require(record, key, where, kind=None):
    if key not in record:
        raise DataError(f"{where}: missing key {key!r}")
    value = record[key]
    if kind is not None and not isinstance(value, kind):
        raise DataError(f"{where}: {key!r} must be a {kind.__name__}, "
                        f"got {type(value).__name__}")
    return value


def _numbers(record, key, where) -> np.ndarray:
    """A required number or nested list of numbers, all finite."""
    value = _require(record, key, where)
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{where}: {key!r} must hold numbers") from None
    if not np.isfinite(arr).all():
        raise DataError(f"{where}: {key!r} holds a non-finite number")
    return arr


def _number(record, key, where) -> float:
    arr = _numbers(record, key, where)
    if arr.shape != ():
        raise DataError(f"{where}: {key!r} must be a single number")
    return float(arr)


def _parse_camera(record, where) -> CameraProfile:
    fields = (_numbers(record, "c1", where), _numbers(record, "c2", where),
              _number(record, "q1", where), _number(record, "q2", where))
    try:
        return CameraProfile(*fields, name=_require(record, "camera", where,
                                                    str))
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def _parse_image(record, root, where) -> LabeledSample:
    camera = _require(record, "camera", where, str)
    path = os.path.join(root, _require(record, "image", where, str))
    mask = _require(record, "mask", where, str) if record.get("mask") else None
    scene = _require(record, "scene", where, str) \
        if record.get("scene") is not None else None
    illum = _numbers(record, "illuminant", where)
    meta = None
    if "meta" in record:
        m = _require(record, "meta", where, dict)
        missing = [k for k in _META_KEYS if k not in m]
        if missing:
            raise DataError(f"{where}: meta missing {missing}")
        values = {k: _number(m, k, where) for k in _META_KEYS}
        try:
            meta = CaptureMeta(illuminant=illum, camera=camera, **values)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None
    return LabeledSample(
        image_path=path, camera=camera, illuminant=illum,
        mask_path=os.path.join(root, mask) if mask else None,
        scene=scene, meta=meta)


def load_dataset(manifest_path) -> DatasetManifest:
    """Parse a manifest; image payloads stay lazy.  Every image's camera must
    have a profile record, and referenced files must exist."""
    root = os.path.dirname(os.path.abspath(manifest_path))
    manifest = DatasetManifest()
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest: {exc}") from None
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{manifest_path}:{ln}"
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also a too-long int
            raise DataError(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise DataError(f"{where}: expected a JSON object")
        kind = _require(record, "type", where)
        if kind == "camera":
            profile = _parse_camera(record, where)
            manifest.profiles[profile.name] = profile
        elif kind == "image":
            manifest.samples.append(_parse_image(record, root, where))
        else:
            raise DataError(f"{where}: unknown record type {kind!r}")
    for s in manifest.samples:
        if s.camera not in manifest.profiles:
            raise DataError(f"camera {s.camera!r} has no profile record")
        for p in (s.image_path, s.mask_path):
            if p is not None and not os.path.exists(p):
                raise DataError(f"missing file: {p}")
    return manifest


def write_manifest(manifest: DatasetManifest, path):
    """Emit camera records then image records, paths relative to the
    manifest's directory."""
    root = os.path.dirname(os.path.abspath(path))
    lines = []
    for name in sorted(manifest.profiles):
        p = manifest.profiles[name]
        lines.append(json.dumps({
            "type": "camera", "camera": name, "q1": p.q1, "q2": p.q2,
            "c1": p.c1.tolist(), "c2": p.c2.tolist()}))
    for s in manifest.samples:
        record = {
            "type": "image",
            "camera": s.camera,
            "image": os.path.relpath(s.image_path, root),
            "illuminant": list(s.illuminant),
        }
        if s.mask_path is not None:
            record["mask"] = os.path.relpath(s.mask_path, root)
        if s.scene is not None:
            record["scene"] = s.scene
        if s.meta is not None:
            record["meta"] = {k: getattr(s.meta, k) for k in _META_KEYS}
        lines.append(json.dumps(record))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

