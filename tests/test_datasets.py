import json

import numpy as np
import pytest

from chromacc.datasets import (DataError, DatasetManifest, LabeledSample,
                               WORKING_RES, load_dataset, write_manifest)
from chromacc.floatmap import write_pfm
from chromacc.sensor import CameraProfile, CaptureMeta


def _profile(name, seed=0):
    rng = np.random.default_rng(seed)
    c1 = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    c2 = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    return CameraProfile(c1, c2, 2856.0, 6504.0, name=name)


def _write_image(path, shape=(6, 8), seed=0):
    rng = np.random.default_rng(seed)
    write_pfm(path, rng.uniform(0.1, 1.0, size=shape + (3,)))


def _manifest_fixture(tmp_path, n_per_camera=2, cameras=("cam_a", "cam_b")):
    manifest = DatasetManifest()
    ell = np.array([1.0, 2.0, 1.0]) / np.sqrt(6.0)
    for ci, cam in enumerate(cameras):
        manifest.profiles[cam] = _profile(cam, seed=ci)
        for i in range(n_per_camera):
            img = tmp_path / f"{cam}_{i}.pfm"
            _write_image(img, seed=10 * ci + i)
            meta = CaptureMeta(iso=100.0 + i, aperture=2.8,
                               exposure_time=0.01, baseline_exposure=0.5,
                               baseline_noise=1.5, illuminant=ell, camera=cam)
            manifest.samples.append(LabeledSample(
                image_path=str(img), camera=cam, illuminant=ell,
                scene=f"scene_{i}", meta=meta))
    return manifest


def test_manifest_round_trip(tmp_path):
    manifest = _manifest_fixture(tmp_path)
    path = tmp_path / "data.jsonl"
    write_manifest(manifest, path)
    back = load_dataset(path)
    assert sorted(back.profiles) == ["cam_a", "cam_b"]
    for cam in back.profiles:
        assert np.allclose(back.profiles[cam].c1, manifest.profiles[cam].c1)
        assert np.allclose(back.profiles[cam].c2, manifest.profiles[cam].c2)
        assert back.profiles[cam].q1 == 2856.0
    assert len(back.samples) == len(manifest.samples)
    for got, want in zip(back.samples, manifest.samples):
        assert got.camera == want.camera
        assert got.scene == want.scene
        assert np.allclose(got.illuminant, want.illuminant)
        assert np.allclose(np.linalg.norm(got.illuminant), 1.0)
        assert got.meta.iso == want.meta.iso
        assert got.meta.baseline_exposure == want.meta.baseline_exposure
        img = got.load(working_res=None)
        assert img.pixels.shape == (6, 8, 3)


def test_load_resizes_to_working_res(tmp_path):
    manifest = _manifest_fixture(tmp_path, n_per_camera=1)
    sample = manifest.samples[0]
    img = sample.load()
    assert img.pixels.shape == WORKING_RES + (3,)
    img = sample.load(working_res=(4, 6))
    assert img.pixels.shape == (4, 6, 3)
    assert np.all(img.pixels >= 0)


def test_mask_loaded_and_resized(tmp_path):
    _write_image(tmp_path / "img.pfm", shape=(8, 8))
    mask = np.zeros((8, 8))
    mask[:4] = 1.0
    write_pfm(tmp_path / "mask.pfm", mask)
    sample = LabeledSample(image_path=str(tmp_path / "img.pfm"),
                           camera="c", illuminant=np.ones(3) / np.sqrt(3.0),
                           mask_path=str(tmp_path / "mask.pfm"))
    img = sample.load(working_res=None)
    assert img.mask.dtype == bool
    assert np.array_equal(img.mask, mask > 0.5)
    small = sample.load(working_res=(4, 4))
    assert small.mask.shape == (4, 4)
    assert small.mask[0].all() and not small.mask[-1].any()


def test_mask_shape_mismatch_rejected(tmp_path):
    _write_image(tmp_path / "img.pfm", shape=(8, 8))
    write_pfm(tmp_path / "mask.pfm", np.ones((4, 4)))
    sample = LabeledSample(image_path=str(tmp_path / "img.pfm"),
                           camera="c", illuminant=np.ones(3) / np.sqrt(3.0),
                           mask_path=str(tmp_path / "mask.pfm"))
    with pytest.raises(DataError):
        sample.load()


def test_gray_file_rejected_as_image(tmp_path):
    write_pfm(tmp_path / "img.pfm", np.ones((4, 4)))
    sample = LabeledSample(image_path=str(tmp_path / "img.pfm"),
                           camera="c", illuminant=np.ones(3) / np.sqrt(3.0))
    with pytest.raises(DataError):
        sample.load()


def test_non_unit_illuminant_normalized_with_warning(tmp_path):
    with pytest.warns(UserWarning, match="re-normalized"):
        sample = LabeledSample(image_path="x.pfm", camera="c",
                               illuminant=[2.0, 2.0, 2.0])
    assert np.allclose(sample.illuminant, np.ones(3) / np.sqrt(3.0))
    with pytest.raises(DataError):
        LabeledSample(image_path="x.pfm", camera="c",
                      illuminant=[1.0, 0.0, -1.0])


def test_manifest_parse_errors(tmp_path):
    img = tmp_path / "a.pfm"
    _write_image(img)
    profile_line = ('{"type": "camera", "camera": "c", "q1": 2856, '
                    '"q2": 6504, "c1": %s, "c2": %s}'
                    % (np.eye(3).tolist(), np.eye(3).tolist()))
    image_line = ('{"type": "image", "camera": "c", "image": "a.pfm", '
                  '"illuminant": [0.5, 0.7071067811865476, 0.5]}')

    def check(text, match):
        path = tmp_path / "m.jsonl"
        path.write_text(text)
        with pytest.raises(DataError, match=match):
            load_dataset(path)

    check("not json\n", "invalid JSON")
    check('{"type": "mystery"}\n', "unknown record type")
    check(image_line + "\n", "no profile record")
    check(profile_line + "\n"
          + '{"type": "image", "camera": "c", "image": "a.pfm"}\n',
          "missing key")
    check(profile_line + "\n" + image_line.replace("a.pfm", "gone.pfm")
          + "\n", "missing file")
    # comments and blank lines are fine; line numbers point at the offender
    check("# header\n\n" + profile_line + "\nnope\n", "4")
    with pytest.raises(DataError):
        load_dataset(tmp_path / "absent.jsonl")


def _records():
    camera = {"type": "camera", "camera": "c", "q1": 2856, "q2": 6504,
              "c1": np.eye(3).tolist(), "c2": np.eye(3).tolist()}
    image = {"type": "image", "camera": "c", "image": "a.pfm",
             "illuminant": [0.5, 0.7071067811865476, 0.5], "scene": "s",
             "meta": {"iso": 100.0, "aperture": 2.8, "exposure_time": 0.01,
                      "baseline_exposure": 0.5, "baseline_noise": 1.5}}
    return camera, image


def _changed(record, key, value, inner=None):
    out = dict(record)
    if inner is None:
        out[key] = value
    else:
        out[key] = dict(out[key], **{inner: value})
    return out


def _manifest_text(camera, image):
    return json.dumps(camera) + "\n" + json.dumps(image) + "\n"


_CAMERA, _IMAGE = _records()
MALFORMED_MANIFESTS = {
    "bare-number-line": "3\n",
    "list-line": "[1, 2]\n",
    "camera-name-list": _manifest_text(_changed(_CAMERA, "camera", ["a"]),
                                       _IMAGE),
    "q1-list": _manifest_text(_changed(_CAMERA, "q1", [2856]), _IMAGE),
    "c1-nan": _manifest_text(_changed(_CAMERA, "c1", [[float("nan")] * 3] * 3),
                             _IMAGE),
    "image-camera-list": _manifest_text(_CAMERA,
                                        _changed(_IMAGE, "camera", ["c"])),
    "image-path-number": _manifest_text(_CAMERA, _changed(_IMAGE, "image", 5)),
    "mask-path-number": _manifest_text(_CAMERA, _changed(_IMAGE, "mask", 5)),
    "scene-list": _manifest_text(_CAMERA, _changed(_IMAGE, "scene", [1])),
    "illuminant-string": _manifest_text(
        _CAMERA, _changed(_IMAGE, "illuminant", "abc")),
    "illuminant-nan": _manifest_text(
        _CAMERA, _changed(_IMAGE, "illuminant", [float("nan"), 1.0, 1.0])),
    "illuminant-norm-overflow": _manifest_text(
        _CAMERA, _changed(_IMAGE, "illuminant", [1e308] * 3)),
    "illuminant-huge-int": _manifest_text(
        _CAMERA, _changed(_IMAGE, "illuminant", [10 ** 400, 1, 1])),
    "meta-number": _manifest_text(_CAMERA, _changed(_IMAGE, "meta", 3)),
    "meta-value-list": _manifest_text(
        _CAMERA, _changed(_IMAGE, "meta", [100.0], inner="iso")),
    "meta-value-nan": _manifest_text(
        _CAMERA, _changed(_IMAGE, "meta", float("nan"),
                          inner="baseline_exposure")),
    "int-past-digit-limit": '{"type": "camera", "q1": 1%s}\n' % ("0" * 5000),
    "deep-nesting": "[" * 100000 + "\n",
    "not-utf8": b'{"type": "camera", "camera": "\xff"}\n',
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_raises_data_error(tmp_path, fault):
    _write_image(tmp_path / "a.pfm")
    path = tmp_path / "m.jsonl"
    text = MALFORMED_MANIFESTS[fault]
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(DataError):
        load_dataset(path)


def test_valid_records_of_the_malformed_cases_load(tmp_path):
    _write_image(tmp_path / "a.pfm")
    path = tmp_path / "m.jsonl"
    path.write_text(_manifest_text(*_records()))
    [sample] = load_dataset(path).samples
    assert sample.scene == "s" and sample.meta.iso == 100.0


def test_meta_round_trips_through_manifest(tmp_path):
    manifest = _manifest_fixture(tmp_path, n_per_camera=1)
    path = tmp_path / "m.jsonl"
    write_manifest(manifest, path)
    got = load_dataset(path).samples[0].meta
    want = manifest.samples[0].meta
    for key in ("iso", "aperture", "exposure_time", "baseline_exposure",
                "baseline_noise"):
        assert getattr(got, key) == getattr(want, key)
    assert got.camera == "cam_a"
    assert np.allclose(got.illuminant, want.illuminant)
