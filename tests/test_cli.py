import struct

import numpy as np
import pytest

from chromacc.autodiff import NumericalError
from chromacc.cli import main
from chromacc.datasets import DatasetManifest, load_dataset, write_manifest
from chromacc.floatmap import read_pfm, write_pfm
from chromacc.hypernet import c5_infer, load_weights
from chromacc.sensor import make_synthetic_camera


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two synthetic camera datasets, a merged manifest, and trained weights,
    all produced through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    alpha = root / "alpha"
    beta = root / "beta"
    assert main(["synth-camera", "8", "--out-dir", str(alpha),
                 "--name", "alpha", "--seed", "1", "--size", "12x16",
                 "--illuminants", "8"]) == 0
    # beta keeps a wider illuminant pool: six captures from a tight pool can
    # cluster in r, which starves the locus fit inside augment
    assert main(["synth-camera", "6", "--out-dir", str(beta),
                 "--name", "beta", "--seed", "2", "--size", "12x16",
                 "--illuminants", "16"]) == 0

    merged = load_dataset(alpha / "manifest.jsonl")
    other = load_dataset(beta / "manifest.jsonl")
    merged.profiles.update(other.profiles)
    merged.samples.extend(other.samples)
    both = root / "both.jsonl"
    write_manifest(merged, both)

    config = root / "train.cfg"
    config.write_text(
        "# tiny run\n"
        "n = 16\nm = 3\ndepth = 2\nbase_channels = 2\n"
        "epochs = 1\nbatch_sizes = 4\nlr = 0.001\nval_fraction = 0.2\n"
        "seed = 5\n")
    weights = root / "model.ccw"
    assert main(["train", str(config), "--data", str(alpha / "manifest.jsonl"),
                 "--out", str(weights)]) == 0
    return {"root": root, "alpha": alpha, "beta": beta, "both": both,
            "config": config, "weights": weights}


def test_synth_camera_output(workspace):
    manifest = load_dataset(workspace["alpha"] / "manifest.jsonl")
    assert len(manifest.samples) == 8
    assert list(manifest.profiles) == ["alpha"]
    for s in manifest.samples:
        assert s.camera == "alpha"
        assert s.meta is not None
        assert s.scene.startswith("alpha_scene_")
        img = s.load(working_res=None)
        assert img.pixels.shape == (12, 16, 3)


def test_train_writes_weights_and_metrics(workspace, capsys):
    # the fixture already trained; rerun to capture stdout
    out = workspace["root"] / "model2.ccw"
    assert main(["train", str(workspace["config"]),
                 "--data", str(workspace["alpha"] / "manifest.jsonl"),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "val_err_deg" in text
    assert f"saved weights to {out}" in text
    assert out.exists()
    # same config and seed reproduce the weight file bit for bit
    assert out.read_bytes() == workspace["weights"].read_bytes()


def test_infer_prints_unit_illuminant(workspace, capsys):
    manifest = load_dataset(workspace["alpha"] / "manifest.jsonl")
    paths = [s.image_path for s in manifest.samples]
    heat = workspace["root"] / "heat.pfm"
    prefix = str(workspace["root"] / "viz")
    assert main(["infer", str(workspace["weights"]), paths[0],
                 paths[1], paths[2], "--heat", str(heat),
                 "--params", prefix]) == 0
    fields = capsys.readouterr().out.split()
    assert len(fields) == 3
    ell = np.array([float(f) for f in fields])
    assert np.isclose(np.linalg.norm(ell), 1.0, atol=1e-6)
    assert np.all(ell > 0)
    assert read_pfm(heat).shape == (16, 16)
    assert read_pfm(prefix + "_bias.pfm").shape == (16, 16)
    assert read_pfm(prefix + "_f0.pfm").shape == (16, 16)
    assert read_pfm(prefix + "_f1.pfm").shape == (16, 16)


def test_infer_without_additional_images(workspace, capsys):
    manifest = load_dataset(workspace["alpha"] / "manifest.jsonl")
    assert main(["infer", str(workspace["weights"]),
                 manifest.samples[0].image_path]) == 0
    assert len(capsys.readouterr().out.split()) == 3


def test_infer_drops_empty_additional_image(workspace, tmp_path, capsys):
    manifest = load_dataset(workspace["alpha"] / "manifest.jsonl")
    query, good = (s.image_path for s in manifest.samples[:2])
    dark = tmp_path / "dark.pfm"
    write_pfm(dark, np.zeros((12, 16, 3)))
    weights = str(workspace["weights"])
    assert main(["infer", weights, query, good]) == 0
    alone = capsys.readouterr().out
    assert main(["infer", weights, query, good, str(dark)]) == 0
    assert capsys.readouterr().out == alone
    # an empty query yields the network's prior, noted on stderr
    assert main(["infer", weights, str(dark), good]) == 0
    out, err = capsys.readouterr()
    assert len(out.split()) == 3 and "nan" not in out
    assert "note:" in err and "prior" in err


def test_infer_reads_images_at_the_working_resolution(workspace, capsys):
    # the captures are 12x16; infer resizes them to WORKING_RES as eval's
    # LabeledSample.load does, so it prints the estimate of the image that
    # eval scores
    samples = load_dataset(workspace["alpha"] / "manifest.jsonl").samples
    weights = load_weights(workspace["weights"])
    query, good = samples[:2]
    assert main(["infer", str(workspace["weights"]), query.image_path,
                 good.image_path]) == 0
    ell = c5_infer(query.load(), [good.load()], weights)[0]
    assert capsys.readouterr().out.split() == [f"{v:.8f}" for v in ell]


def test_augment_builds_target_space_dataset(workspace):
    out_dir = workspace["root"] / "aug"
    assert main(["augment", str(workspace["alpha"] / "manifest.jsonl"),
                 str(workspace["beta"] / "manifest.jsonl"), "5",
                 "--out-dir", str(out_dir), "--seed", "3"]) == 0
    manifest = load_dataset(out_dir / "manifest.jsonl")
    assert len(manifest.samples) == 5
    for s in manifest.samples:
        assert s.camera == "beta"
        assert s.scene.startswith("alpha_scene_")  # provenance carried over
        img = s.load(working_res=None)
        assert img.pixels.shape == (12, 16, 3)
        assert np.all(s.illuminant > 0)


def test_eval_reports_statistics(workspace, capsys):
    assert main(["eval", str(workspace["weights"]),
                 str(workspace["alpha"] / "manifest.jsonl"),
                 "--repeats", "2", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "worst25" in text
    assert text.splitlines()[1].startswith("mean")


def test_eval_gray_world_and_hold_out(workspace, capsys):
    assert main(["eval", str(workspace["weights"]), str(workspace["both"]),
                 "--repeats", "1", "--estimator", "gray-world",
                 "--hold-out", "beta", "--policy", "none"]) == 0
    assert "mean" in capsys.readouterr().out


def test_eval_hold_out_on_a_one_camera_manifest(workspace, capsys):
    # evaluation needs no training split: holding out the only camera
    # used to exit 1, "leave-one-camera-out needs at least 2 cameras"
    assert main(["eval", str(workspace["weights"]),
                 str(workspace["alpha"] / "manifest.jsonl"), "--repeats", "1",
                 "--hold-out", "alpha", "--policy", "none"]) == 0
    assert "mean" in capsys.readouterr().out


def test_eval_cross_camera_policy(workspace, capsys):
    assert main(["eval", str(workspace["weights"]), str(workspace["both"]),
                 "--repeats", "1", "--policy", "cross-camera",
                 "--seed", "4"]) == 0
    capsys.readouterr()


def test_eval_rejects_a_black_image_as_a_data_error(workspace, tmp_path,
                                                   capsys):
    manifest = load_dataset(workspace["alpha"] / "manifest.jsonl")
    dark = tmp_path / "dark.pfm"
    write_pfm(dark, np.zeros((12, 16, 3)))
    manifest.samples[0].image_path = str(dark)
    path = tmp_path / "dark.jsonl"
    write_manifest(manifest, path)
    for estimator in ("network", "gray-world"):
        assert main(["eval", str(workspace["weights"]), str(path),
                     "--repeats", "1", "--estimator", estimator]) == 2
        assert "data error" in capsys.readouterr().err


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_gradcheck_impossible_tolerance_is_numerical_failure(capsys):
    assert main(["gradcheck", "--seed", "0", "--tol", "1e-15",
                 "--probes", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_gradcheck_without_probes_is_a_usage_error(capsys):
    # it used to probe nothing and report "gradient check passed"
    assert main(["gradcheck", "--seed", "0", "--probes", "0"]) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err and "passed" not in captured.out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_count_below_one_is_a_usage_error(workspace, tmp_path, capsys, count):
    # the two counts used to exit 0 after writing a manifest with no image;
    # augment --k used to load both manifests and leave an empty --out-dir,
    # and eval --repeats to load every image, before failing
    alpha = str(workspace["alpha"] / "manifest.jsonl")
    beta = str(workspace["beta"] / "manifest.jsonl")
    assert main(["synth-camera", "--out-dir", str(tmp_path / "synth"),
                 "--size", "12x16", "--illuminants", "8", "--", count]) == 1
    assert main(["augment", alpha, beta,
                 "--out-dir", str(tmp_path / "aug"), "--", count]) == 1
    assert main(["augment", alpha, beta, "1",
                 "--out-dir", str(tmp_path / "aug_k"), f"--k={count}"]) == 1
    assert main(["eval", str(workspace["weights"]), alpha,
                 f"--repeats={count}"]) == 1
    assert not (tmp_path / "synth").exists()
    assert not (tmp_path / "aug").exists()
    assert not (tmp_path / "aug_k").exists()
    err = capsys.readouterr().err
    assert err.count("usage error") == 4
    assert "argument --k" in err and "argument --repeats" in err


@pytest.mark.parametrize("flag", ["--tint", "--perturbation"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
def test_synth_camera_bad_draw_scale_is_a_usage_error(tmp_path, capsys,
                                                       flag, value):
    # nan and inf used to end in a raw OverflowError (--tint) or a
    # "numerical failure" exit 3 (--perturbation), and a negative value in a
    # numpy message that named no flag
    out = tmp_path / "synth"
    assert main(["synth-camera", "2", "--out-dir", str(out), "--size", "12x16",
                 "--illuminants", "8", flag, value]) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_camera_tint_must_stay_below_one(tmp_path, capsys):
    # the red/blue skew 1 / (1 + t) needs t > -1 for every draw in [-1, 1)
    assert main(["synth-camera", "2", "--out-dir", str(tmp_path / "s"),
                 "--tint", "1"]) == 1
    assert "argument --tint" in capsys.readouterr().err


def test_usage_errors_exit_1(workspace, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["eval"]) == 1
    assert main(["eval", str(workspace["weights"]), str(workspace["both"]),
                 "--policy", "sideways"]) == 1
    assert main(["synth-camera", "2", "--out-dir", "/tmp/x",
                 "--size", "banana"]) == 1
    # unknown hold-out camera is caught as a bad argument, not a crash
    assert main(["eval", str(workspace["weights"]), str(workspace["both"]),
                 "--hold-out", "gamma"]) == 1
    capsys.readouterr()


def test_data_errors_exit_2(workspace, tmp_path, capsys):
    assert main(["infer", "/nonexistent.ccw", "/nonexistent.pfm"]) == 2
    assert main(["train", "/nonexistent.cfg", "--data", "x", "--out", "y"]) == 2

    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"P6\n1 1\n-1\n\x00\x00\x00\x00")
    assert main(["infer", str(workspace["weights"]), str(bad)]) == 2

    gray = tmp_path / "gray.pfm"
    write_pfm(gray, np.ones((8, 8)))
    assert main(["infer", str(workspace["weights"]), str(gray)]) == 2

    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"type": "image"}\n')
    assert main(["eval", str(workspace["weights"]), str(manifest)]) == 2
    errs = capsys.readouterr().err
    assert errs.count("data error") == 5


def test_augment_requires_metadata(workspace, tmp_path, capsys):
    # strip metas from a copy of the source manifest
    manifest = load_dataset(workspace["alpha"] / "manifest.jsonl")
    for s in manifest.samples:
        s.meta = None
    stripped = tmp_path / "stripped.jsonl"
    write_manifest(manifest, stripped)
    assert main(["augment", str(stripped),
                 str(workspace["beta"] / "manifest.jsonl"), "2",
                 "--out-dir", str(tmp_path / "aug")]) == 2
    assert "metadata" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _first_value_offset(raw: bytes, block: str) -> int:
    """Byte offset of the first float32 of a named weight block."""
    off = raw.index(block.encode("utf-8")) + len(block)
    return off + 1 + 4 * raw[off]  # ndim byte, then one uint32 per axis


def _corrupt_weights(raw: bytes, fault: str) -> bytes:
    if fault == "cut-in-half":
        return raw[:len(raw) // 2]
    if fault == "cut-in-header":
        return raw[:12]
    if fault == "trailing-bytes":
        return raw + b"\x00junk"
    if fault == "n-65536":  # a (65536, 65536, 4) stack takes 128 GiB
        return raw[:8] + struct.pack("<I", 65536) + raw[12:]
    first = raw.index(b"enc1.conv.w") + len("enc1.conv.w")  # its ndim byte
    ndim = raw[first]
    if fault == "block-past-end":  # every axis of the first block 2^32 - 1
        return (raw[:first + 1] + b"\xff" * 4 * ndim
                + raw[first + 1 + 4 * ndim:])
    if fault == "65-axes":  # the same element count over 65 axes
        return (raw[:first] + bytes([65]) + struct.pack("<I", 1) * (65 - ndim)
                + raw[first + 1:])
    block, value = {"nan-weight": ("enc1.conv.w", float("nan")),
                    "inf-weight": ("bias.head.w", float("inf")),
                    "negative-variance": ("enc1.var", -0.25)}[fault]
    out = bytearray(raw)
    struct.pack_into("<f", out, _first_value_offset(raw, block), value)
    return bytes(out)


@pytest.mark.parametrize("fault", ["cut-in-half", "cut-in-header",
                                   "trailing-bytes", "nan-weight",
                                   "inf-weight", "negative-variance",
                                   "block-past-end", "65-axes", "n-65536"])
def test_damaged_weight_file_exits_2(workspace, tmp_path, capsys, fault):
    query = load_dataset(workspace["alpha"] / "manifest.jsonl") \
        .samples[0].image_path
    bad = tmp_path / "bad.ccw"
    bad.write_bytes(_corrupt_weights(workspace["weights"].read_bytes(), fault))
    assert main(["infer", str(bad), query]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err


def test_non_finite_pixel_exits_2(workspace, tmp_path, capsys):
    pixels = np.full((8, 8, 3), 0.5)
    pixels[3, 4, 1] = np.nan
    bad = tmp_path / "nan.pfm"
    write_pfm(bad, pixels)
    assert main(["infer", str(workspace["weights"]), str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


def test_pixel_past_float32_range_exits_2(workspace, tmp_path, capsys):
    # float32 payload times a huge header scale: finite float64 pixels whose
    # brightness weight overflows (the estimate was NaN, exit 0)
    bad = tmp_path / "bright.pfm"
    write_pfm(bad, np.full((8, 8, 3), 1e30) * [1.0, 2.0, 3.0])
    bad.write_bytes(bad.read_bytes().replace(b"-1.0\n", b"-1e130\n", 1))
    assert main(["infer", str(workspace["weights"]), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "at most" in err


def test_trailing_bytes_in_image_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "long.pfm"
    write_pfm(bad, np.full((8, 8, 3), 0.5))
    bad.write_bytes(bad.read_bytes() + b"garbage")
    assert main(["infer", str(workspace["weights"]), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err


def test_image_float_count_overflow_exits_2(workspace, tmp_path, capsys):
    # width * height * 3 is past 2^63: no array can hold the claimed floats
    bad = tmp_path / "huge.pfm"
    bad.write_bytes(b"PF\n99999999999999999999 1\n-1\n" + b"\x00" * 12)
    assert main(["infer", str(workspace["weights"]), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err


_IMAGE_RECORD = ('{"type": "image", "camera": "c", "image": "a.pfm", '
                 '"illuminant": [0.5, 0.7071067811865476, 0.5]}')


@pytest.mark.parametrize("text", [
    pytest.param("3\n", id="number-line"),
    pytest.param('{"type": "camera", "camera": ["a"], "q1": 2856, "q2": 6504, '
                 '"c1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
                 '"c2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}\n',
                 id="camera-name-list"),
    pytest.param(_IMAGE_RECORD.replace('"a.pfm"', "5") + "\n",
                 id="image-path-number"),
    pytest.param(_IMAGE_RECORD.replace("[0.5, 0.7071067811865476, 0.5]",
                                       '"abc"') + "\n",
                 id="illuminant-string"),
    pytest.param(b'{"type": "camera", "camera": "\xff"}\n', id="not-utf8"),
])
def test_malformed_manifest_exits_2(workspace, tmp_path, capsys, text):
    manifest = tmp_path / "m.jsonl"
    if isinstance(text, bytes):
        manifest.write_bytes(text)
    else:
        manifest.write_text(text)
    assert main(["train", str(workspace["config"]), "--data", str(manifest),
                 "--out", str(tmp_path / "w.ccw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    pytest.param("epochs = abc\n", id="value-not-an-int"),
    pytest.param("epochs 3\n", id="line-without-equals"),
    pytest.param("n = 30\n", id="n-not-a-multiple-of-2-to-depth"),
    pytest.param("epochs = -1\n", id="negative-epochs"),
    pytest.param("batch_sizes = 32,16\n", id="descending-batch-sizes"),
    pytest.param("lamda_f = 0.1\n", id="misspelled-key"),
    pytest.param("lr = 1e999\n", id="infinite-lr"),
    pytest.param("lr = 0\n", id="zero-lr"),
    pytest.param("lr = -0.01\n", id="negative-lr"),
    # Adam's settings are constants of training, not keys
    pytest.param("beta1 = 0.5\n", id="adam-beta1"),
    pytest.param("beta2 = 0.5\n", id="adam-beta2"),
    pytest.param("eps = 0.5\n", id="adam-eps"),
    pytest.param(b"epochs = 1  # \xff\n", id="not-utf8"),
])
def test_malformed_config_exits_2(workspace, tmp_path, capsys, text):
    config = tmp_path / "bad.cfg"
    if isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text)
    assert main(["train", str(config), "--data",
                 str(workspace["alpha"] / "manifest.jsonl"),
                 "--out", str(tmp_path / "w.ccw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err
    assert not (tmp_path / "w.ccw").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_without_images_exits_2(workspace, tmp_path, capsys,
                                         command):
    cameras_only = tmp_path / "cameras.jsonl"
    alpha = load_dataset(workspace["alpha"] / "manifest.jsonl")
    write_manifest(DatasetManifest(profiles=alpha.profiles), cameras_only)
    if command == "train":
        argv = ["train", str(workspace["config"]), "--data",
                str(cameras_only), "--out", str(tmp_path / "w.ccw")]
    else:
        argv = ["eval", str(workspace["weights"]), str(cameras_only)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "no image record" in err


def test_synth_camera_redraws_a_failed_camera(tmp_path):
    # the first camera drawn at seed 18 has a non-positive illuminant
    rng = np.random.default_rng(18)
    with pytest.raises(NumericalError):
        make_synthetic_camera(rng, tint=0.15, perturbation=0.04)
    out = tmp_path / "cam"
    assert main(["synth-camera", "2", "--out-dir", str(out), "--seed", "18",
                 "--size", "12x16"]) == 0
    assert len(load_dataset(out / "manifest.jsonl").samples) == 2
