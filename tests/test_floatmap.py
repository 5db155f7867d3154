import numpy as np
import pytest

from chromacc.floatmap import DataError, read_pfm, write_pfm


def test_color_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(5, 7, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "img.pfm"
    write_pfm(path, data)
    back = read_pfm(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, data)


def test_gray_round_trip_exact(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.normal(size=(4, 6)).astype(np.float32).astype(np.float64)
    path = tmp_path / "mask.pfm"
    write_pfm(path, data)
    assert np.array_equal(read_pfm(path), data)


def test_scanlines_are_bottom_up(tmp_path):
    # Hand-built file: 2x2 color, little-endian, bottom row stored first.
    top = np.array([[[0.0, 0.25, 0.5], [1.0, 1.25, 1.5]]])
    bottom = np.array([[[10.0, 10.25, 10.5], [11.0, 11.25, 11.5]]])
    payload = np.concatenate([bottom, top]).astype("<f4").tobytes()
    path = tmp_path / "fixture.pfm"
    path.write_bytes(b"PF\n2 2\n-1.0\n" + payload)
    img = read_pfm(path)
    assert np.array_equal(img, np.concatenate([top, bottom]))


def test_written_file_stores_bottom_row_first(tmp_path):
    data = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "out.pfm"
    write_pfm(path, data)
    raw = path.read_bytes()
    floats = np.frombuffer(raw.split(b"-1.0\n", 1)[1], dtype="<f4")
    assert floats.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_positive_scale_reads_big_endian_and_scales(tmp_path):
    payload = np.array([1.0, 2.0, 3.0], dtype=">f4").tobytes()
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n3 1\n2.5\n" + payload)
    assert np.array_equal(read_pfm(path), [[2.5, 5.0, 7.5]])


def test_negative_scale_magnitude_applied(tmp_path):
    payload = np.array([4.0], dtype="<f4").tobytes()
    path = tmp_path / "sc.pfm"
    path.write_bytes(b"Pf\n1 1\n-0.5\n" + payload)
    assert read_pfm(path)[0, 0] == 2.0


def test_single_space_header_accepted(tmp_path):
    payload = np.array([7.0], dtype="<f4").tobytes()
    path = tmp_path / "ws.pfm"
    path.write_bytes(b"Pf 1 1 -1.0 " + payload)
    assert read_pfm(path)[0, 0] == 7.0


@pytest.mark.parametrize("blob", [
    b"P6\n1 1\n-1.0\n" + b"\x00" * 4,     # wrong magic
    b"PF\n2 ",                            # header ends mid-token
    b"PF\nab 2\n-1.0\n" + b"\x00" * 24,   # width not an integer
    b"PF\n0 2\n-1.0\n",                   # zero width
    b"PF\n2 2\n0.0\n" + b"\x00" * 48,     # zero scale
    b"PF\n2 2\n-1.0\n" + b"\x00" * 20,    # payload shorter than 12 floats
    pytest.param(b"PF\n2 2\n-1.0\n" + b"\x00" * 48 + b"garbage",
                 id="trailing-bytes"),    # 7 bytes after the 12 floats
    pytest.param(b"PF\n99999999999999999999 1\n-1\n",  # 3e20 floats
                 id="float-count-overflow"),
    pytest.param(b"Pf\n1 1\nnan\n" + b"\x00" * 4, id="nan-scale"),
    pytest.param(b"Pf\n1 1\n1e999\n" + b"\x00" * 4, id="infinite-scale"),
])
def test_malformed_files_rejected(tmp_path, blob):
    path = tmp_path / "bad.pfm"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read_pfm(path)


def test_write_rejects_odd_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 4)))
    with pytest.raises(ValueError):
        write_pfm(tmp_path / "x.pfm", np.zeros(5))


def test_data_error_is_value_error():
    assert issubclass(DataError, ValueError)
