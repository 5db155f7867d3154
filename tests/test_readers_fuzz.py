"""Fuzzing of the two binary readers, read_pfm and load_weights.

Each input starts from a valid file, which is then cut at a random offset,
has random bytes changed, or is replaced by random garbage.  The reader
either loads it or raises DataError; no other exception may escape.  Each
fault found this way has a named regression case beside the reader's other
tests (test_floatmap.py, test_hypernet.py, test_cli.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacc.hypernet as hn
from chromacc.floatmap import DataError, read_pfm, write_pfm

# bytes of the weight-file header: magic, architecture and block count
WEIGHT_HEADER = 32


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_pfm(root / "color.pfm", rng.uniform(0.0, 1.0, (3, 4, 3)))
    write_pfm(root / "gray.pfm", rng.uniform(0.0, 1.0, (2, 5)))
    arch = hn.ArchitectureConfig(n=16, m=3, depth=2, base_channels=2,
                                 emit_gain=True)
    hn.save_weights(hn.init_weights(arch, rng), root / "model.ccw")
    return root, {name: (root / name).read_bytes()
                  for name in ("color.pfm", "gray.pfm", "model.ccw")}


@st.composite
def damaged(draw, valid: bytes, header: int):
    """valid cut short, with 1-8 bytes changed (half of them aimed at the
    first header bytes), or random bytes of up to twice its length."""
    kind = draw(st.sampled_from(["truncate", "flip", "garbage"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "garbage":
        return draw(st.binary(max_size=2 * len(valid)))
    out = bytearray(valid)
    where = st.one_of(st.integers(0, header - 1),
                      st.integers(0, len(valid) - 1))
    for pos, mask in draw(st.lists(st.tuples(where, st.integers(1, 255)),
                                   min_size=1, max_size=8)):
        out[pos] ^= mask
    return bytes(out)


def loads_or_data_error(reader, path, blob: bytes):
    path.write_bytes(blob)
    try:
        reader(path)
    except DataError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(["color.pfm", "gray.pfm"]))
def test_read_pfm_raises_only_data_error(valid_files, data, name):
    root, valid = valid_files
    blob = data.draw(damaged(valid[name], header=16))
    loads_or_data_error(read_pfm, root / "fuzzed.pfm", blob)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_weights_raises_only_data_error(valid_files, data):
    root, valid = valid_files
    blob = data.draw(damaged(valid["model.ccw"], header=WEIGHT_HEADER))
    loads_or_data_error(hn.load_weights, root / "fuzzed.ccw", blob)
