"""Fuzzing of the file readers: read_pfm, load_weights and load_dataset.

Each input starts from a valid file, which is then cut at a random offset,
has random bytes changed, or is replaced by random garbage; a manifest may
also have one field, or one whole line, swapped for another JSON value.
The reader either loads it or raises DataError; no other exception may
escape.  Each fault found this way has a named regression case beside the
reader's other tests (test_floatmap.py, test_hypernet.py, test_datasets.py,
test_cli.py).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacc.hypernet as hn
from chromacc.datasets import load_dataset
from chromacc.floatmap import DataError, read_pfm, write_pfm

# bytes of the weight-file header: magic, architecture and block count
WEIGHT_HEADER = 32

# a camera record and two image records, one with every optional field
MANIFEST_RECORDS = [
    {"type": "camera", "camera": "c", "q1": 2856.0, "q2": 6504.0,
     "c1": [[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]],
     "c2": [[0.9, 0.0, 0.1], [0.1, 1.1, 0.0], [0.0, 0.1, 1.0]]},
    {"type": "image", "camera": "c", "image": "a.pfm", "mask": "a_mask.pfm",
     "illuminant": [0.5, 0.7071067811865476, 0.5], "scene": "s0",
     "meta": {"iso": 100.0, "aperture": 2.8, "exposure_time": 0.01,
              "baseline_exposure": 0.5, "baseline_noise": 1.5}},
    {"type": "image", "camera": "c", "image": "a.pfm",
     "illuminant": [0.48, 0.6, 0.64]},
]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_pfm(root / "color.pfm", rng.uniform(0.0, 1.0, (3, 4, 3)))
    write_pfm(root / "gray.pfm", rng.uniform(0.0, 1.0, (2, 5)))
    arch = hn.ArchitectureConfig(n=16, m=3, depth=2, base_channels=2,
                                 emit_gain=True)
    hn.save_weights(hn.init_weights(arch, rng), root / "model.ccw")
    for name in ("a.pfm", "a_mask.pfm"):  # only checked for existence
        (root / name).write_bytes(b"")
    (root / "data.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in MANIFEST_RECORDS))
    return root, {name: (root / name).read_bytes()
                  for name in ("color.pfm", "gray.pfm", "model.ccw",
                               "data.jsonl")}


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


# any JSON value, including NaN and infinities, ints past float range and
# deep-ish nesting
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**1100, 2**1100)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@st.composite
def swapped_manifest(draw):
    """The valid records with one field (at the top level or in meta) set to
    another JSON value or dropped, or one whole line replaced."""
    records = json.loads(json.dumps(MANIFEST_RECORDS))
    index = draw(st.integers(0, len(records) - 1))
    if draw(st.booleans()):
        records[index] = draw(JSON_VALUES)
    else:
        record = records[index]
        if "meta" in record and draw(st.booleans()):
            record = record["meta"]
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.integers(0, 4)) == 0:
            del record[key]
        else:
            record[key] = draw(JSON_VALUES)
    return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(blob=swapped_manifest())
def test_load_dataset_fields_raise_only_data_error(valid_files, blob):
    root, _ = valid_files
    loads_or_data_error(load_dataset, root / "fuzzed.jsonl", blob)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_dataset_bytes_raise_only_data_error(valid_files, data):
    root, valid = valid_files
    blob = data.draw(damaged(valid["data.jsonl"], header=64))
    loads_or_data_error(load_dataset, root / "fuzzed.jsonl", blob)
