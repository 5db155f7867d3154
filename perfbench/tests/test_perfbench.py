"""Tests of the benchmark itself, at the smoke size.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from chromacc import sensor  # noqa: E402
from chromacc.synthbench import make_benchmark  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the first smoke synth round loses a stack to an empty histogram at seed 3,
# and a camera draw to a non-positive illuminant at seed 2
EMPTY_STACK_SEED = 3
BAD_CAMERA_SEED = 2


def smoke(workload, seed=0, trace=False):
    return run.run(workload, seed, 0.0, trace, "smoke")


def test_spec_names_every_workload():
    assert WORKLOADS == list(W.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_repeats(workload):
    first, again = smoke(workload), smoke(workload)
    assert first["correct"], first["problems"]
    assert first["attempted"] >= 1
    assert list(first["metrics"]) == E2E
    assert all(v > 0 for v in first["metrics"].values())
    # accuracy repeats bit for bit across runs at one seed
    for name in ("err_deg", "gray_world_err_deg"):
        assert again["metrics"][name] == first["metrics"][name]
    assert again["details"].get("single_err_deg") == \
        first["details"].get("single_err_deg")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_every_accuracy_metric_bit_identical(workload):
    plain = W.WORKLOADS[workload](0, W.SMOKE)
    plain.setup()
    untraced = [plain.unit(i) for i in range(plain.min_units)]

    wl = W.WORKLOADS[workload](0, W.SMOKE)
    tracer = Tracer()
    with tracer.phase("setup"):
        wl.setup()
    with tracer.phase("measure"):
        traced = [wl.unit(i) for i in range(wl.min_units)]
    assert wl.setup_digest() == plain.setup_digest()
    assert [u.digest for u in traced] == [u.digest for u in untraced]
    assert wl.accuracy(traced) == plain.accuracy(untraced)
    metrics = layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_frac"} == set(PER_LAYER)
    # self times account for the traced wall time
    modules = sum(v for k, v in metrics.items()
                  if k.endswith(".self_s") and not k.startswith("setup.")
                  and k.count(".") == 1)
    assert modules == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_tracer_restores_the_package():
    from chromacc import autodiff, evaluation, hypernet
    before = (autodiff.conv3x3, hypernet.infer_from_stacks,
              evaluation.infer_from_stacks, sensor.AugmentTarget.__dict__["build"])
    with Tracer().phase("measure"):
        assert autodiff.conv3x3 is not before[0]
        assert evaluation.infer_from_stacks is not before[2]
    assert (autodiff.conv3x3, hypernet.infer_from_stacks,
            evaluation.infer_from_stacks,
            sensor.AugmentTarget.__dict__["build"]) == before


def test_synthesize_follows_make_benchmark():
    seed = [0, 0]
    data = W.synthesize(np.random.default_rng(seed), sensor.CMFTable.load(),
                        2, 4, 8)
    assert data.failed == 0
    bench = make_benchmark(seed=seed, n_train_cameras=2, captures_per_camera=4,
                           train_images=8, eval_images=0, tint=W.TINT,
                           perturbation=W.PERTURBATION)
    assert len(data.samples) == len(bench.train) == 8
    for ours, theirs in zip(data.samples, bench.train):
        assert np.array_equal(ours.stack, theirs.stack)
        assert np.array_equal(ours.illuminant, theirs.illuminant)
        assert ours.camera == theirs.camera


def _first_round(seed):
    s = W.SMOKE
    return W.synthesize(np.random.default_rng([seed, 0]), sensor.CMFTable.load(),
                        s.synth_cameras, s.synth_captures, s.synth_stacks,
                        s.synth_illuminants)


def test_non_default_seed_completes_with_failures_counted():
    assert _first_round(EMPTY_STACK_SEED).empty_stacks >= 1
    assert _first_round(BAD_CAMERA_SEED).bad_cameras >= 1
    for workload in WORKLOADS:
        rec = smoke(workload, seed=EMPTY_STACK_SEED)
        assert rec["correct"], rec["problems"]
    for seed in (EMPTY_STACK_SEED, BAD_CAMERA_SEED):
        rec = smoke("synth", seed=seed)
        assert rec["correct"], rec["problems"]
        assert rec["failed"] >= 1
        assert rec["metrics"]["ok_frac"] < 1.0


def test_traced_smoke_run_reports_every_per_layer_metric():
    rec = smoke("eval", trace=True)
    assert rec["correct"], rec["problems"]
    assert set(rec["metrics"]) == set(PER_LAYER)
    assert rec["metrics"]["hypernet.infer_from_stacks.calls"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(19)))[0] == 50
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 95


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_command_prints_the_contract_object_last():
    out = _cli(ROOT, "--workload", "infer", "--seed", "1", "--seconds", "0",
               "--trace", "0", "--size", "smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert list(last["metrics"]) == E2E
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in last["metrics"].items())


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _cli(tmp_path, "--workload", "synth", "--seed", "0", "--seconds",
               "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
