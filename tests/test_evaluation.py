import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacc import evaluation, plans
from chromacc.evaluation import (EvalReport, EvalSample, EvalStats,
                                 angular_error, chroma_variance, eval_stats,
                                 format_report, gray_world, run_eval)
from chromacc.histograms import (HistogramConfig, RawImage,
                                 assemble_feature_stack)
from chromacc.hypernet import ArchitectureConfig, infer_from_stacks, init_weights


def test_eval_stats_hand_oracle():
    stats = eval_stats([4.0, 2.0, 1.0, 3.0])
    assert stats.mean == 2.5
    assert stats.median == 2.5
    assert stats.trimean == 2.5
    assert stats.best25 == 1.0
    assert stats.worst25 == 4.0


def test_eval_stats_odd_count():
    # sorted [1..5]: hinges share the middle element
    stats = eval_stats([5.0, 3.0, 1.0, 4.0, 2.0])
    assert stats.median == 3.0
    assert stats.trimean == (2.0 + 2 * 3.0 + 4.0) / 4.0
    assert stats.best25 == 1.5   # ceil(5/4) = 2 smallest
    assert stats.worst25 == 4.5


def test_eval_stats_singleton():
    stats = eval_stats([7.0])
    assert stats.as_tuple() == (7.0,) * 5


def test_eval_stats_rejects_empty():
    with pytest.raises(ValueError):
        eval_stats([])
    with pytest.raises(ValueError):
        eval_stats(np.zeros((2, 2)))


@given(st.lists(st.floats(0.0, 180.0), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_eval_stats_orderings(errors):
    stats = eval_stats(errors)
    for mid in (stats.mean, stats.median, stats.trimean):
        assert stats.best25 <= mid + 1e-12
        assert mid <= stats.worst25 + 1e-12
    assert min(errors) - 1e-12 <= stats.trimean <= max(errors) + 1e-12


def test_report_from_runs_aggregates():
    a = eval_stats([1.0, 3.0])
    b = eval_stats([3.0, 5.0])
    report = EvalReport.from_runs([a, b])
    assert report.runs == (a, b)
    assert report.mean.mean == 3.0
    assert report.mean.best25 == 2.0
    assert report.std.mean == 1.0   # population std of [2, 4]
    assert report.std.worst25 == 1.0
    with pytest.raises(ValueError):
        EvalReport.from_runs([])


def test_gray_world_constant_image():
    img = RawImage(np.tile([0.2, 0.4, 0.4], (5, 5, 1)))
    est = gray_world(img)
    assert np.allclose(est, np.array([1.0, 2.0, 2.0]) / 3.0)


def test_gray_world_respects_mask():
    pixels = np.tile([1.0, 0.0, 0.0], (4, 4, 1))
    pixels[:2] = [0.0, 1.0, 0.0]
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2] = True
    est = gray_world(RawImage(pixels, mask))
    assert np.allclose(est, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        gray_world(RawImage(pixels, np.zeros((4, 4), dtype=bool)))
    with pytest.raises(ValueError):
        gray_world(RawImage(np.zeros((4, 4, 3))))


def test_gray_world_recovers_illuminant_of_balanced_scene():
    rng = np.random.default_rng(3)
    refl = rng.uniform(0.1, 1.0, size=(16, 16, 3))
    refl = refl / refl.mean(axis=(0, 1))  # gray on average
    ell = np.array([0.8, 1.0, 0.4])
    est = gray_world(RawImage(refl * ell))
    assert angular_error(est, ell) < 1e-10


def test_chroma_variance_hand_value():
    # half gray, half with u = 1: population variance 0.25, v contributes 0
    pixels = np.ones((4, 4, 3))
    pixels[2:, :, 0] = np.exp(-1.0)
    assert np.isclose(chroma_variance(RawImage(pixels)), 0.25)


def test_chroma_variance_degenerate_cases():
    assert chroma_variance(RawImage(np.ones((3, 3, 3)))) == 0.0
    assert chroma_variance(RawImage(np.zeros((3, 3, 3)))) == 0.0
    # brightness does not affect chroma spread
    pixels = np.ones((4, 4, 3))
    pixels[2:] *= 7.0
    assert chroma_variance(RawImage(pixels)) == 0.0


def _tagged_image(cam_idx, img_idx, size=6):
    """Half gray, half increasingly chromatic with img_idx; pixel (0, 0)
    carries a gray brightness tag identifying (camera, index)."""
    pixels = np.ones((size, size, 3))
    pixels[size // 2:, :, 0] = np.exp(-0.2 * (img_idx + 1))
    pixels[0, 0] = 1.0 + img_idx + 10.0 * cam_idx
    return RawImage(pixels)


def _decode_tag(image):
    tag = int(round(image.pixels[0, 0, 0])) - 1
    return tag // 10, tag % 10


def _sample_set(cameras=2, per_camera=4):
    ell = np.array([0.5, 0.7071067811865476, 0.5])
    return [EvalSample(_tagged_image(c, i), ell, camera=f"cam{c}")
            for c in range(cameras) for i in range(per_camera)]


def _tiny_weights(m=3, seed=0):
    arch = ArchitectureConfig(n=16, m=m, depth=2, base_channels=2)
    return init_weights(arch, np.random.default_rng(seed))


class _Recorder:
    """Estimator stub that logs which images each query was paired with."""

    def __init__(self):
        self.calls = []

    def __call__(self, query, additional):
        self.calls.append((_decode_tag(query),
                           [_decode_tag(a) for a in additional]))
        return np.array([1.0, 1.0, 1.0])


@pytest.mark.parametrize("policy,check", [
    ("random", "same"), ("vivid", "same"), ("dull", "same"),
    ("cross-camera", "other"),
])
def test_policies_draw_from_the_right_cameras(policy, check):
    samples = _sample_set()
    rec = _Recorder()
    run_eval(_tiny_weights(), samples, policy=policy, repeats=2,
             rng=0, estimator=rec)
    assert len(rec.calls) == 2 * len(samples)
    for (q_cam, q_idx), adds in rec.calls:
        assert len(adds) == 2   # m - 1
        for a_cam, a_idx in adds:
            if check == "same":
                assert a_cam == q_cam
                assert (a_cam, a_idx) != (q_cam, q_idx)
            else:
                assert a_cam != q_cam


def test_vivid_and_dull_rank_by_colorfulness(monkeypatch):
    monkeypatch.setattr(evaluation, "VIVID_POOL", 2)
    samples = _sample_set(cameras=1, per_camera=4)
    rec = _Recorder()
    run_eval(_tiny_weights(), samples, policy="vivid", repeats=3,
             rng=0, estimator=rec)
    # image index tracks chroma spread, so the vivid pool is the two
    # highest indices among the other images
    for (_, q_idx), adds in rec.calls:
        expected = sorted((i for i in range(4) if i != q_idx),
                          reverse=True)[:2]
        assert {a for _, a in adds} <= set(expected)
    rec = _Recorder()
    run_eval(_tiny_weights(), samples, policy="dull", repeats=3,
             rng=0, estimator=rec)
    for (_, q_idx), adds in rec.calls:
        expected = sorted(i for i in range(4) if i != q_idx)[:2]
        assert {a for _, a in adds} <= set(expected)


def test_none_policy_passes_no_additional_images():
    samples = _sample_set()
    rec = _Recorder()
    run_eval(_tiny_weights(), samples, policy="none", repeats=1,
             rng=0, estimator=rec)
    assert all(adds == [] for _, adds in rec.calls)


def test_gray_world_report_independent_of_policy():
    samples = _sample_set()
    estimator = lambda img, extra: gray_world(img)
    reports = [run_eval(_tiny_weights(), samples, policy=p, repeats=3,
                        rng=7, estimator=estimator)
               for p in ("random", "vivid", "dull", "cross-camera", "none")]
    first = reports[0]
    for report in reports[1:]:
        assert report.mean == first.mean
        assert report.std == first.std
        assert report.runs == first.runs


def test_network_eval_deterministic_and_single_image_mode():
    samples = _sample_set(cameras=1, per_camera=3)
    weights = _tiny_weights(m=3)
    r1 = run_eval(weights, samples, policy="random", repeats=2, rng=11)
    r2 = run_eval(weights, samples, policy="random", repeats=2, rng=11)
    assert r1 == r2

    # "none" ignores the rng entirely and matches inference on the query
    # alone
    report = run_eval(weights, samples, policy="none", repeats=2, rng=5)
    assert report.std.as_tuple() == (0.0,) * 5
    cfg = HistogramConfig(n=16)
    errors = []
    for s in samples:
        ell, _, _ = infer_from_stacks(assemble_feature_stack(s.image, cfg),
                                      [], weights)
        errors.append(angular_error(ell, s.illuminant))
    assert report.runs[0] == eval_stats(errors)


def test_run_eval_calls_infer_once_per_query(monkeypatch):
    # the benchmark times each query by hooking evaluation.infer_from_stacks
    samples = _sample_set()
    real, calls = evaluation.infer_from_stacks, []

    def counted(query, extra, weights):
        calls.append(len(extra))
        return real(query, extra, weights)

    monkeypatch.setattr(evaluation, "infer_from_stacks", counted)
    run_eval(_tiny_weights(), samples, policy="random", repeats=3, rng=0)
    assert calls == [2] * (3 * len(samples))   # m - 1 additional each
    calls.clear()
    run_eval(_tiny_weights(), samples, policy="none", repeats=2, rng=0)
    assert calls == [0] * (2 * len(samples))


def _interleaved_runs(weights, samples, repeats, rng):
    """run_eval's network path as it was when each query's draw and
    inference alternated in one loop, for the random policy."""
    rng = np.random.default_rng(rng)
    pools = plans.eval_pools([s.camera for s in samples], "random")
    grid = HistogramConfig(n=weights.arch.n)
    stacks = [assemble_feature_stack(s.image, grid).channel_first()
              for s in samples]
    runs = []
    for _ in range(repeats):
        errors = []
        for i, sample in enumerate(samples):
            adds = plans.draw(pools[i], weights.arch.m - 1, rng)
            ell, _, _ = infer_from_stacks(stacks[i],
                                          [stacks[j] for j in adds], weights)
            errors.append(angular_error(ell, sample.illuminant))
        runs.append(eval_stats(errors))
    return runs


def test_run_eval_matches_the_interleaved_loop():
    samples = _sample_set(cameras=2, per_camera=5)
    weights = _tiny_weights(m=3)
    report = run_eval(weights, samples, policy="random", repeats=3, rng=4)
    assert list(report.runs) == _interleaved_runs(weights, samples, 3, 4)


def test_score_plan_in_plan_order():
    samples = _sample_set(cameras=1, per_camera=4)
    weights = _tiny_weights(m=3)
    stacks = [assemble_feature_stack(s.image, HistogramConfig(n=16))
              .channel_first() for s in samples]
    truth = [s.illuminant for s in samples]
    plan = [(2, [0, 1]), (0, []), (2, [0, 1]), (3, [1])]
    errors = evaluation.score_plan(plan, stacks, truth, weights)
    want = [angular_error(infer_from_stacks(stacks[q],
                                            [stacks[i] for i in extra],
                                            weights)[0], truth[q])
            for q, extra in plan]
    assert errors == want and errors[0] == errors[2]
    assert evaluation.score_plan([], stacks, truth, weights) == []


def test_run_eval_validation():
    samples = _sample_set(cameras=1, per_camera=2)
    weights = _tiny_weights()
    with pytest.raises(ValueError, match="unknown policy"):
        run_eval(weights, samples, policy="best")
    with pytest.raises(ValueError, match="no samples"):
        run_eval(weights, [])
    with pytest.raises(ValueError, match="repeats"):
        run_eval(weights, samples, repeats=0)
    with pytest.raises(ValueError, match="does not match"):
        run_eval(weights, samples, config=HistogramConfig(n=32), rng=0)
    with pytest.raises(ValueError, match="more than one camera"):
        run_eval(weights, samples, policy="cross-camera", rng=0)


def test_repeats_defaults_to_ten():
    assert inspect.signature(run_eval).parameters["repeats"].default == 10


def test_format_report_layout():
    report = EvalReport.from_runs([eval_stats([1.0, 2.0, 3.0, 4.0])])
    text = format_report(report)
    lines = text.splitlines()
    assert len(lines) == 3
    assert "worst25" in lines[0]
    assert "2.5000" in lines[1]
    assert lines[2].startswith("std")


def test_eval_sample_normalizes():
    img = RawImage(np.ones((2, 2, 3)))
    s = EvalSample(img, [2.0, 4.0, 4.0])
    assert np.allclose(s.illuminant, [1 / 3, 2 / 3, 2 / 3])
    # the ground truth is a positive 3-vector, as everywhere else
    for bad in ([0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="illuminant must be"):
            EvalSample(img, bad)
