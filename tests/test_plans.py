"""The additional-image plans, pinned to the samplers they replaced.

The frozen functions below are the earlier per-module samplers: training's
batch draw and validation plan, and evaluation's candidate pools and draw,
each with its own copy of the short-list fallback, plus the padding that
inference applied.  Over random layouts the new plans, padded by plans.pad,
must name the same branches and leave the generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromacc.plans as plans
import chromacc.training as tr

POLICIES = ("random", "vivid", "dull", "cross-camera", "none")


# ----- frozen samplers ------------------------------------------------------------

def frozen_camera_groups(samples):
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.camera, []).append(i)
    return groups


def frozen_sample_batch(samples, query_ids, m, rng):
    groups = frozen_camera_groups(samples)
    batch = []
    for q in query_ids:
        q = int(q)
        group = groups[samples[q].camera]
        pool = [i for i in group if i != q]
        if len(group) >= m:
            extra = list(rng.choice(pool, size=m - 1, replace=False))
        elif pool:
            extra = [pool[j % len(pool)] for j in range(m - 1)]
        else:
            extra = [q] * (m - 1)
        batch.append((q, extra))
    return batch


def frozen_validation_plan(samples, train_ids, val_ids, m, rng):
    train_groups = {}
    for i in train_ids:
        train_groups.setdefault(samples[i].camera, []).append(i)
    plan = []
    for q in val_ids:
        pool = train_groups.get(samples[q].camera, [])
        if len(pool) >= m - 1:
            extra = list(rng.choice(pool, size=m - 1, replace=False)) \
                if m > 1 else []
        elif pool:
            extra = [pool[j % len(pool)] for j in range(m - 1)]
        else:
            extra = [q] * (m - 1)
        plan.append((q, extra))
    return plan


def frozen_candidate_pools(cameras, variances, policy, pool_size):
    # the colorfulness scores are passed in rather than computed from images
    pools = []
    for i in range(len(cameras)):
        if policy == "none":
            pools.append([])
            continue
        if policy == "cross-camera":
            pool = [j for j in range(len(cameras))
                    if j != i and cameras[j] != cameras[i]]
            if not pool:
                raise ValueError("cross-camera policy needs images from "
                                 "more than one camera")
            pools.append(pool)
            continue
        same = [j for j in range(len(cameras))
                if j != i and cameras[j] == cameras[i]]
        if policy in ("vivid", "dull"):
            same.sort(key=lambda j: variances[j], reverse=(policy == "vivid"))
            same = same[:pool_size]
        pools.append(same)
    return pools


def frozen_draw(pool, k, rng):
    if k == 0 or not pool:
        return []
    perm = rng.permutation(len(pool))
    return [pool[perm[t % len(pool)]] for t in range(k)]


def frozen_pad(branches, m):
    """Inference's padding of a query-first branch list."""
    branches = list(branches)
    if len(branches) < m:
        pool = branches[1:] or branches[:1]
        for i in range(m - len(branches)):
            branches.append(pool[i % len(pool)])
    return branches


# ----- layouts ----------------------------------------------------------------------

class _Sample:
    def __init__(self, camera):
        self.camera = camera


@st.composite
def layouts(draw):
    """Cameras of 1-13 images (1-4 distinct), m, a seed, a validation split,
    colorfulness scores with ties, and a pool size."""
    count = draw(st.integers(1, 13))
    cameras = draw(st.lists(st.sampled_from("abcd"), min_size=count,
                            max_size=count))
    val = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    scores = draw(st.lists(st.integers(0, 4).map(float), min_size=count,
                           max_size=count))
    return dict(cameras=cameras, m=draw(st.integers(1, 6)),
                seed=draw(st.integers(0, 2**32 - 1)),
                val_ids=[i for i in range(count) if val[i]],
                train_ids=[i for i in range(count) if not val[i]],
                scores=scores, pool_size=draw(st.integers(0, 6)))


def _ids(plan):
    return [(int(q), [int(i) for i in extra]) for q, extra in plan]


@settings(max_examples=300, deadline=None)
@given(layout=layouts())
def test_training_and_validation_plans_match_frozen_samplers(layout):
    cameras, m, seed = layout["cameras"], layout["m"], layout["seed"]
    samples = [_Sample(c) for c in cameras]
    order = np.random.default_rng(seed).permutation(len(samples))

    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = frozen_sample_batch(samples, order, m, old)
    got = tr.sample_batch(samples, order, m, new)
    assert _ids([(q, frozen_pad([q] + e, m)[1:]) for q, e in want]) \
        == _ids([(q, plans.pad(q, e, m)[1:]) for q, e in got])
    assert all(len(set(e)) == len(e) and q not in e for q, e in got)
    assert old.bit_generator.state == new.bit_generator.state

    train_ids, val_ids = layout["train_ids"], layout["val_ids"]
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = frozen_validation_plan(samples, train_ids, val_ids, m, old)
    got = plans.same_camera([(q, cameras[q]) for q in val_ids],
                            plans.camera_groups(cameras, train_ids), m - 1,
                            new)
    assert _ids([(q, frozen_pad([q] + e, m)[1:]) for q, e in want]) \
        == _ids([(q, plans.pad(q, e, m)[1:]) for q, e in got])
    assert old.bit_generator.state == new.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(layout=layouts(), policy=st.sampled_from(POLICIES),
       repeats=st.integers(1, 3))
def test_evaluation_plans_match_frozen_samplers(layout, policy, repeats):
    cameras, seed = layout["cameras"], layout["seed"]
    scores, pool_size = layout["scores"], layout["pool_size"]
    # "none" runs the network with one branch and draws nothing
    m = 1 if policy == "none" else layout["m"]
    try:
        want_pools = frozen_candidate_pools(cameras, scores, policy,
                                            pool_size)
    except ValueError:
        with pytest.raises(ValueError, match="more than one camera"):
            plans.eval_pools(cameras, policy, scores, pool_size)
        return
    pools = plans.eval_pools(cameras, policy, scores, pool_size)
    assert pools == want_pools

    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(repeats):
        for q in range(len(cameras)):
            want = frozen_pad([q] + frozen_draw(want_pools[q], m - 1, old), m)
            drawn = plans.draw(pools[q], m - 1, new)
            assert len(set(drawn)) == len(drawn)
            assert [int(i) for i in plans.pad(q, drawn, m)] \
                == [int(i) for i in want]
    assert old.bit_generator.state == new.bit_generator.state


# ----- the rules one by one ---------------------------------------------------------

def test_pad_cycles_the_drawn_ids_or_repeats_the_query():
    assert plans.pad(7, [], 1) == [7]
    assert plans.pad(7, [], 3) == [7, 7, 7]
    assert plans.pad(7, [1, 2], 3) == [7, 1, 2]
    assert plans.pad(7, [1, 2], 6) == [7, 1, 2, 1, 2, 1]
    with pytest.raises(ValueError, match="3 branches for m=2"):
        plans.pad(7, [1, 2], 2)


def test_same_camera_draws_only_from_a_big_enough_pool():
    groups = {"a": [0, 1, 2], "b": [3]}
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    # pools of 2 and 0 against k = 3: taken whole, no draw
    assert plans.same_camera([(0, "a"), (3, "b"), (9, "c")], groups, 3,
                             rng) == [(0, [1, 2]), (3, []), (9, [])]
    assert rng.bit_generator.state == before
    [(q, extra)] = plans.same_camera([(0, "a")], groups, 1, rng)
    assert extra in ([1], [2])
    assert rng.bit_generator.state != before


def test_draw_takes_a_permutation_prefix():
    # the same seed and pool give other ids through rng.choice
    pool = [10, 11, 12, 13, 14]
    assert plans.draw(pool, 3, np.random.default_rng(5)) == [14, 13, 11]
    assert list(np.random.default_rng(5).choice(pool, 3, replace=False)) \
        == [13, 12, 10]
    assert plans.draw(pool, 9, np.random.default_rng(5)) == [14, 13, 11,
                                                              12, 10]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert plans.draw([], 3, rng) == [] and plans.draw(pool, 0, rng) == []
    assert rng.bit_generator.state == before


def test_eval_pools_rank_once_and_drop_the_query():
    cameras = ["a", "b", "a", "a", "b", "a"]
    scores = [0.5, 9.0, 0.1, 0.5, 1.0, 0.9]
    assert plans.eval_pools(cameras, "random") == [
        [2, 3, 5], [4], [0, 3, 5], [0, 2, 5], [1], [0, 2, 3]]
    # ties keep id order in both directions
    assert plans.eval_pools(cameras, "vivid", scores, 2) == [
        [5, 3], [4], [5, 0], [5, 0], [1], [0, 3]]
    assert plans.eval_pools(cameras, "dull", scores, 2) == [
        [2, 3], [4], [0, 3], [2, 0], [1], [2, 0]]
    assert plans.eval_pools(cameras, "cross-camera") == [
        [1, 4], [0, 2, 3, 5], [1, 4], [1, 4], [0, 2, 3, 5], [1, 4]]
    assert plans.eval_pools(cameras, "none") == [[]] * 6
    with pytest.raises(ValueError, match="more than one camera"):
        plans.eval_pools(["a", "a"], "cross-camera")


def test_camera_groups_keep_ascending_ids():
    assert plans.camera_groups(["b", "a", "b", "a"]) == {"b": [0, 2],
                                                         "a": [1, 3]}
    assert plans.camera_groups(["b", "a", "b", "a"], [3, 0, 2]) == {
        "b": [0, 2], "a": [3]}
