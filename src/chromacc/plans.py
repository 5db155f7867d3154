"""Additional-image plans: which unlabeled images join each query.

The network conditions a query on m-1 unlabeled images, so their choice is
part of the method.  Training, validation and evaluation all take it from
here.  A plan only ever names distinct ids; `pad` is the one rule that fills
a training query's short list out to m branches; inference runs it as is.
"""

from __future__ import annotations

__all__ = ["camera_groups", "same_camera", "eval_pools", "draw", "pad"]


def camera_groups(cameras, ids=None) -> dict:
    """camera -> its ascending ids, over ids (default: every index)."""
    groups: dict[str, list] = {}
    for i in sorted(range(len(cameras)) if ids is None else ids):
        groups.setdefault(cameras[i], []).append(i)
    return groups


def same_camera(queries, groups, k: int, rng) -> list:
    """Training and validation plan: (query, ids) for each (query, camera)
    pair.  The ids are drawn by rng.choice, k of them without replacement,
    from the camera's group less the query; a smaller pool is taken whole
    and draws nothing."""
    plan = []
    for q, camera in queries:
        pool = [i for i in groups.get(camera, ()) if i != q]
        if len(pool) >= k:
            pool = [int(i) for i in rng.choice(pool, k, replace=False)]
        plan.append((q, pool))
    return plan


def eval_pools(cameras, policy: str, scores=None, pool_size=None):
    """Per-query candidate ids under an evaluation policy: the query's
    camera ("random"), its pool_size highest ("vivid") or lowest ("dull")
    scores there, ties in id order, every other camera ("cross-camera"),
    or nothing ("none")."""
    if policy == "none":
        return [[] for _ in cameras]
    groups = camera_groups(cameras)
    if policy == "cross-camera":
        if len(groups) < 2:
            raise ValueError("cross-camera policy needs images from "
                             "more than one camera")
        others = {c: [i for i, d in enumerate(cameras) if d != c]
                  for c in groups}
        return [others[c] for c in cameras]
    if policy == "random":
        return [[i for i in groups[c] if i != q]
                for q, c in enumerate(cameras)]
    ranked = {c: sorted(ids, key=scores.__getitem__, reverse=policy == "vivid")
              for c, ids in groups.items()}
    # the query is dropped after ranking, so keep room for it
    return [[i for i in ranked[c][:pool_size + 1] if i != q][:pool_size]
            for q, c in enumerate(cameras)]


def draw(pool, k: int, rng) -> list:
    """Evaluation draw: the first k ids of rng.permutation over pool (all
    of them when it is shorter); an empty pool or k = 0 draws nothing."""
    if k == 0 or not pool:
        return []
    return [pool[j] for j in rng.permutation(len(pool))[:k]]


def pad(query, extra, m: int) -> list:
    """The m branch ids of one training query: the query, then extra
    repeated cyclically; with no extra the query stands in."""
    if 1 + len(extra) > m:
        raise ValueError(f"got {1 + len(extra)} branches for m={m}")
    fill = list(extra) or [query]
    return [query] + [fill[i % len(fill)] for i in range(m - 1)]
