"""Self-tuning cluster-count search: recursive 2-way splits scored by BIC.

The inner loop is k-medians: points are assigned to the nearest head under
Manhattan distance and heads are updated to the component-wise median, which
is the centroid that minimizes total Manhattan cost. The split test uses the
spherical-Gaussian BIC on the subset, with the variance clamped away from
zero so duplicate-heavy subsets behave.

Everything is deterministic for a fixed seed: splits are attempted in FIFO
order and initialization draws from an explicit generator.

``xmeans`` returns ``(labels, heads)`` as ``kmedians`` does, and trusts its
caller (the worker's row gate) for a nonempty 2-D float matrix.
``MAX_CLUSTERS``, the default ``k_max``, is defined here only.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.spatial.distance import cdist

_VARIANCE_FLOOR = 1e-12
_MAX_ITER = 100
_SHIFT_TOL = 1e-9
MAX_CLUSTERS = 64


def kmedians(points: np.ndarray, init_heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd-style iteration under Manhattan distance with median updates.

    Returns (labels, heads). Empty clusters are re-seeded with the point
    farthest from its head.
    """
    heads = init_heads.astype(float).copy()
    k = heads.shape[0]
    labels = np.zeros(len(points), dtype=np.intp)
    for _ in range(_MAX_ITER):
        dists = cdist(points, heads, metric="cityblock")
        labels = np.argmin(dists, axis=1)
        new_heads = heads.copy()
        for j in range(k):
            members = points[labels == j]
            if len(members) == 0:
                worst = int(np.argmax(dists[np.arange(len(points)), labels]))
                new_heads[j] = points[worst]
                labels[worst] = j
            else:
                new_heads[j] = np.median(members, axis=0)
        shift = float(np.abs(new_heads - heads).max())
        heads = new_heads
        if shift < _SHIFT_TOL:
            break
    dists = cdist(points, heads, metric="cityblock")
    labels = np.argmin(dists, axis=1)
    return labels, heads


def bic_score(points: np.ndarray, labels: np.ndarray, heads: np.ndarray) -> float:
    """Spherical-Gaussian BIC of a clustering over the given points."""
    n, d = points.shape
    k = heads.shape[0]
    if n <= k:
        return -math.inf
    diffs = points - heads[labels]
    sse = float(np.sum(diffs * diffs))
    var = max(sse / (d * (n - k)), _VARIANCE_FLOOR)
    loglik = -0.5 * n * d * math.log(2.0 * math.pi * var) - 0.5 * d * (n - k)
    for nj in np.bincount(labels, minlength=k).tolist():
        if nj > 0:
            loglik += nj * math.log(nj / n)
    params = k * (d + 1)
    return loglik - 0.5 * params * math.log(n)


def _split_init(points: np.ndarray, center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two starting heads: the subset median nudged along a random direction."""
    spread = np.mean(np.abs(points - center), axis=0)
    if float(spread.max(initial=0.0)) <= 0.0:
        return np.vstack([center, center])
    direction = rng.standard_normal(points.shape[1])
    norm = float(np.abs(direction).sum())
    if norm == 0.0:
        direction[:] = 1.0
        norm = float(points.shape[1])
    delta = direction / norm * (spread + 1e-12)
    return np.vstack([center - delta, center + delta])


def _split(subset: np.ndarray, head: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """Child labels of a 2-way split of ``subset`` if it raises the BIC, else None.

    ``head`` is the subset median. Under four rows or one repeated row, None.
    """
    if len(subset) < 4 or not np.any(subset != subset[0]):
        return None
    labels, heads = kmedians(subset, _split_init(subset, head, rng))
    if np.bincount(labels, minlength=2).min() == 0:
        return None
    parent_bic = bic_score(subset, np.zeros(len(subset), dtype=np.intp), head[None, :])
    return labels if bic_score(subset, labels, heads) > parent_bic + 1e-9 else None


def xmeans(points: np.ndarray, seed: int, k_max: int = MAX_CLUSTERS
           ) -> tuple[np.ndarray, np.ndarray]:
    """Find a cluster count by recursive BIC-scored bisection.

    Starts from one cluster and repeatedly attempts a 2-way split of each
    cluster, keeping splits that improve the subset BIC, until no split
    helps or ``k_max`` is reached. Returns (labels, heads).
    """
    rng = np.random.default_rng(seed)
    final: list[tuple[np.ndarray, np.ndarray]] = []  # (indices, head)
    queue = deque([np.arange(len(points))])
    while queue:
        idx = queue.popleft()
        subset = points[idx]
        head = np.median(subset, axis=0)
        # Clusters so far: the finished ones, the queued ones and this one.
        children = None if len(final) + len(queue) + 1 >= k_max else _split(subset, head, rng)
        if children is None:
            final.append((idx, head))
        else:
            queue.append(idx[children == 0])
            queue.append(idx[children == 1])

    labels = np.empty(len(points), dtype=np.intp)
    for j, (idx, _) in enumerate(final):
        labels[idx] = j
    return labels, np.vstack([h for _, h in final])
