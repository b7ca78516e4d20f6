"""Self-tuning cluster-count search: recursive 2-way splits scored by BIC.

The inner loop is k-medians: points are assigned to the nearest head under
Manhattan distance and heads are updated to the component-wise median, which
is the centroid that minimizes total Manhattan cost. The split test uses the
spherical-Gaussian BIC on the subset, with the variance clamped away from
zero so duplicate-heavy subsets behave.

Everything is deterministic for a fixed seed: splits are attempted in FIFO
order and initialization draws from an explicit generator.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

_VARIANCE_FLOOR = 1e-12
_MAX_ITER = 100
_SHIFT_TOL = 1e-9


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
    for j in range(k):
        nj = int(np.sum(labels == j))
        if nj > 0:
            loglik += nj * math.log(nj / n)
    params = k * (d + 1)
    return loglik - 0.5 * params * math.log(n)


@dataclass
class XMeansResult:
    heads: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)

    @property
    def k(self) -> int:
        return self.heads.shape[0]


def _split_init(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two starting heads: the subset median nudged along a random direction."""
    center = np.median(points, axis=0)
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


def xmeans(points: np.ndarray, seed: int, k_max: int = 64) -> XMeansResult:
    """Find a cluster count by recursive BIC-scored bisection.

    Starts from one cluster and repeatedly attempts a 2-way split of each
    cluster, keeping splits that improve the subset BIC, until no split
    helps or ``k_max`` is reached.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a nonempty 2-D array")
    rng = np.random.default_rng(seed)

    final: list[tuple[np.ndarray, np.ndarray]] = []  # (indices, head)
    queue = deque([np.arange(len(points))])
    total = 1
    while queue:
        idx = queue.popleft()
        subset = points[idx]
        head = np.median(subset, axis=0)
        if len(idx) < 4 or not np.any(subset != subset[0]) or total >= k_max:
            final.append((idx, head))
            continue
        child_labels, child_heads = kmedians(subset, _split_init(subset, rng))
        sizes = [int(np.sum(child_labels == j)) for j in range(2)]
        if min(sizes) == 0:
            final.append((idx, head))
            continue
        parent_bic = bic_score(subset, np.zeros(len(subset), dtype=np.intp),
                               head[None, :])
        split_bic = bic_score(subset, child_labels, child_heads)
        if split_bic > parent_bic + 1e-9:
            total += 1
            queue.append(idx[child_labels == 0])
            queue.append(idx[child_labels == 1])
        else:
            final.append((idx, head))

    heads = np.vstack([h for _, h in final])
    labels = np.empty(len(points), dtype=np.intp)
    for j, (idx, _) in enumerate(final):
        labels[idx] = j
    return XMeansResult(heads=heads, labels=labels)
