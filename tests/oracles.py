"""Reference oracles and synthetic fixtures used only by the tests.

``exhaustive_best_k`` is an independent check on the recursive X-means
splitter, ``rand_index`` compares two labelings, ``linear_lookup`` is the
flow-table classifier by definition, and ``make_unit_datasets`` builds a
synthetic fleet for the strategy tests.
"""

from __future__ import annotations

import math
from collections import Counter
from math import comb
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from mudmon.xmeans import bic_score, kmedians


def _split_init_k(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point seeding for an initial k-way split."""
    first = int(rng.integers(len(points)))
    chosen = [first]
    dist = cdist(points, points[[first]], metric="cityblock").ravel()
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, cdist(points, points[[nxt]], metric="cityblock").ravel())
    return points[chosen].astype(float)


def exhaustive_best_k(points: np.ndarray, seed: int, k_range=range(1, 6),
                      restarts: int = 4) -> int:
    """Reference search: full k-medians at every k, best BIC wins.

    Used as an independent check on the recursive splitter.
    """
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    best_k, best_bic = 1, -math.inf
    for k in k_range:
        if k > len(points):
            break
        best_local = -math.inf
        for _ in range(restarts):
            labels, heads = kmedians(points, _split_init_k(points, k, rng))
            if len(np.unique(labels)) < k:
                continue
            best_local = max(best_local, bic_score(points, labels, heads))
        if best_local > best_bic:
            best_k, best_bic = k, best_local
    return best_k


def rand_index(assignment_a: Sequence, assignment_b: Sequence) -> float:
    """Pairwise-agreement similarity of two labelings over the same points."""
    if len(assignment_a) != len(assignment_b):
        raise ValueError("labelings must cover the same points")
    n = len(assignment_a)
    if n < 2:
        raise ValueError("need at least two points")
    pairs = comb(n, 2)
    joint = Counter(zip(assignment_a, assignment_b))
    a_sizes = Counter(assignment_a)
    b_sizes = Counter(assignment_b)
    both_same = sum(comb(c, 2) for c in joint.values())
    a_same = sum(comb(c, 2) for c in a_sizes.values())
    b_same = sum(comb(c, 2) for c in b_sizes.values())
    return (pairs + 2 * both_same - a_same - b_same) / pairs


def linear_lookup(entries: Sequence, pkt):
    """The entry a packet hits: highest priority first, first-inserted on ties.

    A full scan in ``(-priority, seq)`` order, independent of how the switch
    indexes its tables; None on a miss.
    """
    for entry in sorted(entries, key=lambda e: (-e.priority, e.seq)):
        if entry.match.matches(pkt):
            return entry
    return None


def make_unit_datasets(
    n_units: int,
    rows_per_unit: int,
    seed: int = 0,
    n_features: int = 12,
    shared_modes: int = 2,
    identical: bool = False,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Synthetic fleet: per-unit benign matrices plus a labeled eval mix.

    Every unit shares a few base activity modes; unless ``identical``, unit
    i adds one tight unit-specific mode, so a type model must see the unit
    to cover it. The evaluation set mixes benign rows from every unit with
    attack rows far outside all modes (label 1).
    """
    rng = np.random.default_rng(seed)
    base_centers = rng.uniform(0.0, 30.0, size=(shared_modes, n_features))
    unit_sets: list[np.ndarray] = []
    eval_parts: list[np.ndarray] = []
    for u in range(n_units):
        own_center = (base_centers[0] if identical
                      else rng.uniform(40.0 + 25.0 * u, 50.0 + 25.0 * u,
                                       size=n_features))
        rows = []
        for _ in range(rows_per_unit):
            r = rng.random()
            if identical or r < 0.7:
                c = base_centers[int(rng.integers(shared_modes))]
            else:
                c = own_center
            rows.append(c + rng.normal(0.0, 0.8, size=n_features))
        unit_sets.append(np.array(rows))
        eval_rows = []
        for _ in range(max(40, rows_per_unit // 10)):
            r = rng.random()
            if identical or r < 0.7:
                c = base_centers[int(rng.integers(shared_modes))]
            else:
                c = own_center
            eval_rows.append(c + rng.normal(0.0, 0.8, size=n_features))
        eval_parts.append(np.array(eval_rows))
    benign_eval = np.vstack(eval_parts)
    attack_eval = rng.uniform(-400.0, -300.0,
                              size=(len(benign_eval) // 2, n_features))
    eval_x = np.vstack([benign_eval, attack_eval])
    eval_y = np.concatenate([np.zeros(len(benign_eval), dtype=int),
                             np.ones(len(attack_eval), dtype=int)])
    return unit_sets, eval_x, eval_y
