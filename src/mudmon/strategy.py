"""Model-management strategies for fleets of same-type devices.

Four ways to serve N units of one device type:

* per_unit: one model per unit,
* naive_type: a randomly chosen unit's model represents the type,
* universal_type: one model trained on the pooled instances of all units,
* progressive_type: start from the first unit, then for each further unit
  score its instances and retrain with only the misclassified ones appended,
  so the type model grows by what it did not already know.

Each result carries the training-instance count, plus the per-unit
accuracy curve for the progressive strategy when an evaluation set is
supplied. A type model's scope label is ``TYPE_LABEL``.

Units pass the worker's row gate before any training, and must share the
first unit's width, else ``LayoutMismatchError``. So must the evaluation
rows, which come with one label each or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyError, LayoutMismatchError
from .worker import TrainConfig, WorkerModel, _as_floats, _rows, train

TYPE_LABEL = "type"


class Strategy(str, Enum):
    PER_UNIT = "per_unit"
    NAIVE_TYPE = "naive_type"
    UNIVERSAL_TYPE = "universal_type"
    PROGRESSIVE_TYPE = "progressive_type"


@dataclass
class StrategyResult:
    strategy: Strategy
    models: list[tuple[str, WorkerModel]]  # (scope label, model)
    train_instances: int
    # Progressive only: accuracy on the evaluation set after covering each
    # unit, and the training-set size at each step.
    accuracy_curve: list[float] = field(default_factory=list)
    instance_curve: list[int] = field(default_factory=list)


def _accuracy(model: WorkerModel, eval_x: np.ndarray, eval_y: np.ndarray) -> float:
    """Fraction of evaluation instances classified correctly.

    Labels: 0 benign, 1 attack. Boundary-only scoring.
    """
    flagged = model.predict_batch(eval_x)
    return float(np.mean(flagged == (eval_y == 1)))


def train_strategy(
    unit_sets: list[np.ndarray],
    strategy: Strategy,
    cfg: TrainConfig | None = None,
    seed: int = 0,
    eval_x: np.ndarray | None = None,
    eval_y: np.ndarray | None = None,
) -> StrategyResult:
    """Train models for one device type under the chosen strategy.

    ``unit_sets`` holds one time-ordered benign matrix per unit. All
    randomized steps (unit choice, cluster init) derive from ``seed``.
    ``strategy`` may be given by value; an unknown one raises ValueError.
    ``eval_x`` and ``eval_y`` (one 0/1 label per row) come together or not
    at all.
    """
    strategy = Strategy(strategy)
    if not unit_sets:
        raise EmptyError("need at least one unit")
    training = _rows(unit_sets[0])
    units = [training] + [_rows(x, training.shape[1]) for x in unit_sets[1:]]
    if (eval_x is None) != (eval_y is None):
        raise LayoutMismatchError("eval_x and eval_y come together or not at all")
    if eval_x is not None:
        eval_x, eval_y = _rows(eval_x, training.shape[1]), _as_floats(eval_y)
        if eval_y.shape != (len(eval_x),):
            raise LayoutMismatchError(
                f"expected {len(eval_x)} evaluation labels, got shape {eval_y.shape}")

    if strategy is Strategy.PER_UNIT:
        models = [(f"unit{i}", train(x, cfg, seed=seed + i))
                  for i, x in enumerate(units)]
        return StrategyResult(
            strategy, models,
            train_instances=sum(len(x) for x in units))

    if strategy is Strategy.NAIVE_TYPE:
        chosen = int(np.random.default_rng(seed).integers(len(units)))
        model = train(units[chosen], cfg, seed=seed)
        return StrategyResult(
            strategy, [(TYPE_LABEL, model)],
            train_instances=len(units[chosen]))

    if strategy is Strategy.UNIVERSAL_TYPE:
        pooled = np.vstack(units)
        model = train(pooled, cfg, seed=seed)
        return StrategyResult(
            strategy, [(TYPE_LABEL, model)],
            train_instances=len(pooled))

    # Progressive: grow the training set by misclassified instances only.
    model = train(training, cfg, seed=seed)
    curve: list[float] = []
    sizes: list[int] = [len(training)]
    if eval_x is not None:
        curve.append(_accuracy(model, eval_x, eval_y))
    for unit_x in units[1:]:
        flagged = model.predict_batch(unit_x)
        missed = unit_x[flagged]
        if len(missed):
            training = np.vstack([training, missed])
            model = train(training, cfg, seed=seed)
        sizes.append(len(training))
        if eval_x is not None:
            curve.append(_accuracy(model, eval_x, eval_y))
    return StrategyResult(
        Strategy.PROGRESSIVE_TYPE, [(TYPE_LABEL, model)],
        train_instances=len(training),
        accuracy_curve=curve, instance_curve=sizes)
