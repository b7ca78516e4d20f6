import numpy as np
import pytest

from mudmon.errors import EmptyError
from mudmon.strategy import Strategy, train_strategy
from mudmon.worker import TrainConfig

from oracles import make_unit_datasets


CFG = TrainConfig(min_train_rows=50)


class TestStrategies:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_no_units_raises_empty_error(self, strategy):
        with pytest.raises(EmptyError):
            train_strategy([], strategy, CFG)

    def test_single_unit_equivalent_inputs(self):
        units, ex, ey = make_unit_datasets(1, 300, seed=0)
        per_unit = train_strategy(units, Strategy.PER_UNIT, CFG, seed=1)
        naive = train_strategy(units, Strategy.NAIVE_TYPE, CFG, seed=1)
        universal = train_strategy(units, Strategy.UNIVERSAL_TYPE, CFG, seed=1)
        progressive = train_strategy(units, Strategy.PROGRESSIVE_TYPE, CFG, seed=1)
        counts = {per_unit.train_instances, naive.train_instances,
                  universal.train_instances, progressive.train_instances}
        assert counts == {300}

    def test_per_unit_one_model_each(self):
        units, _, _ = make_unit_datasets(4, 200, seed=1)
        result = train_strategy(units, Strategy.PER_UNIT, CFG, seed=0)
        assert len(result.models) == 4

    def test_naive_choice_is_seeded(self):
        units, _, _ = make_unit_datasets(5, 200, seed=2)
        a = train_strategy(units, Strategy.NAIVE_TYPE, CFG, seed=3)
        b = train_strategy(units, Strategy.NAIVE_TYPE, CFG, seed=3)
        assert a.models[0][1].to_json() == b.models[0][1].to_json()

    def test_progressive_growth_bounded_on_identical_units(self):
        units, _, _ = make_unit_datasets(4, 400, seed=3, identical=True)
        result = train_strategy(units, Strategy.PROGRESSIVE_TYPE, CFG, seed=0)
        # Later units add only boundary leakage, about the 2.5% tail.
        for prev, cur in zip(result.instance_curve, result.instance_curve[1:]):
            assert cur - prev <= 0.06 * 400

    def test_progressive_uses_fewer_instances_than_universal(self):
        units, ex, ey = make_unit_datasets(6, 400, seed=4)
        uni = train_strategy(units, Strategy.UNIVERSAL_TYPE, CFG, seed=0)
        prog = train_strategy(units, Strategy.PROGRESSIVE_TYPE, CFG, seed=0,
                              eval_x=ex, eval_y=ey)
        assert prog.train_instances < uni.train_instances
        assert len(prog.accuracy_curve) == 6

    def test_progressive_accuracy_non_decreasing(self):
        units, ex, ey = make_unit_datasets(6, 400, seed=5)
        prog = train_strategy(units, Strategy.PROGRESSIVE_TYPE, CFG, seed=0,
                              eval_x=ex, eval_y=ey)
        curve = prog.accuracy_curve
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        uni = train_strategy(units, Strategy.UNIVERSAL_TYPE, CFG, seed=0)
        uni_acc = np.mean(uni.models[0][1].predict_batch(ex) == (ey == 1))
        assert curve[-1] >= uni_acc - 0.02
