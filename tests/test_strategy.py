import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mudmon.errors import EmptyError, LayoutMismatchError, MudmonError
from mudmon.strategy import Strategy, train_strategy
from mudmon.worker import TrainConfig

from oracles import make_unit_datasets


CFG = TrainConfig(min_train_rows=50)

_VALUES = st.one_of(st.integers(-3, 3).map(float),
                    st.sampled_from([float("nan"), float("inf")]))
_MATRIX = arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(0, 3)),
                 elements=_VALUES)
_VECTOR = arrays(np.float64, st.integers(0, 8), elements=_VALUES)
# Matrices of any width (zero columns included) holding NaN and inf too,
# 1-D and 3-D arrays, nested lists (ragged ones too) and strings.
_UNIT = st.one_of(
    _MATRIX,
    _VECTOR,
    arrays(np.float64, st.tuples(*[st.integers(1, 3)] * 3), elements=_VALUES),
    _MATRIX.map(lambda x: x.tolist()),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=6),
    st.text(max_size=4),
)


class TestStrategies:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_no_units_raises_empty_error(self, strategy):
        with pytest.raises(EmptyError):
            train_strategy([], strategy, CFG)

    def test_strategy_given_by_value(self):
        units, _, _ = make_unit_datasets(n_units=3, rows_per_unit=120, seed=2)
        by_value = train_strategy(units, "universal_type", CFG, seed=1)
        by_enum = train_strategy(units, Strategy.UNIVERSAL_TYPE, CFG, seed=1)
        assert by_value.strategy is Strategy.UNIVERSAL_TYPE
        assert by_value.train_instances == by_enum.train_instances == 360
        assert by_value.models[0][1].to_json() == by_enum.models[0][1].to_json()

    def test_unknown_strategy_raises(self):
        units, _, _ = make_unit_datasets(n_units=2, rows_per_unit=60, seed=2)
        with pytest.raises(ValueError):
            train_strategy(units, "universal", CFG)

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


class TestUnitsFailClosed:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_UNIT, min_size=1, max_size=4), st.sampled_from(list(Strategy)))
    @example([np.zeros((4, 3)), np.zeros((4, 4))], Strategy.UNIVERSAL_TYPE)
    @example([[[1.0, 2.0]] * 4, [[1.0, 2.0]] * 4], Strategy.PROGRESSIVE_TYPE)
    @example(["ab", "cd"], Strategy.PROGRESSIVE_TYPE)
    def test_returns_or_raises_mudmon_error(self, units, strategy):
        try:
            train_strategy(units, strategy, TrainConfig(min_train_rows=2))
        except MudmonError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.lists(arrays(np.float64, (4, 2), elements=st.integers(-3, 3).map(float)),
                    max_size=3),
           _VECTOR, st.integers(0, 3), st.sampled_from(list(Strategy)))
    @example([np.arange(3.0)] * 2, np.arange(3.0), 0, Strategy.UNIVERSAL_TYPE)
    def test_one_d_unit_raises_layout_mismatch(self, units, vector, at, strategy):
        units.insert(at, vector)
        with pytest.raises(LayoutMismatchError):
            train_strategy(units, strategy, TrainConfig(min_train_rows=2))

    @pytest.mark.parametrize("n_labels", [0, 1, 3, None])
    def test_eval_labels_must_match_eval_rows(self, n_labels):
        units, ex, ey = make_unit_datasets(2, 100)
        labels = None if n_labels is None else ey[:n_labels]
        with pytest.raises(LayoutMismatchError):
            train_strategy(units, Strategy.PROGRESSIVE_TYPE, CFG, eval_x=ex, eval_y=labels)
