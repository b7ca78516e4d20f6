import math
import random

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mudmon.errors import (
    InsufficientDataError,
    LayoutMismatchError,
    MudmonError,
    ParseError,
    SchemaError,
)
from mudmon.worker import (
    DetectorMode,
    Reason,
    TrainConfig,
    WorkerModel,
    train,
    train_dispersion,
)
from mudmon.xmeans import bic_score, kmedians, xmeans

from oracles import exhaustive_best_k, rand_index
from test_mud import JSON, _paths


def two_blobs(n=400, seed=0, spread=0.5, centers=((0.0, 0.0), (12.0, 12.0))):
    rng = np.random.default_rng(seed)
    parts = [c + rng.normal(0, spread, size=(n // len(centers), 2)) for c in centers]
    return np.vstack(parts)


class TestXmeans:
    def test_two_blobs_found(self):
        pts = two_blobs()
        result = xmeans(pts, seed=1)
        assert result.k == 2

    def test_matches_exhaustive_oracle(self):
        for seed in (0, 1, 2):
            pts = two_blobs(seed=seed)
            assert xmeans(pts, seed=5).k == exhaustive_best_k(pts, seed=5)

    def test_single_blob_stays_single(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1, size=(300, 3))
        assert xmeans(pts, seed=0).k == 1

    def test_identical_points_never_split(self):
        pts = np.ones((50, 4))
        assert xmeans(pts, seed=0).k == 1

    def test_k_max_respected(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 100, size=(10, 2))
        pts = np.vstack([c + rng.normal(0, 0.1, size=(30, 2)) for c in centers])
        result = xmeans(pts, seed=0, k_max=4)
        assert result.k <= 4

    def test_deterministic_for_seed(self):
        pts = two_blobs(seed=4)
        a = xmeans(pts, seed=9)
        b = xmeans(pts, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.heads, b.heads)

    def test_kmedians_heads_are_medians(self):
        pts = np.array([[0.0], [1.0], [2.0], [100.0], [101.0], [102.0]])
        labels, heads = kmedians(pts, np.array([[0.0], [100.0]]))
        assert sorted(heads.ravel().tolist()) == [1.0, 101.0]
        assert bic_score(pts, labels, heads) > bic_score(
            pts, np.zeros(len(pts), dtype=np.intp), np.median(pts, axis=0)[None, :])


class TestTrain:
    def test_two_blob_training(self):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        assert model.clusters.heads.shape[0] == 2

    def test_correlated_features_one_component(self):
        rng = np.random.default_rng(1)
        base = rng.normal(0, 1, size=500)
        x = np.column_stack([base, 3.0 * base])  # perfectly correlated
        model = train(x, TrainConfig.small(), seed=0)
        assert model.pca.retained == 1
        # z-scored pair has correlation eigenvalues {2, 0}
        assert model.pca.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)
        assert model.pca.coverage == pytest.approx(1.0)

    def test_small_config_rejects_unknown_override(self):
        with pytest.raises(TypeError):
            TrainConfig.small(use_pac=False)

    def test_min_rows_enforced(self):
        with pytest.raises(InsufficientDataError):
            train(np.zeros((5, 3)), TrainConfig(min_train_rows=10))
        with pytest.raises(InsufficientDataError):  # no rows is never enough
            train(np.zeros((0, 3)), TrainConfig(min_train_rows=0))

    def test_quiet_scope_flags_any_change(self):
        row = np.array([0.0, 3.0, 0.0])
        model = train(np.tile(row, (100, 1)), TrainConfig.small())
        assert model.pca is None and model.clusters.radii.tolist() == [0.0]
        assert not model.predict(row)[0].anomalous
        for i in range(3):
            changed = row.copy()
            changed[i] += 1.0
            assert model.predict(changed)[0].anomalous

    def test_constant_columns_dropped(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(size=200), np.full(200, 9.0)])
        model = train(x, TrainConfig.small(), seed=0)
        assert model.norm.kept.tolist() == [0]

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        latent = rng.normal(size=(400, 3))
        mix = rng.normal(size=(3, 10))
        x = latent @ mix + rng.normal(0, 0.05, size=(400, 10))
        model = train(x, TrainConfig.small(), seed=0)
        c = model.pca.components
        gram = c @ c.T
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-9
        assert model.pca.retained == int(np.sum(model.pca.eigenvalues > 1.0))
        assert model.pca.coverage >= 0.9

    def test_boundary_calibration_fraction(self):
        x = two_blobs(n=2000, seed=5)
        model = train(x, TrainConfig.small(), seed=0)
        inside = ~model.predict_batch(x)
        frac = inside.mean()
        n = len(x)
        assert 0.975 - 2 / math.sqrt(n) <= frac <= 1.0


class TestPredict:
    def test_centroid_not_anomalous(self):
        x = two_blobs()
        model = train(x, TrainConfig.small(), seed=0)
        # Reconstruct an input that lands exactly on a head: use a training
        # point closest to its head.
        verdict, _ = model.predict(x[0])
        assert verdict.distance >= 0.0
        centroid_input = x[:200].mean(axis=0)
        v, _ = model.predict(centroid_input)
        assert not v.anomalous

    def test_far_point_is_outside_boundary(self):
        x = two_blobs()
        model = train(x, TrainConfig.small(), seed=0)
        # Far along the represented variance direction (components discard
        # directions the training data never exercised).
        v, _ = model.predict(x.max(axis=0) * 10.0)
        assert v.anomalous and v.reason is Reason.OUTSIDE_BOUNDARY

    def test_layout_mismatch(self):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        with pytest.raises(LayoutMismatchError):
            model.predict([1.0, 2.0, 3.0])

    def test_nan_feature_fails_closed(self):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        v, state = model.predict([float("nan"), 0.0], prev_state=7)
        assert v.anomalous and v.reason is Reason.OUTSIDE_BOUNDARY
        assert state == 7

    def test_nan_row_flagged_in_batch(self):
        x = two_blobs()
        model = train(x, TrainConfig.small(), seed=0)
        rows = np.vstack([x[:200].mean(axis=0), [0.0, float("nan")]])
        assert model.predict_batch(rows).tolist() == [False, True]

    def test_illegal_transition_flagged(self):
        # Cluster A for 50 minutes then cluster B for 50: only A->A, A->B,
        # B->B are legal; B->A was never observed.
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.3, size=(50, 2))
        b = rng.normal(10, 0.3, size=(50, 2))
        x = np.vstack([a, b])
        cfg = TrainConfig.small(detector_mode=DetectorMode.BOUNDARY_PLUS_STATE_MACHINE,
                                use_pca=False)
        model = train(x, cfg, seed=0)
        assert model.clusters.heads.shape[0] == 2
        v1, state = model.predict(a[0], prev_state=None)
        assert not v1.anomalous
        v2, state = model.predict(b[0], prev_state=state)
        assert not v2.anomalous  # A->B seen in training
        v3, state = model.predict(a[1], prev_state=state)
        assert v3.anomalous and v3.reason is Reason.ILLEGAL_TRANSITION

    def test_state_not_advanced_on_outlier(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.3, size=(60, 2))
        b = rng.normal(10, 0.3, size=(60, 2))
        x = np.vstack([a, b])
        cfg = TrainConfig.small(detector_mode=DetectorMode.BOUNDARY_PLUS_STATE_MACHINE,
                                use_pca=False)
        model = train(x, cfg, seed=0)
        _, state = model.predict(a[0], prev_state=None)
        v, state2 = model.predict(np.array([500.0, 500.0]), prev_state=state)
        assert v.anomalous and state2 == state

    def test_boundary_only_subset_of_state_machine_alarms(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(0, 0.5, size=(80, 2)),
                       rng.normal(8, 0.5, size=(80, 2))])
        bd = train(x, TrainConfig.small(use_pca=False), seed=0)
        sm = train(x, TrainConfig.small(
            detector_mode=DetectorMode.BOUNDARY_PLUS_STATE_MACHINE, use_pca=False), seed=0)
        stream = rng.normal(4, 4.0, size=(100, 2))
        state = None
        for row in stream:
            vb, _ = bd.predict(row)
            vs, state = sm.predict(row, prev_state=state)
            if vb.anomalous:
                assert vs.anomalous

    def test_serialization_roundtrip_preserves_predictions(self):
        x = two_blobs(seed=6)
        cfg = TrainConfig.small(detector_mode=DetectorMode.BOUNDARY_PLUS_STATE_MACHINE)
        model = train(x, cfg, seed=0)
        clone = WorkerModel.from_json(model.to_json())
        rng = np.random.default_rng(0)
        probes = rng.uniform(-20, 30, size=(200, 2))
        state_a = state_b = None
        for row in probes:
            va, state_a = model.predict(row, prev_state=state_a)
            vb, state_b = clone.predict(row, prev_state=state_b)
            assert va == vb


class TestDispersion:
    def test_all_zero_benign_entropy(self):
        x = np.zeros((50, 4))
        model = train_dispersion(x, TrainConfig.small())
        assert model.clusters.heads.shape == (1, 4)
        assert float(model.clusters.radii[0]) == 0.0
        quiet, _ = model.predict(np.zeros(4))
        assert not quiet.anomalous
        loud, _ = model.predict(np.array([0.0, 0.0, 4.5, 5.0]))
        assert loud.anomalous

    def test_oscillating_benign_vs_flat_attack(self):
        rng = np.random.default_rng(0)
        # Benign entropy swings between near-zero and bursty values.
        benign = []
        for _ in range(400):
            benign.append([rng.uniform(0, 1.0) if rng.random() < 0.6
                           else rng.uniform(3.0, 6.5) for _ in range(4)])
        model = train_dispersion(np.array(benign), TrainConfig.small())
        attack = np.array([5.5, 5.6, 5.4, 5.5])
        flagged = 0
        for _ in range(20):
            window = attack + rng.normal(0, 0.1, size=4)
            v, _ = model.predict(window)
            flagged += v.anomalous
        assert flagged >= 15

    def test_requires_four_features(self):
        for shape in [(10, 3), (10, 5), (40,), (10, 4, 1)]:
            with pytest.raises(LayoutMismatchError):
                train_dispersion(np.zeros(shape))


class TestFailClosed:
    @pytest.mark.parametrize("shape", [(10,), (4, 3, 2), (10, 0)])
    def test_train_rejects_a_matrix_that_is_not_2d(self, shape):
        with pytest.raises(LayoutMismatchError):
            train(np.zeros(shape), TrainConfig.small())

    @pytest.mark.parametrize("fit", [train, train_dispersion])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_training_value_raises(self, fit, bad):
        x = np.random.default_rng(0).normal(size=(40, 4))
        x[7, 2] = bad
        with pytest.raises(SchemaError):
            fit(x, TrainConfig.small())

    @pytest.mark.parametrize("shape", [(2,), (3, 2, 2)])
    def test_predict_batch_rejects_1d_and_3d_input(self, shape):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        with pytest.raises(LayoutMismatchError):
            model.predict_batch(np.zeros(shape))

    @pytest.mark.parametrize("path", [
        ("norm", "mean"), ("norm", "std"), ("pca", "components"),
        ("pca", "eigenvalues"), ("clusters", "heads"), ("clusters", "radii")])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_from_json_rejects_non_finite_numbers(self, path, bad):
        doc = json.loads(train(two_blobs(), TrainConfig.small(), seed=0).to_json())
        values = doc[path[0]][path[1]]
        if isinstance(values[0], list):
            values[0][0] = bad
        else:
            values[0] = bad
        with pytest.raises(SchemaError):
            WorkerModel.from_json(json.dumps(doc))


class TestRandIndex:
    def test_identical(self):
        assert rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_permuted_names(self):
        assert rand_index(["x", "x", "y", "z"], [5, 5, 9, 7]) == 1.0

    def test_half_split(self):
        assert rand_index(list("aabb"), list("abab")) == pytest.approx(1 / 3)

    def test_enumerated_oracle_on_random_labelings(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 24)
            a = [rng.randint(0, 3) for _ in range(n)]
            b = [rng.randint(0, 3) for _ in range(n)]
            agree = 0
            pairs = 0
            for i in range(n):
                for j in range(i + 1, n):
                    pairs += 1
                    agree += (a[i] == a[j]) == (b[i] == b[j])
            assert rand_index(a, b) == pytest.approx(agree / pairs)

    def test_bounds(self):
        assert 0.0 <= rand_index([0, 1, 0, 1], [1, 1, 0, 0]) <= 1.0


MODEL_ROWS = arrays(np.float64, st.tuples(st.integers(8, 60), st.integers(1, 4)),
                    elements=st.sampled_from([0.0, 1.0, 2.5, -3.0, 10.0]))


class TestModelJson:
    @settings(max_examples=40, deadline=None)
    @given(MODEL_ROWS, st.sampled_from(list(DetectorMode)), st.booleans())
    def test_to_json_round_trips_bit_identically(self, x, mode, use_pca):
        model = train(x, TrainConfig.small(detector_mode=mode, use_pca=use_pca))
        text = model.to_json()
        clone = WorkerModel.from_json(text)
        assert clone.to_json() == text
        assert (clone.predict_batch(x) == model.predict_batch(x)).all()

    @settings(deadline=None)
    @given(st.text())
    def test_arbitrary_text_raises_only_mudmon_errors(self, text):
        try:
            WorkerModel.from_json(text)
        except MudmonError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_document_raises_only_mudmon_errors(self, data):
        x = two_blobs(n=40)
        doc = json.loads(train(x, TrainConfig.small()).to_json())
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON)
        try:
            WorkerModel.from_json(json.dumps(doc)).predict_batch(x)
        except MudmonError:
            pass

    def test_malformed_json_and_wrong_version(self):
        with pytest.raises(ParseError):
            WorkerModel.from_json("{")
        text = train(two_blobs(), TrainConfig.small()).to_json()
        with pytest.raises(SchemaError):
            WorkerModel.from_json(text.replace('"version": 1', '"version": 2'))
        with pytest.raises(SchemaError):
            WorkerModel.from_json("[]")


STATE_MACHINE = DetectorMode.BOUNDARY_PLUS_STATE_MACHINE
PROBE_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, -3.0, 10.0]),
                         st.floats(-50.0, 50.0))

# A version-1 document in the earlier layout, which also wrote
# ``detector_mode``, ``trained_rows`` and ``norm.n_features_in``: two
# clusters on one PCA axis, transitions 1->1, 1->0 and 0->0.
EARLIER_DOC = (
    '{"version": 1, "detector_mode": "boundary_plus_state_machine", '
    '"n_features_in": 3, "trained_rows": 24, "norm": {"mean": [2.934166666666666, '
    '2.9999999999999996, 0.06374999999999999], "std": [2.863664488999288, '
    '3.081904173288542, 0.393359594815397], "kept": [0, 1, 2], "n_features_in": 3}, '
    '"pca": {"components": [[-0.7056107487202673, -0.7052964076838307, '
    '-0.06834068040857709]], "eigenvalues": [1.9895357357860965, 0.9953988039004363, '
    '0.015065460313467338], "retained": 1}, "clusters": {"heads": '
    '[[-1.3952668287312986], [1.414078599132326]], "radii": [0.23217145390475663, '
    '0.2316215343607091]}, "transitions": [[0, 0], [1, 0], [1, 1]]}')
EARLIER_PROBES = [[0.0, 0.0, 0.0], [6.0, 6.0, 0.0], [0.1, -0.1, 0.2],
                  [50.0, 50.0, 50.0], [0.5, 0.5, 0.0], [3.0, 3.0, 0.0]]
# (reason, cluster, distance, next state) per probe, streamed from state None,
# as the earlier layout's reader scored them.
EARLIER_VERDICTS = [
    (Reason.NONE, 1, 0.0065322108757608355, 1),
    (Reason.NONE, 0, 0.035635497182082254, 0),
    (Reason.ILLEGAL_TRANSITION, 1, 0.029970015453661514, 1),
    (Reason.OUTSIDE_BOUNDARY, 0, 29.63352646878264, 1),
    (Reason.NONE, 1, 0.23109388378436146, 1),
    (Reason.OUTSIDE_BOUNDARY, 0, 1.3901210707786515, 1),
]


class TestOneRule:
    """``predict``, ``predict_batch`` and the machine fit share one boundary."""

    @settings(max_examples=80, deadline=None)
    @given(MODEL_ROWS, st.booleans(), st.data())
    def test_predict_agrees_with_predict_batch(self, x, use_pca, data):
        model = train(x, TrainConfig.small(use_pca=use_pca))
        n = data.draw(st.integers(1, 12))
        probes = data.draw(arrays(np.float64, (n, x.shape[1]), elements=PROBE_VALUES))
        rows = np.vstack([x, probes])
        mask = model.predict_batch(rows).tolist()
        assert [model.predict(row)[0].anomalous for row in rows] == mask

    @settings(max_examples=80, deadline=None)
    @given(MODEL_ROWS, st.booleans())
    # The split tree labels (0, 0) with cluster 0, but its nearest head is
    # cluster 2's: a machine fitted on split-tree labels never records the
    # 1 -> 2 step that replaying this sequence takes.
    @example(np.array([[1.0, 0.0]] * 2 + [[1.0, 1.0]] * 16 + [[0.0, 0.0], [0.0, 1.0]]),
             False)
    def test_replaying_training_rows_is_always_legal(self, x, use_pca):
        model = train(x, TrainConfig.small(detector_mode=STATE_MACHINE, use_pca=use_pca))
        state = None
        for row in x:
            verdict, state = model.predict(row, state)
            assert verdict.reason is not Reason.ILLEGAL_TRANSITION

    @settings(max_examples=40, deadline=None)
    @given(MODEL_ROWS, st.sampled_from(list(DetectorMode)), st.booleans())
    def test_earlier_layout_keys_are_ignored(self, x, mode, use_pca):
        model = train(x, TrainConfig.small(detector_mode=mode, use_pca=use_pca))
        doc = json.loads(model.to_json())
        doc["detector_mode"] = mode.value
        doc["trained_rows"] = len(x)
        doc["norm"]["n_features_in"] = x.shape[1]
        clone = WorkerModel.from_json(json.dumps(doc))
        assert clone.to_json() == model.to_json()
        state_a = state_b = None
        for row in x:
            va, state_a = model.predict(row, state_a)
            vb, state_b = clone.predict(row, state_b)
            assert va == vb and state_a == state_b

    @pytest.mark.parametrize("machine", [True, False])
    def test_earlier_layout_document_scores_as_before(self, machine):
        text = EARLIER_DOC
        if not machine:  # the earlier boundary-only layout wrote no transitions
            text = (text.replace("boundary_plus_state_machine", "boundary_only")
                    .replace("[[0, 0], [1, 0], [1, 1]]", "null"))
        model = WorkerModel.from_json(text)
        assert (model.machine is not None) is machine
        state = None
        for row, (reason, cluster, distance, after) in zip(EARLIER_PROBES, EARLIER_VERDICTS):
            if not machine and reason is Reason.ILLEGAL_TRANSITION:
                reason = Reason.NONE
            verdict, state = model.predict(row, state)
            assert (verdict.reason, verdict.cluster_id, state) == (reason, cluster, after)
            assert verdict.anomalous is (reason is not Reason.NONE)
            assert verdict.distance == pytest.approx(distance, rel=1e-12)
        assert model.predict_batch(np.array(EARLIER_PROBES)).tolist() == [
            False, False, False, True, False, True]
