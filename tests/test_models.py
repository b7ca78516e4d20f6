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
from mudmon.worker import TrainConfig, WorkerModel, train, train_dispersion
from mudmon.xmeans import bic_score, kmedians, xmeans

from oracles import exhaustive_best_k, rand_index
from test_mud import JSON, _paths


def two_blobs(n=400, seed=0, spread=0.5, centers=((0.0, 0.0), (12.0, 12.0))):
    rng = np.random.default_rng(seed)
    parts = [c + rng.normal(0, spread, size=(n // len(centers), 2)) for c in centers]
    return np.vstack(parts)


def correlation_eigenvalues(x):
    """Eigenvalues of the correlation matrix of ``x``'s columns, descending."""
    return np.linalg.eigvalsh(np.corrcoef(x, rowvar=False))[::-1]


class TestXmeans:
    def test_two_blobs_found(self):
        pts = two_blobs()
        _, heads = xmeans(pts, seed=1)
        assert len(heads) == 2

    def test_matches_exhaustive_oracle(self):
        for seed in (0, 1, 2):
            pts = two_blobs(seed=seed)
            assert len(xmeans(pts, seed=5)[1]) == exhaustive_best_k(pts, seed=5)

    def test_single_blob_stays_single(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1, size=(300, 3))
        assert len(xmeans(pts, seed=0)[1]) == 1

    def test_identical_points_never_split(self):
        pts = np.ones((50, 4))
        assert len(xmeans(pts, seed=0)[1]) == 1

    def test_k_max_respected(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 100, size=(10, 2))
        pts = np.vstack([c + rng.normal(0, 0.1, size=(30, 2)) for c in centers])
        _, heads = xmeans(pts, seed=0, k_max=4)
        assert len(heads) <= 4

    def test_deterministic_for_seed(self):
        pts = two_blobs(seed=4)
        a_labels, a_heads = xmeans(pts, seed=9)
        b_labels, b_heads = xmeans(pts, seed=9)
        assert np.array_equal(a_labels, b_labels)
        assert np.array_equal(a_heads, b_heads)

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)),
                  elements=st.one_of(st.integers(-3, 3).map(float),
                                     st.floats(-1e3, 1e3))),
           st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_labels_partition_rows_around_median_heads(self, pts, seed, k_max):
        labels, heads = xmeans(pts, seed=seed, k_max=k_max)
        assert labels.shape == (len(pts),)
        assert 1 <= len(heads) <= k_max
        # Every row has one label and every cluster has a member.
        assert np.array_equal(np.unique(labels), np.arange(len(heads)))
        for j, head in enumerate(heads):
            assert np.array_equal(head, np.median(pts[labels == j], axis=0))
        again_labels, again_heads = xmeans(pts, seed=seed, k_max=k_max)
        assert np.array_equal(again_labels, labels)
        assert np.array_equal(again_heads, heads)

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
        eig = correlation_eigenvalues(x)
        assert eig[0] == pytest.approx(2.0, abs=1e-9)
        assert eig[:model.pca.retained].sum() / eig.sum() == pytest.approx(1.0)

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
        eig = correlation_eigenvalues(x)
        assert model.pca.retained == int(np.sum(eig > 1.0))
        assert eig[:model.pca.retained].sum() / eig.sum() >= 0.9

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
        assert v.anomalous

    def test_layout_mismatch(self):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        with pytest.raises(LayoutMismatchError):
            model.predict([1.0, 2.0, 3.0])

    def test_nan_feature_fails_closed(self):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        v, state = model.predict([float("nan"), 0.0], prev_state=7)
        assert v.anomalous
        assert state == 7

    def test_predict_hands_back_the_state_it_was_given(self):
        x = two_blobs()
        model = train(x, TrainConfig.small(), seed=0)
        far = x.max(axis=0) * 10.0
        for state in (None, 0, 1, 7):
            for row in (x[0], x[-1], far):
                _, after = model.predict(row, prev_state=state)
                assert after is state

    def test_nan_row_flagged_in_batch(self):
        x = two_blobs()
        model = train(x, TrainConfig.small(), seed=0)
        rows = np.vstack([x[:200].mean(axis=0), [0.0, float("nan")]])
        assert model.predict_batch(rows).tolist() == [False, True]

    def test_serialization_roundtrip_preserves_predictions(self):
        x = two_blobs(seed=6)
        model = train(x, TrainConfig.small(), seed=0)
        clone = WorkerModel.from_json(model.to_json())
        rng = np.random.default_rng(0)
        probes = rng.uniform(-20, 30, size=(200, 2))
        for row in probes:
            assert model.predict(row) == clone.predict(row)


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

    def test_train_on_ragged_rows_raises_schema_error(self):
        with pytest.raises(SchemaError):
            train([[1.0, 2.0], [3.0]], TrainConfig.small())

    def test_train_dispersion_on_strings_raises_schema_error(self):
        with pytest.raises(SchemaError):
            train_dispersion([["a"] * 4] * 10)

    @pytest.mark.parametrize("vector", ["ab", [object()] * 3])
    def test_predict_on_non_numbers_raises_schema_error(self, vector):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        with pytest.raises(SchemaError):
            model.predict(vector)

    def test_predict_batch_on_strings_raises_schema_error(self):
        model = train(two_blobs(), TrainConfig.small(), seed=0)
        with pytest.raises(SchemaError):
            model.predict_batch([["a", "b", "c"]])

    @pytest.mark.parametrize("path", [
        ("norm", "mean"), ("norm", "std"), ("pca", "components"),
        ("norm", "kept"), ("clusters", "heads"), ("clusters", "radii")])
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
    @given(MODEL_ROWS, st.booleans())
    def test_to_json_round_trips_bit_identically(self, x, use_pca):
        model = train(x, TrainConfig.small(use_pca=use_pca))
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
            WorkerModel.from_json(text.replace('"version": 2', '"version": 3'))
        with pytest.raises(SchemaError):
            WorkerModel.from_json("[]")


PROBE_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, -3.0, 10.0]),
                         st.floats(-50.0, 50.0))

# A version-1 document, which also held ``detector_mode``, ``trained_rows``,
# ``norm.n_features_in``, the full ``pca.eigenvalues`` and a cluster
# ``transitions`` table: two clusters on one PCA axis.
EARLIER_V1_DOC = (
    '{"version": 1, "detector_mode": "boundary_plus_state_machine", '
    '"n_features_in": 3, "trained_rows": 24, "norm": {"mean": [2.934166666666666, '
    '2.9999999999999996, 0.06374999999999999], "std": [2.863664488999288, '
    '3.081904173288542, 0.393359594815397], "kept": [0, 1, 2], "n_features_in": 3}, '
    '"pca": {"components": [[-0.7056107487202673, -0.7052964076838307, '
    '-0.06834068040857709]], "eigenvalues": [1.9895357357860965, 0.9953988039004363, '
    '0.015065460313467338], "retained": 1}, "clusters": {"heads": '
    '[[-1.3952668287312986], [1.414078599132326]], "radii": [0.23217145390475663, '
    '0.2316215343607091]}, "transitions": [[0, 0], [1, 0], [1, 1]]}')
# The same model as a version-2 document.
EARLIER_DOC = (
    '{"version": 2, "n_features_in": 3, "norm": {"mean": [2.934166666666666, '
    '2.9999999999999996, 0.06374999999999999], "std": [2.863664488999288, '
    '3.081904173288542, 0.393359594815397], "kept": [0, 1, 2]}, '
    '"pca": {"components": [[-0.7056107487202673, -0.7052964076838307, '
    '-0.06834068040857709]], "retained": 1}, "clusters": {"heads": '
    '[[-1.3952668287312986], [1.414078599132326]], "radii": [0.23217145390475663, '
    '0.2316215343607091]}}')
EARLIER_PROBES = [[0.0, 0.0, 0.0], [6.0, 6.0, 0.0], [0.1, -0.1, 0.2],
                  [50.0, 50.0, 50.0], [0.5, 0.5, 0.0], [3.0, 3.0, 0.0]]
# (anomalous, cluster, distance) per probe, as the version-1 reader's
# boundary rule scored them.
EARLIER_VERDICTS = [
    (False, 1, 0.0065322108757608355),
    (False, 0, 0.035635497182082254),
    (False, 1, 0.029970015453661514),
    (True, 0, 29.63352646878264),
    (False, 1, 0.23109388378436146),
    (True, 0, 1.3901210707786515),
]


class TestOneRule:
    """``predict`` and ``predict_batch`` share one boundary."""

    @settings(max_examples=80, deadline=None)
    @given(MODEL_ROWS, st.booleans(), st.data())
    def test_predict_agrees_with_predict_batch(self, x, use_pca, data):
        model = train(x, TrainConfig.small(use_pca=use_pca))
        n = data.draw(st.integers(1, 12))
        probes = data.draw(arrays(np.float64, (n, x.shape[1]), elements=PROBE_VALUES))
        rows = np.vstack([x, probes])
        mask = model.predict_batch(rows).tolist()
        assert [model.predict(row)[0].anomalous for row in rows] == mask

    @settings(max_examples=40, deadline=None)
    @given(MODEL_ROWS, st.booleans())
    def test_earlier_layout_keys_are_ignored(self, x, use_pca):
        model = train(x, TrainConfig.small(use_pca=use_pca))
        doc = json.loads(model.to_json())
        doc["detector_mode"] = "boundary_plus_state_machine"
        doc["trained_rows"] = len(x)
        doc["norm"]["n_features_in"] = x.shape[1]
        doc["transitions"] = [[0, 0]]
        if doc["pca"] is not None:
            doc["pca"]["eigenvalues"] = [1.0] * len(doc["norm"]["kept"])
        clone = WorkerModel.from_json(json.dumps(doc))
        assert clone.to_json() == model.to_json()
        for row in x:
            assert model.predict(row) == clone.predict(row)

    def test_version_1_document_raises_schema_error(self):
        with pytest.raises(SchemaError):
            WorkerModel.from_json(EARLIER_V1_DOC)

    # With ``stale_keys`` the document keeps every key version 1 wrote,
    # transitions included; they are ignored.
    @pytest.mark.parametrize("stale_keys", [True, False])
    def test_earlier_layout_document_scores_as_before(self, stale_keys):
        text = (EARLIER_V1_DOC.replace('"version": 1', '"version": 2') if stale_keys
                else EARLIER_DOC)
        model = WorkerModel.from_json(text)
        assert model.to_json() == EARLIER_DOC
        for row, (anomalous, cluster, distance) in zip(EARLIER_PROBES, EARLIER_VERDICTS):
            verdict, _ = model.predict(row)
            assert (verdict.anomalous, verdict.cluster_id) == (anomalous, cluster)
            assert verdict.distance == pytest.approx(distance, rel=1e-12)
        assert model.predict_batch(np.array(EARLIER_PROBES)).tolist() == [
            False, False, False, True, False, True]
