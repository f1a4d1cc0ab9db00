"""Classifier stack: gradient and Hessian oracles, the stationarity
certificate, stump oracle, depth-cut forests, undersampling, leave-one-out
isolation, and the metric conventions."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gram_mover.classify import (
    DEFAULT_FOREST_GRID,
    DEFAULT_LOGISTIC_GRID,
    FOREST,
    LOGISTIC,
    ForestModel,
    LabeledExample,
    _Node,
    _build_tree,
    default_grid,
    examples_from_pairs,
    f1_score,
    logistic_hessian,
    logistic_loss_and_grad,
    loocv_grid_search,
    metrics,
    train_logreg,
    train_random_forest,
    undersample,
)
from gram_mover.corpus import PairLabel
from gram_mover.pipeline import CandidatePair
from oracles import (
    central_difference_gradient,
    central_difference_jacobian,
    logistic_gradient_norm,
    oracle_stump,
    weighted_gini,
)

seeds = st.integers(0, 2**32 - 1)


def _example(x, y, label):
    return LabeledExample(features=(float(x), float(y)), label=label)


def _cluster(center, count, label, rng=None, spread=0.0):
    out = []
    for i in range(count):
        jitter = rng.normal(scale=spread, size=2) if rng is not None else (0.0, 0.0)
        out.append(_example(center[0] + jitter[0], center[1] + jitter[1], label))
    return out


class TestExamplesFromPairs:
    def _pair(self, label, distance=0.2):
        return CandidatePair(
            query_id="q", candidate_id="c", method="m",
            instruction_distance=distance, ingredients_distance=1, label=label,
        )

    def test_label_collapse(self):
        pairs = [
            self._pair(PairLabel.NEAR_DUPLICATE),
            self._pair(PairLabel.NON_DUPLICATE_A),
            self._pair(PairLabel.NON_DUPLICATE_B),
            self._pair(PairLabel.NON_DUPLICATE_C),
        ]
        labels = [e.label for e in examples_from_pairs(pairs)]
        assert labels == [True, False, False, False]

    def test_unlabeled_skipped(self, caplog):
        pairs = [self._pair(PairLabel.UNLABELED), self._pair(PairLabel.NEAR_DUPLICATE)]
        with caplog.at_level("INFO"):
            examples = examples_from_pairs(pairs)
        assert len(examples) == 1
        assert any("unlabeled" in r.getMessage() for r in caplog.records)

    def test_features_in_order(self):
        example = examples_from_pairs([self._pair(PairLabel.NEAR_DUPLICATE, 0.3)])[0]
        assert example.features == (0.3, 1.0)


class TestUndersample:
    def test_matches_positive_count(self):
        examples = _cluster((0, 0), 50, True) + _cluster((1, 1), 1000, False)
        balanced = undersample(examples, seed=1)
        assert len(balanced) == 100
        assert sum(e.label for e in balanced) == 50

    def test_already_balanced(self):
        examples = _cluster((0, 0), 5, True) + _cluster((1, 1), 5, False)
        assert len(undersample(examples)) == 10

    def test_deterministic(self):
        examples = _cluster((0, 0), 5, True) + _cluster((1, 1), 50, False)
        assert undersample(examples, seed=9) == undersample(examples, seed=9)

    def test_reversed_roles_logged(self, caplog):
        examples = _cluster((0, 0), 10, True) + _cluster((1, 1), 4, False)
        with caplog.at_level("WARNING"):
            balanced = undersample(examples)
        assert len(balanced) == 8
        assert any("downsampling positives" in r.getMessage() for r in caplog.records)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            undersample(_cluster((0, 0), 5, True))

    @given(seed=seeds, positives=st.integers(1, 20), negatives=st.integers(21, 60))
    def test_every_positive_retained(self, seed, positives, negatives):
        rng = np.random.default_rng(seed)
        examples = _cluster((0, 0), positives, True, rng, 0.1) + _cluster(
            (1, 1), negatives, False, rng, 0.1
        )
        balanced = undersample(examples, seed=seed)
        kept_positives = [e for e in balanced if e.label]
        assert kept_positives == examples[:positives]
        assert len(balanced) == 2 * positives


class TestLogisticGradient:
    def test_fifty_random_points(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(5, 30))
            features = rng.normal(size=(n, 2))
            labels = rng.random(n) < 0.5
            reg = float(rng.choice([0.0, 0.1, 1.0]))
            params = rng.normal(size=3)
            _, grad = logistic_loss_and_grad(params, features, labels, reg)
            numeric = central_difference_gradient(
                lambda p: logistic_loss_and_grad(p, features, labels, reg)[0], params
            )
            rel = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-6

    def test_zero_gradient_at_optimum_direction(self):
        # at params 0, balanced labels cancel the bias gradient
        features = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([True, False])
        _, grad = logistic_loss_and_grad(np.zeros(3), features, labels, 0.0)
        assert grad[-1] == pytest.approx(0.0)


class TestLogisticHessian:
    def test_fifty_random_points(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(5, 30))
            features = rng.normal(size=(n, 2))
            labels = rng.random(n) < 0.5
            reg = 0.0 if trial % 3 == 0 else float(rng.choice([0.01, 0.1, 1.0]))
            params = rng.normal(size=3)
            hessian = logistic_hessian(params, features, labels, reg)
            numeric = central_difference_jacobian(
                lambda p: logistic_loss_and_grad(p, features, labels, reg)[1], params
            )
            rel = np.linalg.norm(hessian - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-6

    def test_bias_is_not_penalized(self):
        features = np.array([[1.0, -1.0], [0.5, 2.0], [-1.0, 0.0]])
        labels = np.array([True, False, True])
        params = np.array([0.3, -0.2, 0.1])
        plain = logistic_hessian(params, features, labels, 0.0)
        penalized = logistic_hessian(params, features, labels, 2.5)
        np.testing.assert_allclose(penalized - plain, np.diag([2.5, 2.5, 0.0]), atol=1e-15)

    def test_finite_far_from_the_origin(self):
        features = np.array([[1.0, 1.0], [-1.0, -1.0]])
        hessian = logistic_hessian(
            np.array([1e3, 1e3, 0.0]), features, np.array([True, False]), 0.0
        )
        assert np.all(np.isfinite(hessian))


class TestTrainLogreg:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=seeds,
        n=st.integers(3, 40),
        regularization=st.sampled_from([0.001, 0.01, 0.1, 1.0, 10.0, 100.0]),
    )
    def test_stationarity_certificate(self, seed, n, regularization):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, 2)) * rng.uniform(0.01, 10.0, size=2)
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        examples = [
            _example(features[i, 0], features[i, 1], bool(labels[i])) for i in range(n)
        ]
        model = train_logreg(examples, regularization=regularization)
        scale = features.std(axis=0)
        scale[scale == 0.0] = 1.0
        standardized = (features - features.mean(axis=0)) / scale
        assert model.converged
        assert logistic_gradient_norm(
            model.weights, model.bias, standardized, labels, regularization
        ) < 1e-8

    def test_separable_without_regularization_stays_finite(self, caplog):
        # identical points per class: the features are collinear, so the
        # Hessian is singular and the loss has no minimizer
        examples = _cluster((0, 0), 20, True) + _cluster((10, 10), 20, False)
        with caplog.at_level("INFO"):
            model = train_logreg(examples, regularization=0.0)
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert not model.converged
        assert any("stopped short" in r.getMessage() for r in caplog.records)
        features = np.array([e.features for e in examples])
        labels = np.array([e.label for e in examples])
        assert np.array_equal(model.predict(features), labels)

    def test_separable_toy_set(self):
        examples = _cluster((0, 0), 20, True) + _cluster((10, 10), 20, False)
        model = train_logreg(examples, regularization=0.01)
        features = np.array([e.features for e in examples])
        labels = np.array([e.label for e in examples])
        assert np.array_equal(model.predict(features), labels)

    def test_uninformative_features_predict_prior(self):
        examples = _cluster((1, 1), 7, True) + _cluster((1, 1), 3, False)
        model = train_logreg(examples)
        proba = model.predict_proba(np.array([[1.0, 1.0]]))[0]
        assert proba == pytest.approx(0.7, abs=0.05)

    def test_non_finite_feature_named(self):
        examples = [_example(0.1, 0.2, True), _example(float("inf"), 0.0, False)]
        with pytest.raises(ValueError, match="example 1"):
            train_logreg(examples)

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            train_logreg([_example(0, 0, True), _example(1, 1, False)], regularization=-1)

    def test_scaling_statistics_stored(self):
        examples = [_example(0, 0, True), _example(2, 4, False)]
        model = train_logreg(examples)
        np.testing.assert_allclose(model.feature_mean, [1.0, 2.0])
        np.testing.assert_allclose(model.feature_scale, [1.0, 2.0])

    def test_constant_feature_scale_fallback(self):
        examples = [_example(3, 0, True), _example(3, 1, False)]
        model = train_logreg(examples)
        assert model.feature_scale[0] == 1.0


class TestRandomForest:
    def test_axis_aligned_separable(self):
        examples = _cluster((0, 0), 10, True) + _cluster((10, 0), 10, False)
        model = train_random_forest(examples, trees=5, max_depth=1, seed=1)
        features = np.array([e.features for e in examples])
        labels = np.array([e.label for e in examples])
        assert np.array_equal(model.predict(features), labels)

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_single_stump_matches_threshold_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        features = np.round(rng.normal(size=(n, 2)), 1)
        labels = rng.random(n) < 0.5
        examples = [
            _example(features[i, 0], features[i, 1], bool(labels[i])) for i in range(n)
        ]
        stump = _build_tree(features, labels, 1)
        oracle = oracle_stump(features, labels)

        p = labels.mean()
        parent = 2.0 * p * (1.0 - p)
        if stump.is_leaf:
            # library refuses zero-gain splits; the oracle must agree there
            # was nothing to gain (or nothing to split)
            assert oracle is None or parent - oracle[2] <= 1e-12
        else:
            # the chosen split must achieve the oracle's optimum; exact-tie
            # instances can legitimately resolve to a different threshold,
            # so compare impurities rather than split identities
            assert oracle is not None
            achieved = weighted_gini(features, labels, stump.feature, stump.threshold)
            assert achieved <= oracle[2] + 1e-9

    def test_same_seed_identical_predictions(self):
        rng = np.random.default_rng(3)
        examples = _cluster((0, 0), 15, True, rng, 1.0) + _cluster((3, 3), 15, False, rng, 1.0)
        grid = np.array([[x, y] for x in range(-1, 5) for y in range(-1, 5)], dtype=float)
        first = train_random_forest(examples, trees=20, max_depth=4, seed=7)
        second = train_random_forest(examples, trees=20, max_depth=4, seed=7)
        assert np.array_equal(first.predict(grid), second.predict(grid))

    def test_prefix_of_larger_forest_is_smaller_forest(self):
        rng = np.random.default_rng(4)
        examples = _cluster((0, 0), 12, True, rng, 1.0) + _cluster((2, 2), 12, False, rng, 1.0)
        grid = np.array([[x / 2, y / 2] for x in range(8) for y in range(8)])
        wide = train_random_forest(examples, trees=30, max_depth=4, seed=5)
        narrow = train_random_forest(examples, trees=10, max_depth=4, seed=5)
        assert np.array_equal(wide.tree_votes(grid)[:10], narrow.tree_votes(grid))

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds, depth=st.integers(1, 4), extra=st.integers(0, 3))
    def test_depth_cut_equals_forest_trained_at_that_depth(self, seed, depth, extra):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        features = np.round(rng.normal(size=(n, 2)), 1)
        labels = rng.random(n) < 0.5
        examples = [
            _example(features[i, 0], features[i, 1], bool(labels[i])) for i in range(n)
        ]
        probes = np.round(rng.normal(size=(25, 2)), 1)
        deep = train_random_forest(examples, trees=7, max_depth=depth + extra, seed=seed)
        shallow = train_random_forest(examples, trees=7, max_depth=depth, seed=seed)
        assert np.array_equal(
            deep.tree_votes(probes, depth=depth), shallow.tree_votes(probes)
        )

    def test_vote_tie_predicts_negative(self):
        model = ForestModel(
trees=[_Node(label=True), _Node(label=False)])
        assert not model.predict(np.array([[0.0, 0.0]]))[0]

    def test_parameter_validation(self):
        examples = [_example(0, 0, True), _example(1, 1, False)]
        with pytest.raises(ValueError):
            train_random_forest(examples, trees=0)
        with pytest.raises(ValueError):
            train_random_forest(examples, max_depth=0)


class TestMetrics:
    def test_all_correct(self):
        assert metrics([True, False], [True, False]) == (1.0, 1.0, 1.0)

    def test_predict_all_positive_half_prevalence(self):
        result = metrics([True] * 4, [True, True, False, False])
        assert result == (0.5, 1.0, pytest.approx(2 / 3))

    def test_no_positive_predictions(self):
        assert metrics([False, False], [True, False]) == (0.0, 0.0, 0.0)

    def test_no_positive_labels(self):
        assert metrics([True, False], [False, False]) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics([True], [True, False])

    @pytest.mark.parametrize(
        "precision,recall,expected",
        [(0.74, 0.89, 0.81), (0.83, 0.97, 0.89)],
    )
    def test_published_triples_to_two_decimals(self, precision, recall, expected):
        assert round(f1_score(precision, recall), 2) == expected

    @given(
        precision=st.floats(0.0, 1.0),
        recall=st.floats(0.0, 1.0),
    )
    def test_harmonic_mean_identity(self, precision, recall):
        f1 = f1_score(precision, recall)
        if precision + recall > 0:
            assert f1 == pytest.approx(2 * precision * recall / (precision + recall))
        else:
            assert f1 == 0.0


class TestLoocvGridSearch:
    def _separable(self):
        return _cluster((0, 0), 8, True) + _cluster((10, 10), 8, False)

    @pytest.mark.parametrize("kind", [LOGISTIC, FOREST])
    def test_separable_reaches_perfect_f1(self, kind):
        result = loocv_grid_search(self._separable(), kind)
        assert result.best_metrics.f1 == 1.0

    def test_tie_goes_to_earliest_grid_point(self):
        result = loocv_grid_search(self._separable(), LOGISTIC)
        perfect = [r for r in result.results if r.metrics.f1 == 1.0]
        assert len(perfect) > 1
        assert result.best_params == perfect[0].params

    def test_single_grid_point_returned_unconditionally(self):
        result = loocv_grid_search(
            self._separable(), FOREST, grid=[{"trees": 3, "depth": 2}]
        )
        assert result.best_params == {"trees": 3, "depth": 2}
        assert len(result.results) == 1

    def test_random_labels_score_near_chance(self):
        rng = np.random.default_rng(23)
        features = rng.normal(size=(200, 2))
        labels = np.array([True, False] * 100)
        examples = [
            _example(features[i, 0], features[i, 1], bool(labels[i])) for i in range(200)
        ]
        result = loocv_grid_search(examples, FOREST, grid=[{"trees": 10, "depth": 2}])
        assert 0.35 <= result.results[0].metrics.f1 <= 0.65

    @pytest.mark.parametrize("kind,grid", [
        (LOGISTIC, [{"regularization": 1.0}]),
        (FOREST, [{"trees": 21, "depth": 8}]),
    ])
    def test_held_out_label_never_leaks(self, kind, grid):
        # an isolated point between two pure clusters: its LOO prediction is
        # decided by the clusters alone, so flipping its label moves exactly
        # one prediction-label disagreement into the pooled confusion
        clusters = _cluster((0, 0), 20, True) + _cluster((10, 10), 20, False)
        as_positive = loocv_grid_search(clusters + [_example(4, 4, True)], kind, grid=grid)
        as_negative = loocv_grid_search(clusters + [_example(4, 4, False)], kind, grid=grid)
        assert as_positive.best_metrics == (1.0, 1.0, 1.0)
        assert as_negative.best_metrics.precision == pytest.approx(20 / 21)
        assert as_negative.best_metrics.recall == 1.0

    def test_degenerate_folds_predict_their_class(self, caplog):
        examples = _cluster((0, 0), 3, True)
        with caplog.at_level("WARNING"):
            result = loocv_grid_search(examples, FOREST, grid=[{"trees": 1, "depth": 1}])
        assert result.best_metrics == (1.0, 1.0, 1.0)
        assert any("single-class" in r.getMessage() for r in caplog.records)

    def test_grid_and_kind_validation(self):
        examples = self._separable()
        with pytest.raises(ValueError):
            loocv_grid_search(examples[:1], LOGISTIC)
        with pytest.raises(ValueError):
            loocv_grid_search(examples, LOGISTIC, grid=[])
        with pytest.raises(ValueError):
            loocv_grid_search(examples, "svm")

    def test_forest_grid_reuse_matches_direct_training(self):
        # depth-grouped tree reuse must not change any grid point's outcome
        rng = np.random.default_rng(31)
        examples = _cluster((0, 0), 10, True, rng, 2.0) + _cluster(
            (3, 3), 10, False, rng, 2.0
        )
        grid = [{"trees": 5, "depth": 2}, {"trees": 15, "depth": 2}]
        shared = loocv_grid_search(examples, FOREST, grid=grid, seed=11)
        alone = [
            loocv_grid_search(examples, FOREST, grid=[point], seed=11)
            for point in grid
        ]
        for got, expected in zip(shared.results, alone):
            assert got.metrics == expected.results[0].metrics

    def test_one_forest_per_fold_matches_each_grid_point_alone(self):
        # the whole grid reads one deepest, widest forest per fold
        rng = np.random.default_rng(37)
        examples = _cluster((0, 0), 9, True, rng, 1.5) + _cluster(
            (2, 2), 9, False, rng, 1.5
        )
        shared = loocv_grid_search(examples, FOREST, seed=13)
        for got, point in zip(shared.results, DEFAULT_FOREST_GRID):
            alone = loocv_grid_search(examples, FOREST, grid=[point], seed=13)
            assert got.metrics == alone.results[0].metrics

    def test_forest_grid_points_must_be_positive(self):
        with pytest.raises(ValueError, match="depth >= 1"):
            loocv_grid_search(
                self._separable(), FOREST, grid=[{"trees": 3, "depth": 2}, {"trees": 3, "depth": 0}]
            )


class TestDefaultGrids:
    def test_declared_orders(self):
        assert default_grid(LOGISTIC) == DEFAULT_LOGISTIC_GRID
        assert default_grid(FOREST) == DEFAULT_FOREST_GRID
        assert DEFAULT_LOGISTIC_GRID[0] == {"regularization": 0.01}
        assert DEFAULT_FOREST_GRID[0] == {"trees": 10, "depth": 2}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            default_grid("svm")
