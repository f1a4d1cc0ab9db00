"""Near-duplicate pair classification from two features.

Candidate pairs are classified positive (near-duplicate) or negative from
(instruction distance, ingredients distance): undersampling to balance,
then logistic regression or a random forest, tuned by grid search under
leave-one-out cross-validation with pooled confusion metrics.

Logistic regression is fitted by damped Newton steps (IRLS) on its three
parameters. The forest grid search grows one forest per fold at the grid's
largest tree count and depth; every grid point reads its votes from a
prefix of that forest, cut off at the point's depth.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import PairLabel

logger = logging.getLogger(__name__)

LOGISTIC = "logistic-regression"
FOREST = "random-forest"

GRADIENT_TOLERANCE = 1e-8
MAX_NEWTON_STEPS = 50
MAX_CONDITION = 1e12  # Hessians worse than this count as singular
ARMIJO_SLOPE = 1e-4
LOSS_ROUNDING = 16 * np.finfo(np.float64).eps
MAX_HALVINGS = 60

DEFAULT_LOGISTIC_GRID = tuple(
    {"regularization": strength} for strength in (0.01, 0.1, 1.0, 10.0, 100.0)
)
DEFAULT_FOREST_GRID = tuple(
    {"trees": trees, "depth": depth} for trees in (10, 50, 100) for depth in (2, 4, 8)
)


@dataclass(frozen=True)
class LabeledExample:
    features: tuple[float, float]  # (instruction distance, ingredients distance)
    label: bool  # True = near-duplicate


class Metrics(NamedTuple):
    precision: float
    recall: float
    f1: float


def examples_from_pairs(pairs) -> list[LabeledExample]:
    """Labeled pairs as classifier examples; unlabeled pairs are skipped
    (logged), every non-duplicate label collapses to the negative class."""
    examples = []
    skipped = 0
    for pair in pairs:
        if pair.label is PairLabel.UNLABELED:
            skipped += 1
            continue
        examples.append(
            LabeledExample(
                features=(float(pair.instruction_distance), float(pair.ingredients_distance)),
                label=pair.label is PairLabel.NEAR_DUPLICATE,
            )
        )
    if skipped:
        logger.info("skipped %d unlabeled pairs", skipped)
    return examples


def undersample(examples: Sequence[LabeledExample], seed: int = 1) -> list[LabeledExample]:
    """All positives plus an equal-size uniform sample of negatives, drawn
    without replacement; deterministic given the seed. When positives
    outnumber negatives the roles reverse (logged)."""
    positives = [e for e in examples if e.label]
    negatives = [e for e in examples if not e.label]
    if not positives or not negatives:
        raise ValueError("undersampling needs at least one positive and one negative")
    rng = np.random.default_rng(seed)
    if len(positives) <= len(negatives):
        keep = rng.choice(len(negatives), size=len(positives), replace=False)
        return positives + [negatives[i] for i in sorted(keep)]
    logger.warning(
        "positives (%d) outnumber negatives (%d); downsampling positives instead",
        len(positives),
        len(negatives),
    )
    keep = rng.choice(len(positives), size=len(negatives), replace=False)
    return [positives[i] for i in sorted(keep)] + negatives


def _feature_matrix(examples: Sequence[LabeledExample]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([e.features for e in examples], dtype=np.float64)
    y = np.array([e.label for e in examples], dtype=bool)
    for i, row in enumerate(x):
        if not np.all(np.isfinite(row)):
            raise ValueError(f"example {i} has non-finite features {tuple(row)!r}")
    return x, y


# --- logistic regression -----------------------------------------------------


def logistic_loss_and_grad(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, regularization: float
) -> tuple[float, np.ndarray]:
    """Mean logistic loss with an L2 penalty on the weights (bias excluded).

    `params` stacks the feature weights with the bias last. Exposed so the
    analytic gradient can be checked against finite differences.
    """
    weights = params[:-1]
    bias = params[-1]
    signs = np.where(labels, 1.0, -1.0)
    z = features @ weights + bias
    loss = float(np.mean(np.logaddexp(0.0, -signs * z)))
    loss += 0.5 * regularization * float(weights @ weights)
    # d/dz logaddexp(0, -sz) = -s * sigmoid(-s z) = -s * exp(-logaddexp(0, s z)),
    # which cannot overflow
    coeff = -signs * np.exp(-np.logaddexp(0.0, signs * z)) / len(labels)
    grad = np.empty_like(params)
    grad[:-1] = features.T @ coeff + regularization * weights
    grad[-1] = float(coeff.sum())
    return loss, grad


def logistic_hessian(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, regularization: float
) -> np.ndarray:
    """Hessian of `logistic_loss_and_grad`'s loss: [X 1]^T diag(p(1-p)) [X 1] / n
    plus `regularization` on the weight diagonal (the bias is unpenalized).

    The curvature p(1-p) does not depend on the labels; they are taken so the
    signature matches the loss. Computed as exp(-softplus(z) - softplus(-z)),
    which neither overflows nor cancels at large |z|.
    """
    del labels
    z = features @ params[:-1] + params[-1]
    curvature = np.exp(-np.logaddexp(0.0, z) - np.logaddexp(0.0, -z)) / len(z)
    design = np.hstack([features, np.ones((len(z), 1))])
    hessian = design.T @ (curvature[:, None] * design)
    weights = np.arange(len(params) - 1)
    hessian[weights, weights] += regularization
    return hessian


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    converged: bool

    def _standardize(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_scale

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        z = self._standardize(features) @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-z))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features) >= 0.5


def train_logreg(examples: Sequence[LabeledExample], regularization: float = 1.0) -> LogisticModel:
    """Damped Newton (IRLS) on the regularized logistic loss, from zero, run
    to gradient norm below 1e-8 or 50 steps. Each step solves the 3x3
    Hessian system and halves its length until the Armijo sufficient-decrease
    test passes. A singular Hessian (regularization 0 on separable data)
    falls back to the gradient direction; a fit that stops short of the
    tolerance returns `converged=False` (logged) with finite parameters.
    Features are z-scored with statistics kept in the model."""
    if regularization < 0:
        raise ValueError("regularization must be >= 0")
    x, y = _feature_matrix(examples)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    x_std = (x - mean) / scale

    params = np.zeros(x_std.shape[1] + 1)
    loss, grad = logistic_loss_and_grad(params, x_std, y, regularization)
    for _ in range(MAX_NEWTON_STEPS):
        if float(np.linalg.norm(grad)) < GRADIENT_TOLERANCE:
            break
        hessian = logistic_hessian(params, x_std, y, regularization)
        if np.linalg.cond(hessian) < MAX_CONDITION:
            direction = -np.linalg.solve(hessian, grad)
        else:
            direction = -grad
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = params + step * direction
            new_loss, new_grad = logistic_loss_and_grad(candidate, x_std, y, regularization)
            # the slack absorbs rounding in the loss, which near the optimum
            # exceeds the decrease the step promises
            if new_loss <= loss + ARMIJO_SLOPE * step * slope + LOSS_ROUNDING * loss:
                break
            step *= 0.5
        else:
            break  # no step decreases the loss in floating point
        params, loss, grad = candidate, new_loss, new_grad
    converged = float(np.linalg.norm(grad)) < GRADIENT_TOLERANCE
    if not converged:
        logger.info("Newton fit stopped short at |grad| %.3g", np.linalg.norm(grad))
    return LogisticModel(
        weights=params[:-1],
        bias=float(params[-1]),
        feature_mean=mean,
        feature_scale=scale,
        converged=converged,
    )


# --- random forest -----------------------------------------------------------


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    label: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _majority(labels: np.ndarray) -> bool:
    positives = int(labels.sum())
    return positives > len(labels) - positives  # tie predicts negative


def _gini(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    p = pos / total
    return 1.0 - p ** 2 - (1.0 - p) ** 2


def _best_split(x: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """Feature and midpoint threshold minimizing weighted child Gini, or
    None when no split gains. Ties prefer the lower feature index, then the
    lower threshold."""
    n = len(y)
    total_pos = int(y.sum())
    parent = _gini(np.array([total_pos]), np.array([n]))[0]
    best: tuple[float, int, float] | None = None
    for feature in range(x.shape[1]):
        order = np.argsort(x[:, feature], kind="stable")
        values = x[order, feature]
        pos_prefix = np.cumsum(y[order])
        boundaries = np.nonzero(values[1:] > values[:-1])[0]
        if len(boundaries) == 0:
            continue
        left_n = boundaries + 1.0
        right_n = n - left_n
        left_pos = pos_prefix[boundaries]
        right_pos = total_pos - left_pos
        weighted = (
            left_n * _gini(left_pos, left_n) + right_n * _gini(right_pos, right_n)
        ) / n
        at = int(np.argmin(weighted))  # first minimum = smallest threshold
        threshold = float((values[boundaries[at]] + values[boundaries[at] + 1]) / 2.0)
        candidate = (float(weighted[at]), feature, threshold)
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None or parent - best[0] <= 1e-12:
        return None
    return best[1], best[2]


def _build_tree(x: np.ndarray, y: np.ndarray, depth_left: int) -> _Node:
    """Every node, internal ones included, carries its sample's majority
    label, so cutting the tree at level d gives the tree grown to depth d."""
    label = _majority(y)
    if depth_left == 0 or len(y) < 2 or bool(y.all()) or not bool(y.any()):
        return _Node(label=label)
    split = _best_split(x, y)
    if split is None:
        return _Node(label=label)
    feature, threshold = split
    mask = x[:, feature] <= threshold
    return _Node(
        feature=feature,
        threshold=threshold,
        left=_build_tree(x[mask], y[mask], depth_left - 1),
        right=_build_tree(x[~mask], y[~mask], depth_left - 1),
        label=label,
    )


def _tree_predict(node: _Node, features: np.ndarray, depth: int | None = None) -> np.ndarray:
    """Leaf labels, or with `depth` the labels of the nodes at that level
    where a path runs deeper."""
    out = np.zeros(len(features), dtype=bool)
    stack = [(node, np.arange(len(features)), 0)]
    while stack:
        current, idx, level = stack.pop()
        if len(idx) == 0:
            continue
        if current.is_leaf or level == depth:
            out[idx] = current.label
            continue
        mask = features[idx, current.feature] <= current.threshold
        stack.append((current.left, idx[mask], level + 1))
        stack.append((current.right, idx[~mask], level + 1))
    return out


@dataclass
class ForestModel:
    trees: list[_Node]

    def tree_votes(self, features: np.ndarray, depth: int | None = None) -> np.ndarray:
        """Per-tree boolean votes, shape (trees, examples), in training
        order so a prefix reproduces a smaller forest with the same seed.
        With `depth`, every tree is cut off at that level, which reproduces
        the forest grown with `max_depth=depth` and the same seed."""
        features = np.asarray(features, dtype=np.float64)
        return np.array([_tree_predict(tree, features, depth) for tree in self.trees])

    def predict(self, features: np.ndarray) -> np.ndarray:
        votes = self.tree_votes(features)
        positives = votes.sum(axis=0)
        return positives > len(self.trees) - positives  # tie predicts negative


def train_random_forest(
    examples: Sequence[LabeledExample],
    trees: int = 100,
    max_depth: int = 8,
    seed: int = 1,
) -> ForestModel:
    """Bootstrap-sampled Gini trees with deterministic splits; only the
    bootstrap draw consumes randomness, and it does not depend on the depth.
    So with a fixed seed the first t trees of a larger forest equal the
    t-tree forest, and a deeper forest cut at depth d (`tree_votes(...,
    depth=d)`) equals the depth-d forest."""
    if trees < 1:
        raise ValueError("trees must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    x, y = _feature_matrix(examples)
    rng = np.random.default_rng(seed)
    grown = []
    for _ in range(trees):
        idx = rng.integers(0, len(y), size=len(y))
        grown.append(_build_tree(x[idx], y[idx], max_depth))
    return ForestModel(trees=grown)


# --- evaluation --------------------------------------------------------------


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(predictions: Sequence[bool], labels: Sequence[bool]) -> Metrics:
    """Precision, recall, and F1 on the positive class, with every 0/0
    reading as 0."""
    predictions = np.asarray(predictions, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    true_pos = int(np.sum(predictions & labels))
    predicted_pos = int(predictions.sum())
    actual_pos = int(labels.sum())
    precision = true_pos / predicted_pos if predicted_pos else 0.0
    recall = true_pos / actual_pos if actual_pos else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1_score(precision, recall))


class GridPointResult(NamedTuple):
    params: dict
    metrics: Metrics


@dataclass
class GridSearchResult:
    best_params: dict
    best_metrics: Metrics
    results: list[GridPointResult] = field(default_factory=list)


def default_grid(kind: str) -> tuple[dict, ...]:
    if kind == LOGISTIC:
        return DEFAULT_LOGISTIC_GRID
    if kind == FOREST:
        return DEFAULT_FOREST_GRID
    raise ValueError(f"unknown classifier kind {kind!r}")


def loocv_grid_search(
    examples: Sequence[LabeledExample],
    kind: str,
    grid: Sequence[dict] | None = None,
    seed: int = 1,
) -> GridSearchResult:
    """Pooled leave-one-out metrics for every grid point; the best point by
    F1 wins, ties going to the earlier point in the grid's declared order.

    A training fold collapsing to a single class predicts that class for
    its held-out example (logged). Logistic grid points fit one Newton
    model each per fold. The forest grid grows one forest per fold, with
    the grid's largest tree count and depth, and reads every point from it:
    the bootstrap draw is the only randomness and does not depend on the
    depth, so the first t trees cut at level d are exactly the forest
    trained with t trees and depth d.
    """
    if len(examples) < 2:
        raise ValueError("leave-one-out needs at least 2 examples")
    grid = list(grid) if grid is not None else list(default_grid(kind))
    if not grid:
        raise ValueError("grid must be non-empty")
    if kind not in (LOGISTIC, FOREST):
        raise ValueError(f"unknown classifier kind {kind!r}")
    if kind == FOREST:
        widest = max(params["trees"] for params in grid)
        deepest = max(params["depth"] for params in grid)
        if min(min(params["trees"], params["depth"]) for params in grid) < 1:
            raise ValueError("every forest grid point needs trees >= 1 and depth >= 1")

    n = len(examples)
    labels = np.array([e.label for e in examples], dtype=bool)
    predictions = np.zeros((len(grid), n), dtype=bool)
    degenerate_folds = 0

    for i in range(n):
        fold = list(examples[:i]) + list(examples[i + 1 :])
        fold_labels = np.array([e.label for e in fold], dtype=bool)
        held_out = np.array([examples[i].features], dtype=np.float64)
        if bool(fold_labels.all()) or not bool(fold_labels.any()):
            degenerate_folds += 1
            predictions[:, i] = bool(fold_labels[0])
            continue
        if kind == LOGISTIC:
            for g, params in enumerate(grid):
                model = train_logreg(fold, **params)
                predictions[g, i] = bool(model.predict(held_out)[0])
        else:
            forest = train_random_forest(fold, trees=widest, max_depth=deepest, seed=seed)
            votes_at: dict[int, np.ndarray] = {}
            for g, params in enumerate(grid):
                depth, t = params["depth"], params["trees"]
                if depth not in votes_at:
                    votes_at[depth] = forest.tree_votes(held_out, depth=depth)[:, 0]
                positives = int(votes_at[depth][:t].sum())
                predictions[g, i] = positives > t - positives

    if degenerate_folds:
        logger.warning("%d folds had single-class training data", degenerate_folds)

    results = [
        GridPointResult(params=params, metrics=metrics(predictions[g], labels))
        for g, params in enumerate(grid)
    ]
    best = max(range(len(grid)), key=lambda g: (results[g].metrics.f1, -g))
    return GridSearchResult(
        best_params=results[best].params,
        best_metrics=results[best].metrics,
        results=results,
    )
