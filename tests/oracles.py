"""Independent reference implementations used to check the fast code paths.

Everything here trades speed for obviousness: the transport oracle
enumerates basic feasible solutions outright, the optimality certificate
checks a plan against its dual potentials, the stump oracle scans every
candidate threshold, the gradient and Hessian checks use central
differences, the logistic stationarity certificate sums the gradient one
example at a time, the noise table is built in full, one SGNS document
update is summed one (center, context) pair at a time, the cosine
distance of two vectors is taken in float64 from their norms, and the tf-idf
cosine of two documents is built from dense per-document weight dicts.
None of it shares code with the package under test, except the exhaustive
top-k reference, which ranks the package's own pairwise mover distance so
that a pruned search can be compared with solving every pair to the end,
the ingredients distance reference, which repeats the package's procedure
with the package's canonicalization and neighbor search but remembers
nothing between calls, and the ground-truth reader, which builds the
package's `PlantedPair`.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
from collections import Counter

import numpy as np

from gram_mover.embed import nearest_neighbors
from gram_mover.ingredients import SIMILAR_TOP_K, canonicalize_list
from gram_mover.mover import mover_distance
from gram_mover.synth import PlantedPair

logger = logging.getLogger(__name__)


def oracle_emd(weights_a, weights_b, cost):
    """Minimum-cost transport by enumerating spanning-tree bases.

    Every vertex of the transportation polytope is supported on a
    spanning tree of the complete bipartite graph, so checking all
    (m*n choose m+n-1) edge subsets is exhaustive.  Only viable for
    support sizes around 4x4.
    """
    weights_a = np.asarray(weights_a, dtype=float)
    weights_b = np.asarray(weights_b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    best = None
    for subset in itertools.combinations(range(len(edges)), m + n - 1):
        value = _tree_cost(subset, edges, weights_a, weights_b, cost, m)
        if value is not None and (best is None or value < best):
            best = value
    if best is None:
        raise AssertionError("no feasible spanning tree found")
    return best


def certify_optimal(weights_a, weights_b, cost, plan, tol):
    """Certify that `plan` is a minimum-cost transport plan.

    By weak duality, sum(f * c) >= a.u + b.v for every feasible flow f and
    all potentials with c - u - v >= 0; a feasible plan whose cost equals
    the dual value of feasible potentials is therefore optimal.  Checks, up
    to `tol`: flows nonnegative with marginals a and b (to 1e-9), every
    reduced cost c - u - v >= -tol, and primal cost equal to dual value.
    Raises AssertionError naming the condition that fails.
    """
    weights_a = np.asarray(weights_a, dtype=float)
    weights_b = np.asarray(weights_b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    flow = np.asarray(plan.flow, dtype=float)
    u = np.asarray(plan.row_potential, dtype=float)
    v = np.asarray(plan.column_potential, dtype=float)
    if flow.shape != cost.shape or u.shape != weights_a.shape or v.shape != weights_b.shape:
        raise AssertionError("plan shapes do not match the instance")
    if flow.min() < 0:
        raise AssertionError(f"negative flow {flow.min()!r}")
    row_err = np.abs(flow.sum(axis=1) - weights_a).max()
    col_err = np.abs(flow.sum(axis=0) - weights_b).max()
    if row_err > 1e-9 or col_err > 1e-9:
        raise AssertionError(f"marginals off by ({row_err:.3g}, {col_err:.3g})")
    worst_reduced = (cost - u[:, None] - v[None, :]).min()
    if worst_reduced < -tol:
        raise AssertionError(f"dual infeasible: reduced cost {worst_reduced!r}")
    primal = float((flow * cost).sum())
    dual = float(weights_a @ u + weights_b @ v)
    if abs(primal - dual) > tol:
        raise AssertionError(f"duality gap: primal {primal!r}, dual {dual!r}")


def _tree_cost(subset, edges, weights_a, weights_b, cost, m):
    size = m + len(weights_b)
    root = list(range(size))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for index in subset:
        u, v = edges[index]
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        root[ru] = rv

    balance = np.concatenate([weights_a, -weights_b])
    adjacency = {node: set() for node in range(size)}
    for index in subset:
        u, v = edges[index]
        adjacency[u].add(index)
        adjacency[v].add(index)

    # Peel leaves; each leaf's single edge must absorb its whole balance.
    total = 0.0
    remaining = set(range(size))
    while len(remaining) > 1:
        leaf = next(node for node in remaining if len(adjacency[node]) == 1)
        index = adjacency[leaf].pop()
        u, v = edges[index]
        other = v if u == leaf else u
        flow = balance[leaf] if leaf < m else -balance[leaf]
        if flow < -1e-12:
            return None
        i, j = u, v - m
        total += max(flow, 0.0) * cost[i, j]
        balance[other] += balance[leaf]
        adjacency[other].discard(index)
        remaining.remove(leaf)
    return total


def oracle_stump(features, labels, feature_count=2):
    """Best single-feature threshold split by exhaustive scan.

    Returns (feature, threshold, weighted_gini) minimizing the weighted
    Gini impurity, or None when no split separates anything.  Thresholds
    are midpoints between consecutive distinct values; ties favour the
    lower feature index, then the lower threshold.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n = len(labels)
    best = None
    for feature in range(feature_count):
        values = sorted(set(features[:, feature]))
        for low, high in zip(values, values[1:]):
            threshold = (low + high) / 2.0
            left = features[:, feature] <= threshold
            right = ~left
            weighted = (left.sum() * _gini(labels[left])
                        + right.sum() * _gini(labels[right])) / n
            key = (weighted, feature, threshold)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    weighted, feature, threshold = best
    return feature, threshold, weighted


def weighted_gini(features, labels, feature, threshold):
    """Weighted Gini impurity of splitting at (feature, threshold)."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    left = features[:, feature] <= threshold
    return (left.sum() * _gini(labels[left])
            + (~left).sum() * _gini(labels[~left])) / len(labels)


def _gini(labels):
    if len(labels) == 0:
        return 0.0
    p = labels.mean()
    return 2.0 * p * (1.0 - p)


def central_difference_gradient(fn, params, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for k in range(len(params)):
        bumped = params.copy()
        bumped[k] += step
        high = fn(bumped)
        bumped[k] -= 2.0 * step
        low = fn(bumped)
        grad[k] = (high - low) / (2.0 * step)
    return grad


def central_difference_jacobian(fn, params, step=1e-5):
    """Central finite-difference Jacobian of a vector function; row k is
    the derivative of fn's output with respect to params[k]."""
    params = np.asarray(params, dtype=float)
    rows = []
    for k in range(len(params)):
        bumped = params.copy()
        bumped[k] += step
        high = np.asarray(fn(bumped), dtype=float)
        bumped[k] -= 2.0 * step
        low = np.asarray(fn(bumped), dtype=float)
        rows.append((high - low) / (2.0 * step))
    return np.array(rows)


def logistic_gradient_norm(weights, bias, features, labels, regularization):
    """Gradient norm of the mean logistic loss plus (regularization / 2) *
    |weights|^2, summed one example at a time in plain floats.

    A fitted model is stationary, hence optimal (the loss is convex), when
    this is zero; `features` are the standardized features it was fit on.
    """
    n = len(labels)
    grad = [regularization * float(w) for w in weights] + [0.0]
    for row, label in zip(features, labels):
        z = sum(float(w) * float(x) for w, x in zip(weights, row)) + float(bias)
        # derivative of log(1 + e^-z) (label 1) or log(1 + e^z) (label 0)
        p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        residual = (p - (1.0 if label else 0.0)) / n
        for k, x in enumerate(row):
            grad[k] += residual * float(x)
        grad[-1] += residual
    return math.sqrt(sum(g * g for g in grad))


def materialized_noise_table(counts, size):
    """The `size`-entry negative-sampling table: entry i holds the vocab
    id whose cumulative unigram^(3/4) mass first reaches (i + 0.5) / size
    (the last id when rounding leaves every cumulative value below it)."""
    weights = np.asarray(counts, dtype=np.float64) ** 0.75
    cumulative = np.cumsum(weights / weights.sum())
    positions = (np.arange(size) + 0.5) / size
    table = np.searchsorted(cumulative, positions)
    return np.minimum(table, len(weights) - 1)


def sgns_document_update(kept, spans, negatives, syn0, syn1, step):
    """Changes (delta0, delta1) that one SGNS document update makes to the
    input and output tables, in float64, one (center, context) pair at a time.

    Pairs run in order of center position, then of context position; a
    context lies within `spans[center position]` positions of its center on
    either side. Row p of `negatives` holds pair p's noise ids, and those equal
    to the pair's context are skipped. Every score reads the rows as given,
    so no pair sees another pair's update; the updates are summed.
    """
    syn0 = np.asarray(syn0, dtype=np.float64)
    syn1 = np.asarray(syn1, dtype=np.float64)
    delta0 = np.zeros_like(syn0)
    delta1 = np.zeros_like(syn1)
    n = len(kept)
    pair = 0
    for pos in range(n):
        span = int(spans[pos])
        for other in range(pos - span, pos + span + 1):
            if other == pos or not 0 <= other < n:
                continue
            center, context = int(kept[pos]), int(kept[other])
            targets = [(context, 1.0)]
            targets += [(int(noise), 0.0) for noise in negatives[pair] if noise != context]
            pair += 1
            for target, label in targets:
                score = sum(float(a) * float(b) for a, b in zip(syn0[center], syn1[target]))
                score = min(30.0, max(-30.0, score))
                gradient = (label - 1.0 / (1.0 + math.exp(-score))) * step
                delta1[target] += gradient * syn0[center]
                delta0[center] += gradient * syn1[target]
    if pair != len(negatives):
        raise AssertionError(f"{len(negatives)} rows of negatives for {pair} pairs")
    return delta0, delta1


def cosine_distance(u, v):
    """1 - cos(u, v), in [0, 2]. A zero vector yields 1 (logged)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        logger.warning("cosine_distance on a zero vector; returning 1.0")
        return 1.0
    return float(np.clip(1.0 - u.dot(v) / (nu * nv), 0.0, 2.0))


def tfidf_cosine(tokens_a, tokens_b, index):
    """Cosine of two token sequences' tf·ln(N/df) vectors under the
    document frequencies of a tf-idf index, clamped to [0, 1]; 0 when either
    vector is zero. Tokens the index never saw weigh nothing."""

    def vector(tokens):
        counts = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        return {
            token: tf * math.log(index.n_docs / index.df[token])
            for token, tf in counts.items()
            if index.df.get(token, 0) > 0
        }

    vector_a, vector_b = vector(tokens_a), vector(tokens_b)
    norm_a = math.sqrt(sum(w * w for w in vector_a.values()))
    norm_b = math.sqrt(sum(w * w for w in vector_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = sum(w * vector_b.get(token, 0.0) for token, w in vector_a.items())
    return min(1.0, max(0.0, dot / (norm_a * norm_b)))


def exhaustive_topk(query, docs, table, metric, k):
    """The k nearest of `docs` ((doc id, tokens) pairs) to `query`:
    `mover_distance` to every document, sorted by (distance, doc id)."""
    ranked = sorted(
        (mover_distance(query, tokens, table, metric), doc_id) for doc_id, tokens in docs
    )
    return [(doc_id, distance) for distance, doc_id in ranked[:k]]


def uncached_ingredients_distance(a, b, table=None):
    """`ingredients.ingredients_distance` as it stood before it remembered
    anything: canonicalize both lists, cancel exact matches with multiset
    semantics, then cancel each remaining item of b, in order, against the
    earliest remaining item of a among its top similar words, and count
    what is left on both sides. Every call canonicalizes and queries the
    neighbors afresh."""
    rest_a = canonicalize_list(a)
    rest_b = canonicalize_list(b)

    count_b = Counter(rest_b)
    survivors_a = []
    for item in rest_a:
        if count_b.get(item, 0) > 0:
            count_b[item] -= 1
        else:
            survivors_a.append(item)
    survivors_b = []
    leftover = dict(count_b)
    for item in rest_b:
        if leftover.get(item, 0) > 0:
            leftover[item] -= 1
            survivors_b.append(item)

    if table is not None:
        unmatched_b = []
        for item in survivors_b:
            neighbors = {token for token, _ in nearest_neighbors(table, item, SIMILAR_TOP_K)}
            hit = next((i for i, name in enumerate(survivors_a) if name in neighbors), None)
            if hit is None:
                unmatched_b.append(item)
            else:
                del survivors_a[hit]
        survivors_b = unmatched_b

    return len(survivors_a) + len(survivors_b)


def load_truth(path):
    """The planted pairs a `synth.save_truth` file holds; a malformed line
    raises ValueError naming its position."""
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                pairs.append(
                    PlantedPair(
                        test_id=str(record["test_id"]),
                        train_id=str(record["train_id"]),
                        typo_count=int(record["typo_count"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(f"{path}:{line_no}: invalid ground-truth record: {error}")
    return pairs
