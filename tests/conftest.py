from __future__ import annotations

import numpy as np

from gram_mover.embed import EmbeddingTable, Vocab
from gram_mover.mover import CostMatrix, GramHistogram
from gram_mover.tokenize import gram_granularity

GRAM3 = gram_granularity(3)


def make_table(entries: dict[str, list[float]]) -> EmbeddingTable:
    """Hand-built embedding table; token order fixes the vocab indices."""
    tokens = list(entries)
    vocab = Vocab(
        tokens=tokens,
        index={token: pos for pos, token in enumerate(tokens)},
        counts=None,
    )
    vectors = np.asarray([entries[token] for token in tokens], dtype=np.float64)
    return EmbeddingTable(vocab=vocab, vectors=vectors)


def make_histogram(weights, support=None) -> GramHistogram:
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    if support is None:
        support = np.arange(len(weights))
    return GramHistogram(support=np.asarray(support, dtype=np.int64), weights=weights)


def make_cost(values) -> CostMatrix:
    return CostMatrix(values=np.asarray(values, dtype=np.float64))


def random_instance(rng: np.random.Generator, max_support: int = 4, rounded: bool = False):
    """Random transport instance; rounding forces cost ties for degeneracy."""
    m = int(rng.integers(1, max_support + 1))
    n = int(rng.integers(1, max_support + 1))
    a = make_histogram(rng.dirichlet(np.ones(m)))
    b = make_histogram(rng.dirichlet(np.ones(n)))
    values = rng.random((m, n))
    if rounded:
        values = np.round(values, 1)
    return a, b, make_cost(values)
