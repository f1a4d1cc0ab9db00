"""Skip-gram negative-sampling embeddings over word or n-gram streams.

The trainer is a plain numpy implementation: input and output vector tables,
logistic loss against noise samples drawn from the unigram distribution raised
to 3/4, dynamic window, frequency subsampling, and a linearly decayed step
size. Training runs on one thread and updates the tables once per document,
every pair of the document scored against the rows as they stood at its
start. No step calls BLAS, so a fixed seed makes the vectors bitwise
reproducible whatever the BLAS thread count.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .settings import ConfigError, check_bounds
from .tokenize import TokenSeq

_ESCAPE_RE = re.compile(r"\\u([0-9a-fA-F]{4})")


@dataclass
class Vocab:
    """Token/index bijection over tokens retained by a frequency threshold;
    `index` is derived from `tokens`, which must not repeat a token."""

    tokens: list[str]
    counts: np.ndarray | None
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {token: pos for pos, token in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("tokens holds a token more than once")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


@dataclass(frozen=True)
class SgnsConfig:
    """SGNS settings, checked when built against `_BOUNDS`; only NaN fails
    `subsample_threshold`."""

    dimension: int = 100
    window: int = 15
    negatives: int = 5
    epochs: int = 5
    initial_step_size: float = 0.025
    final_step_size: float = 1e-4
    subsample_threshold: float = 1e-4  # <= 0 disables subsampling
    min_count: int = 5
    seed: int = 1
    noise_table_size: int = 10_000_000  # resolution of the noise draws; no table this size is built

    # un-annotated, so that it is no field, flag or config-file key
    _BOUNDS = (
        ("dimension", ">=", 1), ("window", ">=", 1), ("negatives", ">=", 1), ("epochs", ">=", 1),
        ("initial_step_size", ">", 0), ("final_step_size", ">", 0), ("min_count", ">=", 1),
        ("seed", ">=", 0), ("noise_table_size", ">=", 1),
    )

    def __post_init__(self):
        check_bounds(vars(self), self._BOUNDS)
        if np.isnan(self.subsample_threshold):
            raise ConfigError("subsample_threshold", "must be a number, not NaN")


@dataclass(eq=False)
class EmbeddingTable:
    """Dense vectors aligned with a vocab; immutable after training/loading.
    Tables compare and hash by identity, so caches can key on them."""

    vocab: Vocab
    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.vocab):
            raise ValueError("vectors must be one row per vocab entry")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors must be finite")

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    @cached_property
    def unit_vectors(self) -> np.ndarray:
        """Rows normalized to unit length; zero rows stay zero."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        return self.vectors / np.where(norms > 0, norms, 1.0)


def build_vocab(tokens: Iterable[str], min_count: int = 1) -> Vocab:
    """Retain tokens with frequency >= min_count, indexed by descending
    frequency with lexicographic tie-break."""
    counts = Counter(tokens)
    retained = sorted(
        ((token, count) for token, count in counts.items() if count >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    if not retained:
        raise ValueError("no tokens meet the min_count threshold; vocabulary is empty")
    return Vocab(
        tokens=[token for token, _ in retained],
        counts=np.array([count for _, count in retained], dtype=np.int64),
    )


def _noise_cumulative(counts: np.ndarray) -> np.ndarray:
    """Cumulative unigram^(3/4) distribution over the vocab, its last entry
    raised to infinity so that positions past a rounded-down total still
    land on the last id."""
    weights = counts.astype(np.float64) ** 0.75
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = np.inf
    return cumulative


def _noise_lookup(cumulative: np.ndarray, draws: np.ndarray, size: int) -> np.ndarray:
    """Vocab ids of noise draws in [0, size): draw i stands for the i-th of
    `size` evenly spaced positions in the cumulative distribution, the
    entry a materialized `size`-entry noise table would hold at i."""
    return cumulative.searchsorted((draws + 0.5) / size)


class _NoiseSampler:
    """`_noise_lookup` with a guide: the draws fall into buckets of `width`
    consecutive draws, at most 8 per vocab id, and the guide holds the id
    that every draw of a bucket takes, or -1 where the bucket may span more
    than one id. Only draws in such buckets search the distribution."""

    def __init__(self, counts: np.ndarray, size: int):
        self.cumulative = _noise_cumulative(counts)
        self.size = size
        self.width = -(-size // min(size, 8 * len(counts)))
        buckets = -(-size // self.width)
        # ids are monotone in the draw: a bucket whose first draw and the
        # next bucket's first draw take one id takes it throughout
        edges = _noise_lookup(self.cumulative, np.arange(buckets + 1) * self.width, size)
        self.guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1).astype(np.int32)

    def __call__(self, draws: np.ndarray) -> np.ndarray:
        ids = self.guide[draws // self.width]
        unresolved = ids < 0
        ids[unresolved] = _noise_lookup(self.cumulative, draws[unresolved], self.size)
        return ids


def _encode_documents(documents: Sequence[TokenSeq], vocab: Vocab) -> list[np.ndarray]:
    encoded = []
    for doc in documents:
        ids = [vocab.index[t] for t in doc.tokens if t in vocab.index]
        encoded.append(np.asarray(ids, dtype=np.int32))
    return encoded


def train_sgns(documents: Sequence[TokenSeq], config: SgnsConfig) -> EmbeddingTable:
    """Train input vectors with SGNS over the documents' token streams.

    Each epoch visits the documents in order, subsamples each one, and
    updates the vectors once per document (see `_train_document`), with a
    step size decayed linearly over all epochs' tokens. The draws and the
    order of every sum are fixed by the seed, and no step calls BLAS, so
    results are bitwise reproducible and do not depend on the BLAS thread
    count.
    """
    granularities = {doc.granularity for doc in documents if len(doc)}
    if len(granularities) > 1:
        raise ValueError(f"documents mix granularities: {sorted(granularities)}")

    vocab = build_vocab(
        (token for doc in documents for token in doc.tokens), config.min_count
    )
    encoded = _encode_documents(documents, vocab)
    if all(len(doc) < 2 for doc in encoded):
        raise ValueError("degenerate corpus: every document has fewer than 2 in-vocab tokens")

    rng = np.random.default_rng(config.seed)
    size = len(vocab)
    syn0 = ((rng.random((size, config.dimension)) - 0.5) / config.dimension).astype(np.float32)
    syn1 = np.zeros((size, config.dimension), dtype=np.float32)
    noise = _NoiseSampler(vocab.counts, config.noise_table_size)

    if config.subsample_threshold > 0:
        frequencies = vocab.counts / vocab.counts.sum()
        ratio = config.subsample_threshold / frequencies
        keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)
    else:
        keep_prob = None

    schedule_span = max(1, config.epochs * sum(len(doc) for doc in encoded))
    processed = 0
    for _ in range(config.epochs):
        for doc in encoded:
            processed += len(doc)
            if len(doc) < 2:
                continue
            kept = doc[rng.random(len(doc)) < keep_prob[doc]] if keep_prob is not None else doc
            if len(kept) < 2:
                continue
            step = max(
                config.final_step_size,
                config.initial_step_size * (1.0 - processed / schedule_span),
            )
            _train_document(kept, syn0, syn1, noise, config, rng, np.float32(step))

    return EmbeddingTable(vocab=vocab, vectors=syn0)


def _train_document(
    kept: np.ndarray,
    syn0: np.ndarray,
    syn1: np.ndarray,
    noise: _NoiseSampler,
    config: SgnsConfig,
    rng: np.random.Generator,
    step: np.float32,
) -> None:
    """One update of `syn0` and `syn1` from a subsampled document.

    Every (center, context) pair of the document is scored against the rows
    as they stood at its start, so no pair sees another's update, and the
    pairs' gradients are summed into both tables at the end.

    Draw order: one span in [1, window] per kept token, then `negatives`
    noise draws in [0, noise_table_size) per pair, the pairs in order of
    center position and then of context position. A context lies within its
    center's span on either side; a negative equal to its pair's context
    takes no update. The working memory grows with the number of pairs,
    about (negatives + 1) * dimension floats each.
    """
    n = len(kept)
    window = config.window
    spans = rng.integers(1, window + 1, size=n)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    positions = np.arange(n)[:, None] + offsets
    within = (np.abs(offsets) <= spans[:, None]) & (positions >= 0) & (positions < n)
    centers, slots = np.nonzero(within)
    contexts = kept[positions[centers, slots]]

    draws = rng.integers(0, config.noise_table_size, size=(len(contexts), config.negatives))
    targets = np.concatenate([contexts[:, None], noise(draws)], axis=1)
    # negatives that collide with their pair's context take no update
    live = targets != contexts[:, None]
    live[:, 0] = True

    center_ids = kept[centers]
    inputs = syn0[center_ids]
    outputs = syn1[targets]
    raw = np.clip(np.einsum("pjd,pd->pj", outputs, inputs), -30.0, 30.0)
    gradient = -1.0 / (1.0 + np.exp(-raw))
    gradient[:, 0] += 1.0
    gradient *= step * live

    input_deltas = np.einsum("pj,pjd->pd", gradient, outputs)
    # the gathered output rows are read; their buffer takes their deltas
    _scatter_add(syn1, targets, np.einsum("pj,pd->pjd", gradient, inputs, out=outputs))
    _scatter_add(syn0, center_ids, input_deltas)


#: rows of one `np.add.at` in `_scatter_add`
_SCATTER_ROWS = 1024


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`table[rows[i]] += values[i]` for each i in order, repeated rows summed.

    `np.add.at` over single elements, `_SCATTER_ROWS` rows at a time so that
    the index stays small; with an even number of columns, each two float32
    columns travel as one complex64, which halves the index and adds the
    same float32 values in the same order."""
    lanes = np.complex64 if table.shape[1] % 2 == 0 else table.dtype
    flat = table.view(lanes).reshape(-1)
    width = table.shape[1] * table.itemsize // flat.itemsize
    rows = rows.reshape(-1, 1).astype(np.intp)
    values = values.reshape(len(rows), -1).view(lanes)
    for start in range(0, len(rows), _SCATTER_ROWS):
        block = slice(start, start + _SCATTER_ROWS)
        np.add.at(flat, (rows[block] * width + np.arange(width)).ravel(), values[block].ravel())


def nearest_neighbors(
    table: EmbeddingTable, token: str, k: int
) -> list[tuple[str, float]]:
    """Exact k nearest tokens by cosine similarity, excluding the query.

    Ties break toward the smaller vocab index. Unknown tokens yield [].
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if token not in table.vocab:
        return []
    units = table.unit_vectors
    query_index = table.vocab.index[token]
    sims = units @ units[query_index]
    order = np.lexsort((np.arange(len(sims)), -sims))
    result = []
    for idx in order:
        if idx == query_index:
            continue
        result.append((table.vocab.tokens[idx], float(sims[idx])))
        if len(result) == k:
            break
    return result


def _escape_token(token: str) -> str:
    return "".join(
        f"\\u{ord(ch):04x}" if ch == "\\" or ch.isspace() else ch for ch in token
    )


def _unescape_token(token: str) -> str:
    return _ESCAPE_RE.sub(lambda m: chr(int(m.group(1), 16)), token)


def save_vectors(table: EmbeddingTable, path: str | Path) -> None:
    """Write the word2vec/fastText text format: header `count dim`, then one
    `token c1 ... cd` line per row. Whitespace inside tokens is escaped as
    \\uXXXX sequences (backslash itself as \\u005c)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table.vocab)} {table.dimension}\n")
        for pos, token in enumerate(table.vocab.tokens):
            components = " ".join(repr(float(x)) for x in table.vectors[pos])
            handle.write(f"{_escape_token(token)} {components}\n")


def load_vectors(path: str | Path) -> EmbeddingTable:
    """Read the text vector format back; errors carry the offending line number."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError("header must be '<count> <dimension>'")
        try:
            count, dimension = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"non-numeric header: {exc}") from exc
        tokens = []
        vectors = np.empty((count, dimension), dtype=np.float32)
        row = 0
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            if row >= count:
                raise ValueError(f"row count mismatch: header declares {count} rows")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dimension + 1:
                raise ValueError(
                    f"line {lineno}: expected {dimension} components, got {len(parts) - 1}"
                )
            try:
                vectors[row] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-numeric component: {exc}") from exc
            tokens.append(_unescape_token(parts[0]))
            row += 1
    if row != count:
        raise ValueError(f"row count mismatch: header declares {count} rows, found {row}")
    return EmbeddingTable(vocab=Vocab(tokens=tokens, counts=None), vectors=vectors)
