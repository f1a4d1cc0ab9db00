"""Skip-gram negative-sampling embeddings over word or n-gram streams.

The trainer is a plain numpy implementation: input and output vector tables,
logistic loss against noise samples drawn from the unigram distribution raised
to 3/4, dynamic window, frequency subsampling, and a linearly decayed step
size. Training runs on one thread, one document at a time, and a fixed seed
makes it bitwise reproducible.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .tokenize import TokenSeq

_ESCAPE_RE = re.compile(r"\\u([0-9a-fA-F]{4})")


@dataclass
class Vocab:
    """Token/index bijection over tokens retained by a frequency threshold."""

    tokens: list[str]
    index: dict[str, int]
    counts: np.ndarray | None

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


@dataclass
class SgnsConfig:
    dimension: int = 100
    window: int = 15
    negatives: int = 5
    epochs: int = 5
    initial_step_size: float = 0.025
    final_step_size: float = 1e-4
    subsample_threshold: float = 1e-4  # <= 0 disables subsampling
    min_count: int = 5
    seed: int = 1
    noise_table_size: int = 10_000_000  # resolution of the noise draws; no table is built

    def validated(self) -> "SgnsConfig":
        for name in ("dimension", "window", "negatives", "epochs", "min_count", "noise_table_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("initial_step_size", "final_step_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        return self


@dataclass
class EmbeddingTable:
    """Dense vectors aligned with a vocab; immutable after training/loading."""

    vocab: Vocab
    vectors: np.ndarray
    _units: np.ndarray | None = field(default=None, repr=False)

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

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocab.index[token]]

    def unit_vectors(self) -> np.ndarray:
        """Rows normalized to unit length; zero rows stay zero. Cached."""
        if self._units is None:
            norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
            safe = np.where(norms > 0, norms, 1.0)
            object.__setattr__(self, "_units", self.vectors / safe)
        return self._units


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
    token_list = [token for token, _ in retained]
    return Vocab(
        tokens=token_list,
        index={token: pos for pos, token in enumerate(token_list)},
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


def _encode_documents(documents: Sequence[TokenSeq], vocab: Vocab) -> list[np.ndarray]:
    encoded = []
    for doc in documents:
        ids = [vocab.index[t] for t in doc.tokens if t in vocab.index]
        encoded.append(np.asarray(ids, dtype=np.int32))
    return encoded


def train_sgns(documents: Sequence[TokenSeq], config: SgnsConfig) -> EmbeddingTable:
    """Train input vectors with SGNS over the documents' token streams.

    Each epoch visits the documents in order, subsamples each one, and
    updates the vectors one kept token at a time with a step size decayed
    linearly over all epochs' tokens. The update order is fixed by the seed,
    so results are bitwise reproducible.
    """
    config = config.validated()
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
    noise = _noise_cumulative(vocab.counts)

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
    noise: np.ndarray,
    config: SgnsConfig,
    rng: np.random.Generator,
    step: np.float32,
) -> None:
    """One pass over a subsampled document: each kept token against its
    dynamic window's contexts and `negatives` noise draws per context, with
    `syn0` and `syn1` updated in place."""
    n = len(kept)
    spans = rng.integers(1, config.window + 1, size=n)
    for pos in range(n):
        span = spans[pos]
        lo = max(0, pos - span)
        contexts = np.concatenate([kept[lo:pos], kept[pos + 1:pos + span + 1]])
        if len(contexts) == 0:
            continue
        center = kept[pos]
        draws = rng.integers(0, config.noise_table_size, size=(len(contexts), config.negatives))
        negatives = _noise_lookup(noise, draws, config.noise_table_size)

        targets = np.concatenate([contexts, negatives.ravel()])
        labels = np.zeros(len(targets), dtype=np.float32)
        labels[: len(contexts)] = 1.0
        # negatives that collide with their positive target are skipped
        collisions = (negatives == contexts[:, None]).ravel()
        if collisions.any():
            mask = np.ones(len(targets), dtype=bool)
            mask[len(contexts):] = ~collisions
            targets = targets[mask]
            labels = labels[mask]

        v = syn0[center]
        rows = syn1[targets]
        raw = np.clip(rows.dot(v), -30.0, 30.0)
        scores = 1.0 / (1.0 + np.exp(-raw))
        gradient = (labels - scores) * step
        np.add.at(syn1, targets, gradient[:, None] * v[None, :])
        syn0[center] = v + gradient.dot(rows)


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
    units = table.unit_vectors()
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
    if len(set(tokens)) != len(tokens):
        raise ValueError("duplicate token in vector file")
    vocab = Vocab(tokens=tokens, index={t: i for i, t in enumerate(tokens)}, counts=None)
    return EmbeddingTable(vocab=vocab, vectors=vectors)
