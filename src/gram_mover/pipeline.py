"""Candidate near-duplicate extraction over a date-split corpus.

For each test-side recipe, retrieve the top-k train-side recipes by an
instruction-text measure (mover distance at 3-gram or word granularity, or
a tf-idf cosine baseline), then keep pairs whose ingredients distance passes
the annotation filter. All methods share the split, width folding, and
filter logic; only the instruction measure differs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, PairLabel, Recipe
from .embed import EmbeddingTable, SgnsConfig, train_sgns
from .ingredients import (
    ANNOTATION_THRESHOLD,
    canonicalize_list,
    ingredients_distance,
    passes_annotation_filter,
)
from .mover import COSINE, SearchStats, build_index, topk_query
from .textnorm import fold_width
from .tokenize import TokenSeq, WORD, char_ngrams, gram_granularity, pretokenized, word_tokens

logger = logging.getLogger(__name__)

GRAM3 = gram_granularity(3)

METHOD_GRAM3_SGNS = "gram3-sgns"
METHOD_GRAM3_EXTERNAL = "gram3-external"
METHOD_WORD_SGNS = "word-sgns"
METHOD_WORD_EXTERNAL = "word-external"
METHOD_TFIDF = "tfidf-baseline"

ALL_METHODS = (
    METHOD_GRAM3_SGNS,
    METHOD_GRAM3_EXTERNAL,
    METHOD_WORD_SGNS,
    METHOD_WORD_EXTERNAL,
    METHOD_TFIDF,
)

_PAIR_KEYS = (
    "query_id",
    "candidate_id",
    "method",
    "instruction_distance",
    "ingredients_distance",
    "label",
)


@dataclass(frozen=True)
class CandidatePair:
    """One retrieved (test recipe, train recipe) pair that passed the
    ingredients filter. `instruction_distance` is the method's measure with
    smaller meaning closer; the tf-idf baseline stores one minus cosine
    similarity so the direction is uniform across methods."""

    query_id: str
    candidate_id: str
    method: str
    instruction_distance: float
    ingredients_distance: int
    label: PairLabel = PairLabel.UNLABELED

    def __post_init__(self):
        if not np.isfinite(self.instruction_distance) or self.instruction_distance < 0:
            raise ValueError("instruction_distance must be finite and >= 0")
        if self.ingredients_distance < 0:
            raise ValueError("ingredients_distance must be >= 0")


@dataclass
class ExtractionStats:
    queries_total: int = 0
    queries_skipped: list[str] = field(default_factory=list)
    pairs_before_filter: int = 0
    search: SearchStats = field(default_factory=SearchStats)


def method_granularity(method: str, baseline_words: bool = False) -> str:
    """Token granularity a method retrieves at. The baseline defaults to
    3-grams to stay segmenter-free; `baseline_words` switches it."""
    if method in (METHOD_GRAM3_SGNS, METHOD_GRAM3_EXTERNAL):
        return GRAM3
    if method in (METHOD_WORD_SGNS, METHOD_WORD_EXTERNAL):
        return WORD
    if method == METHOD_TFIDF:
        return WORD if baseline_words else GRAM3
    raise ValueError(f"unknown method {method!r}")


def instruction_tokens(recipe: Recipe, granularity: str) -> TokenSeq:
    """Tokenize a recipe's instructions after width folding. Word mode
    prefers corpus-supplied token arrays; 3-gram mode always re-derives
    from the folded text."""
    if granularity == WORD and recipe.instructions_tokens is not None:
        folded = [fold_width(token) for token in recipe.instructions_tokens]
        return pretokenized([token for token in folded if token])
    text = fold_width(recipe.instructions)
    if granularity == WORD:
        return word_tokens(text)
    if granularity == GRAM3:
        return char_ngrams(text, 3)
    raise ValueError(f"unknown granularity {granularity!r}")


def build_instruction_docs(
    corpus: Iterable[Recipe], granularity: str
) -> list[tuple[str, TokenSeq]]:
    return [(recipe.id, instruction_tokens(recipe, granularity)) for recipe in corpus]


# --- tf-idf baseline ---------------------------------------------------------


@dataclass
class TfidfIndex:
    """Sparse tf·log(N/df) document vectors with L2 norms and postings."""

    n_docs: int
    df: dict[str, int]
    doc_norms: dict[str, float]
    postings: dict[str, list[tuple[str, float]]]
    granularity: str

    def idf(self, token: str) -> float:
        count = self.df.get(token, 0)
        if count == 0:
            return 0.0
        return float(np.log(self.n_docs / count))


def build_tfidf_index(docs: Sequence[tuple[str, TokenSeq]]) -> TfidfIndex:
    if not docs:
        raise ValueError("cannot index an empty document list")
    granularity = docs[0][1].granularity
    df: dict[str, int] = {}
    term_counts = []
    for doc_id, tokens in docs:
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        term_counts.append((doc_id, counts))
        for token in counts:
            df[token] = df.get(token, 0) + 1

    n_docs = len(docs)
    doc_norms: dict[str, float] = {}
    postings: dict[str, list[tuple[str, float]]] = {}
    for doc_id, counts in term_counts:
        sq_sum = 0.0
        for token, tf in counts.items():
            weight = tf * float(np.log(n_docs / df[token]))
            if weight == 0.0:
                continue
            postings.setdefault(token, []).append((doc_id, weight))
            sq_sum += weight * weight
        doc_norms[doc_id] = float(np.sqrt(sq_sum))
    return TfidfIndex(
        n_docs=n_docs, df=df, doc_norms=doc_norms, postings=postings, granularity=granularity
    )


def _weighted(tokens: TokenSeq, index: TfidfIndex) -> tuple[dict[str, float], float]:
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    weights = {}
    sq_sum = 0.0
    for token, tf in counts.items():
        weight = tf * index.idf(token)
        if weight != 0.0:
            weights[token] = weight
            sq_sum += weight * weight
    return weights, float(np.sqrt(sq_sum))


def tfidf_similarities(query: TokenSeq, index: TfidfIndex) -> dict[str, float]:
    """Cosine similarity of the query against every indexed document,
    accumulated over postings; documents sharing no token score 0."""
    weights, norm = _weighted(query, index)
    scores = {doc_id: 0.0 for doc_id in index.doc_norms}
    if norm == 0.0:
        return scores
    for token, weight in weights.items():
        for doc_id, doc_weight in index.postings.get(token, ()):
            scores[doc_id] += weight * doc_weight
    for doc_id in scores:
        doc_norm = index.doc_norms[doc_id]
        if doc_norm > 0.0:
            scores[doc_id] = min(1.0, max(0.0, scores[doc_id] / (norm * doc_norm)))
        else:
            scores[doc_id] = 0.0
    return scores


# --- retrieval ---------------------------------------------------------------

Retriever = Callable[[TokenSeq], list[tuple[str, float]]]


def _mover_retriever(
    train_docs: Sequence[tuple[str, TokenSeq]],
    table: EmbeddingTable,
    metric: str,
    k: int,
    stats: ExtractionStats | None,
) -> Retriever:
    index = build_index(train_docs, table, metric)

    def retrieve(query: TokenSeq) -> list[tuple[str, float]]:
        search_stats = stats.search if stats is not None else None
        return topk_query(query, index, k, pruning=True, stats=search_stats)

    return retrieve


def _tfidf_retriever(
    train_docs: Sequence[tuple[str, TokenSeq]], k: int
) -> Retriever:
    index = build_tfidf_index(train_docs)

    def retrieve(query: TokenSeq) -> list[tuple[str, float]]:
        scores = tfidf_similarities(query, index)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
        return [(doc_id, 1.0 - similarity) for doc_id, similarity in ranked]

    return retrieve


def ingredient_sgns_config(seed: int = 2) -> SgnsConfig:
    """The fixed SGNS settings of the ingredient table; only the seed varies."""
    return SgnsConfig(
        dimension=50,
        window=15,
        epochs=10,
        subsample_threshold=0.0,
        min_count=1,
        seed=seed,
    )


def train_ingredient_table(recipes: Iterable[Recipe], seed: int = 2) -> EmbeddingTable:
    """Word-granularity embedding over ingredient lists, one document per
    recipe with each canonical ingredient name as a single token, trained
    with `ingredient_sgns_config(seed)`. Raises ValueError when the lists
    are too degenerate to train on."""
    documents = []
    for recipe in recipes:
        names = canonicalize_list(recipe.ingredients)
        if names:
            documents.append(pretokenized(names))
    try:
        return train_sgns(documents, ingredient_sgns_config(seed))
    except ValueError as error:
        raise ValueError(f"ingredient lists too degenerate to train on: {error}") from None


def extract_candidates(
    test: Corpus,
    train: Corpus,
    method: str,
    table: EmbeddingTable | None = None,
    ingredient_table: EmbeddingTable | None = None,
    k: int = 10,
    threshold: int = ANNOTATION_THRESHOLD,
    metric: str = COSINE,
    baseline_words: bool = False,
    stats: ExtractionStats | None = None,
) -> list[CandidatePair]:
    """Top-k instruction-text retrieval per test recipe, ingredients filter,
    and dedup by unordered id pair keeping the smallest distance.

    Ingredient lists are compared as (train recipe, test recipe): the train
    side plays the candidate original, the test side the candidate
    near-duplicate.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    granularity = method_granularity(method, baseline_words=baseline_words)
    train_docs = build_instruction_docs(train, granularity)

    if method == METHOD_TFIDF:
        retrieve = _tfidf_retriever(train_docs, k)
    else:
        if table is None:
            raise ValueError(f"method {method!r} requires an embedding table")
        retrieve = _mover_retriever(train_docs, table, metric, k, stats)
    return extract_with_retriever(
        test,
        train,
        method,
        granularity,
        retrieve,
        ingredient_table=ingredient_table,
        threshold=threshold,
        stats=stats,
    )


def extract_with_retriever(
    test: Corpus,
    train: Corpus,
    method: str,
    granularity: str,
    retrieve: Retriever,
    ingredient_table: EmbeddingTable | None = None,
    threshold: int = ANNOTATION_THRESHOLD,
    stats: ExtractionStats | None = None,
) -> list[CandidatePair]:
    """The retrieval loop shared by every method: query each test recipe,
    apply the ingredients filter, dedup by unordered id pair."""
    best: dict[tuple[str, str], CandidatePair] = {}
    for recipe in test:
        if stats is not None:
            stats.queries_total += 1
        query = instruction_tokens(recipe, granularity)
        try:
            hits = retrieve(query)
        except ValueError as error:
            logger.warning("skipping query %s: %s", recipe.id, error)
            if stats is not None:
                stats.queries_skipped.append(recipe.id)
            continue
        for candidate_id, distance in hits:
            if stats is not None:
                stats.pairs_before_filter += 1
            original = train.get(candidate_id)
            ing_dist = ingredients_distance(
                original.ingredients, recipe.ingredients, ingredient_table
            )
            if not passes_annotation_filter(ing_dist, threshold):
                continue
            pair = CandidatePair(
                query_id=recipe.id,
                candidate_id=candidate_id,
                method=method,
                instruction_distance=float(distance),
                ingredients_distance=ing_dist,
            )
            key = tuple(sorted((pair.query_id, pair.candidate_id)))
            kept = best.get(key)
            if kept is None or pair.instruction_distance < kept.instruction_distance:
                best[key] = pair
    return sorted(best.values(), key=lambda p: (p.query_id, p.candidate_id))


# --- reporting ---------------------------------------------------------------


def compare_methods(
    pairs_by_method: dict[str, list[CandidatePair]]
) -> dict:
    """Per-method label counts and percentages, plus the pairs each method
    found that no other method did."""
    methods = {}
    pair_sets: dict[str, set[tuple[str, str]]] = {}
    for method, pairs in pairs_by_method.items():
        total = len(pairs)
        labels: dict[str, dict] = {}
        for label in PairLabel:
            count = sum(1 for pair in pairs if pair.label is label)
            if count == 0:
                continue
            percent = 100.0 * count / total if total else 0.0
            labels[label.value] = {"count": count, "percent": round(percent, 2)}
        methods[method] = {"total": total, "labels": labels}
        pair_sets[method] = {(pair.query_id, pair.candidate_id) for pair in pairs}

    only_by = {}
    for method, pairs in pair_sets.items():
        others: set[tuple[str, str]] = set()
        for other_method, other_pairs in pair_sets.items():
            if other_method != method:
                others |= other_pairs
        only_by[method] = sorted(pairs - others)
    return {
        "methods": methods,
        "only_by": {method: [list(pair) for pair in pairs] for method, pairs in only_by.items()},
    }


def comparison_text(summary: dict) -> str:
    """Counts-and-percentages table, one row per label, one column per
    method, with exclusive-find counts appended."""
    methods = list(summary["methods"])
    label_names: list[str] = []
    for info in summary["methods"].values():
        for name in info["labels"]:
            if name not in label_names:
                label_names.append(name)

    width = max([len("label")] + [len(name) for name in label_names])
    columns = {method: max(len(method), 16) for method in methods}
    lines = []
    header = "label".ljust(width) + "".join(
        "  " + method.rjust(columns[method]) for method in methods
    )
    lines.append(header)
    for name in label_names:
        row = name.ljust(width)
        for method in methods:
            info = summary["methods"][method]["labels"].get(name)
            cell = f"{info['count']} ({info['percent']:.2f}%)" if info else "0 (0.00%)"
            row += "  " + cell.rjust(columns[method])
        lines.append(row)
    totals_row = "total".ljust(width) + "".join(
        "  " + str(summary["methods"][method]["total"]).rjust(columns[method])
        for method in methods
    )
    lines.append(totals_row)
    for method in methods:
        lines.append(f"only by {method}: {len(summary['only_by'][method])}")
    return "\n".join(lines) + "\n"


# --- candidate pair persistence ---------------------------------------------


def pair_to_record(pair: CandidatePair) -> str:
    record = {
        "query_id": pair.query_id,
        "candidate_id": pair.candidate_id,
        "method": pair.method,
        "instruction_distance": pair.instruction_distance,
        "ingredients_distance": pair.ingredients_distance,
        "label": pair.label.value,
    }
    return json.dumps(record, ensure_ascii=False)


def parse_pair_record(line: str) -> CandidatePair:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid JSON: {error}") from error
    if not isinstance(record, dict):
        raise ValueError("pair record must be a JSON object")
    missing = [key for key in _PAIR_KEYS if key not in record]
    if missing:
        raise ValueError(f"pair record missing fields: {', '.join(missing)}")
    return CandidatePair(
        query_id=str(record["query_id"]),
        candidate_id=str(record["candidate_id"]),
        method=str(record["method"]),
        instruction_distance=float(record["instruction_distance"]),
        ingredients_distance=int(record["ingredients_distance"]),
        label=PairLabel.parse(record["label"]),
    )


def save_pairs(pairs: Iterable[CandidatePair], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(pair_to_record(pair) + "\n")


def load_pairs(path) -> list[CandidatePair]:
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                pairs.append(parse_pair_record(line))
            except ValueError as error:
                raise ValueError(f"{path}:{line_no}: {error}") from error
    return pairs
