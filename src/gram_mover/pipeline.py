"""Candidate near-duplicate extraction over a date-split corpus.

For each test-side recipe, retrieve the top-k train-side recipes by an
instruction-text measure (mover distance at 3-gram or word granularity, or
a tf-idf cosine baseline), then keep pairs whose ingredients distance passes
the annotation filter. All methods share the split, width folding, and
filter logic; only the instruction measure differs. The mover search takes
the filter as a predicate and solves to the optimum only the hits it keeps;
the others are only ranked.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, PairLabel, Recipe
from .embed import EmbeddingTable, SgnsConfig, train_sgns
from .ingredients import (
    ANNOTATION_THRESHOLD,
    canonicalize_list,
    ingredients_distance,
    passes_annotation_filter,
)
from .mover import MoverIndex, SearchStats, topk_query
from .textnorm import fold_width
from .tokenize import TokenSeq, WORD, char_ngrams, gram_granularity, pretokenized, word_tokens

logger = logging.getLogger(__name__)

GRAM3 = gram_granularity(3)
#: every instruction granularity
GRANULARITIES = (GRAM3, WORD)

METHOD_GRAM3_SGNS = "gram3-sgns"
METHOD_WORD_SGNS = "word-sgns"
METHOD_TFIDF = "tfidf-baseline"


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
    search: SearchStats = field(default_factory=SearchStats)


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


def _tfidf_weights(
    counts: Counter, df: dict[str, int], n_docs: int
) -> tuple[dict[str, float], float]:
    """The nonzero tf·log(N/df) weights of one document's term counts, in
    order of first occurrence, and their L2 norm; a term with no document
    frequency weighs nothing."""
    weights = {}
    sq_sum = 0.0
    for token, tf in counts.items():
        count = df.get(token, 0)
        weight = tf * float(np.log(n_docs / count)) if count else 0.0
        if weight != 0.0:
            weights[token] = weight
            sq_sum += weight * weight
    return weights, float(np.sqrt(sq_sum))


def build_tfidf_index(docs: Sequence[tuple[str, TokenSeq]]) -> TfidfIndex:
    if not docs:
        raise ValueError("cannot index an empty document list")
    df: dict[str, int] = {}
    term_counts = []
    for doc_id, tokens in docs:
        counts = Counter(tokens)
        term_counts.append((doc_id, counts))
        for token in counts:
            df[token] = df.get(token, 0) + 1

    n_docs = len(docs)
    doc_norms: dict[str, float] = {}
    postings: dict[str, list[tuple[str, float]]] = {}
    for doc_id, counts in term_counts:
        weights, doc_norms[doc_id] = _tfidf_weights(counts, df, n_docs)
        for token, weight in weights.items():
            postings.setdefault(token, []).append((doc_id, weight))
    return TfidfIndex(n_docs=n_docs, df=df, doc_norms=doc_norms, postings=postings)


def tfidf_similarities(query: TokenSeq, index: TfidfIndex) -> dict[str, float]:
    """Cosine similarity of the query against every indexed document,
    accumulated over postings; documents sharing no token score 0."""
    weights, norm = _tfidf_weights(Counter(query), index.df, index.n_docs)
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


class Query(NamedTuple):
    """One test recipe as a retriever sees it: its instruction tokens, and
    the ingredients filter as a predicate on train doc ids. A retriever may
    use `keep` to spend less work on hits the filter drops; it may also
    ignore it, since every hit is filtered again."""

    tokens: TokenSeq
    keep: Callable[[str], bool]


Retriever = Callable[[Query], list[tuple[str, float]]]


def _check_retrieval(k: int, documents: int) -> None:
    # a bad depth or an empty index fails every query alike: raise before the first
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if documents == 0:
        raise ValueError("the index holds no documents")


def tfidf_retriever(train_docs: Sequence[tuple[str, TokenSeq]], k: int) -> Retriever:
    """Top-k tf-idf cosine search over `train_docs`; a hit's distance is
    one minus its similarity, ties broken by doc id."""
    _check_retrieval(k, len(train_docs))
    index = build_tfidf_index(train_docs)

    def retrieve(query: Query) -> list[tuple[str, float]]:
        scores = tfidf_similarities(query.tokens, index)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
        return [(doc_id, 1.0 - similarity) for doc_id, similarity in ranked]

    return retrieve


def mover_retriever(index: MoverIndex, k: int, stats: SearchStats) -> Retriever:
    """Top-k mover search over `index`, counted in `stats`; each query's
    `keep` predicate goes to `topk_query`, which solves to the optimum only
    the hits it keeps."""
    _check_retrieval(k, len(index.entries))

    def retrieve(query: Query) -> list[tuple[str, float]]:
        return topk_query(query.tokens, index, k, stats=stats, keep=query.keep)

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
    config = ingredient_sgns_config(seed)
    try:
        return train_sgns(documents, config)
    except ValueError as error:
        raise ValueError(f"ingredient lists too degenerate to train on: {error}") from None


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
    """The retrieval loop shared by every method: query each test recipe
    with `retrieve`, built by `mover_retriever` or `tfidf_retriever` over
    the train side's `granularity` docs, and apply the ingredients filter.
    Ingredient lists are compared as (train recipe, test recipe): the train
    side plays the candidate original, the test side the candidate
    near-duplicate. Each query carries the filter as its
    `keep` predicate, so the mover search solves to the optimum only the
    hits it keeps; the ingredients distance of a pair is computed once,
    whether the search or the filter asks first. Pairs come back sorted by
    (query id, candidate id); test and train are disjoint sides of one
    corpus, so no pair repeats. Work is counted in `stats`, a fresh
    `ExtractionStats` when none is given."""
    if stats is None:
        stats = ExtractionStats()
    pairs = []
    for recipe in test:
        stats.queries_total += 1

        @cache
        def ingredients_to(candidate_id: str) -> int:
            original = train.get(candidate_id)
            return ingredients_distance(original.ingredients, recipe.ingredients, ingredient_table)

        def keep(candidate_id: str) -> bool:
            return passes_annotation_filter(ingredients_to(candidate_id), threshold)

        query = Query(instruction_tokens(recipe, granularity), keep)
        try:
            hits = retrieve(query)
        except ValueError as error:
            logger.warning("skipping query %s: %s", recipe.id, error)
            stats.queries_skipped.append(recipe.id)
            continue
        for candidate_id, distance in hits:
            if keep(candidate_id):
                pairs.append(
                    CandidatePair(
                        query_id=recipe.id,
                        candidate_id=candidate_id,
                        method=method,
                        instruction_distance=float(distance),
                        ingredients_distance=ingredients_to(candidate_id),
                    )
                )
    return sorted(pairs, key=lambda p: (p.query_id, p.candidate_id))


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
    """One JSON object, its keys `CandidatePair`'s fields in their order."""
    return json.dumps({**asdict(pair), "label": pair.label.value}, ensure_ascii=False)


#: each pair-record field's JSON types, and what the error calls them; a
#: bool, though an int in Python, is none of them
_PAIR_FIELD_TYPES = {
    "query_id": ((str,), "a string"),
    "candidate_id": ((str,), "a string"),
    "method": ((str,), "a string"),
    "instruction_distance": ((int, float), "a number"),
    "ingredients_distance": ((int,), "an integer"),
    "label": ((str,), "a string"),
}


def parse_pair_record(line: str) -> CandidatePair:
    """One pair record, each field checked against its JSON type, not
    coerced to it; an error names the field."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid JSON: {error}") from error
    if not isinstance(record, dict):
        raise ValueError("pair record must be a JSON object")
    missing = [f.name for f in fields(CandidatePair) if f.name not in record]
    if missing:
        raise ValueError(f"pair record missing fields: {', '.join(missing)}")
    for name, (types, expected) in _PAIR_FIELD_TYPES.items():
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{name}: expected {expected}, got {type(value).__name__}")
    try:
        instruction_distance = float(record["instruction_distance"])
    except OverflowError:
        raise ValueError("instruction_distance: too large for a float") from None
    return CandidatePair(
        query_id=record["query_id"],
        candidate_id=record["candidate_id"],
        method=record["method"],
        instruction_distance=instruction_distance,
        ingredients_distance=record["ingredients_distance"],
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
