"""Planted-duplicate retrieval study on a synthetic recipe corpus.

Generates a corpus with known near-duplicates, trains character 3-gram and
word embeddings on the train side, runs every retrieval method through the
shared candidate-extraction pipeline, and prints recall overall and on the
typo-corrupted subset, together with how much work the pruned search did.

Example:
    python3 scripts/run_planted_experiment.py --train-size 400 --planted 25
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time

from gram_mover.corpus import split_by_date
from gram_mover.embed import SgnsConfig, train_sgns
from gram_mover.pipeline import (
    GRAM3,
    METHOD_GRAM3_SGNS,
    METHOD_TFIDF,
    METHOD_WORD_SGNS,
    ExtractionStats,
    build_instruction_docs,
    extract_candidates,
    train_ingredient_table,
)
from gram_mover.synth import CUTOFF, generate_corpus
from gram_mover.tokenize import WORD

logger = logging.getLogger("run_planted_experiment")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--train-size", type=int, default=940)
    parser.add_argument("--planted", type=int, default=50)
    parser.add_argument("--fresh", type=int, default=10)
    parser.add_argument("--pool-size", type=int, default=200)
    parser.add_argument("--typo-rate", type=float, default=0.02)
    parser.add_argument("--dimension", type=int, default=50)
    parser.add_argument("--window", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--k", type=int, default=10, help="retrieval depth per query")
    parser.add_argument("--threshold", type=int, default=2, help="ingredients-distance filter")
    parser.add_argument("--json", help="also write the result table to this path")
    return parser.parse_args(argv)


def train_table(train, granularity: str, args: argparse.Namespace):
    docs = [tokens for _, tokens in build_instruction_docs(train, granularity)]
    config = SgnsConfig(
        dimension=args.dimension,
        window=args.window,
        epochs=args.epochs,
        min_count=1,
        subsample_threshold=0.0,
        noise_table_size=1_000_000,
        seed=args.seed,
    )
    started = time.perf_counter()
    table = train_sgns(docs, config)
    logger.info(
        "%s embeddings: %d tokens in %.1fs",
        granularity, len(table.vocab.tokens), time.perf_counter() - started,
    )
    return table


def run_method(method, test, train, table, ingredient_table, args):
    stats = ExtractionStats()
    started = time.perf_counter()
    pairs = extract_candidates(
        test,
        train,
        method,
        table=table,
        ingredient_table=ingredient_table,
        k=args.k,
        threshold=args.threshold,
        stats=stats,
    )
    elapsed = time.perf_counter() - started
    found = {(pair.query_id, pair.candidate_id) for pair in pairs}
    return found, len(pairs), stats, elapsed


def recall(found, subset) -> float:
    if not subset:
        return float("nan")
    return sum((t.test_id, t.train_id) in found for t in subset) / len(subset)


def main(argv=None) -> int:
    args = parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    corpus, truth = generate_corpus(
        seed=args.seed,
        train_size=args.train_size,
        planted=args.planted,
        fresh=args.fresh,
        pool_size=args.pool_size,
        typo_rate=args.typo_rate,
    )
    train, test = split_by_date(corpus, CUTOFF)
    typo_subset = [t for t in truth if t.typo_count >= 1]
    logger.info(
        "corpus: %d train, %d test (%d planted, %d typo-corrupted)",
        len(train), len(test), len(truth), len(typo_subset),
    )

    gram_table = train_table(train, GRAM3, args)
    word_table = train_table(train, WORD, args)
    ingredient_table = train_ingredient_table(train, seed=args.seed + 1)

    methods = (
        (METHOD_GRAM3_SGNS, gram_table),
        (METHOD_WORD_SGNS, word_table),
        (METHOD_TFIDF, None),
    )
    rows = []
    for method, table in methods:
        found, pair_count, stats, elapsed = run_method(
            method, test, train, table, ingredient_table, args
        )
        rows.append(
            {
                "method": method,
                "pairs": pair_count,
                "recall": recall(found, truth),
                "typo_recall": recall(found, typo_subset),
                "exact_evaluations": stats.search.exact_evaluations,
                "early_stopped": stats.search.early_stopped,
                "seconds": round(elapsed, 2),
            }
        )

    header = (
        f"{'method':<18} {'pairs':>6} {'recall':>7} {'typo':>6} {'EMDs':>7} {'stopped':>7} {'time':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['method']:<18} {row['pairs']:>6} {row['recall']:>7.2f} "
            f"{row['typo_recall']:>6.2f} {row['exact_evaluations']:>7} {row['early_stopped']:>7} "
            f"{row['seconds']:>6.1f}s"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"config": vars(args), "results": rows}, handle, indent=2)
        logger.info("wrote %s", args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
