"""Acceptance gate: the numbered guarantees this package ships under.

Each check prints exactly one PASS/FAIL line (visible with `pytest -s`)
and enforces its stated tolerance and time budget. The per-module suites
carry the diagnostic detail; this file is the go/no-go summary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from conftest import GRAM3, make_histogram, make_table, random_instance
from oracles import central_difference_gradient, exhaustive_topk, oracle_emd

from gram_mover.classify import (
    FOREST,
    LOGISTIC,
    f1_score,
    logistic_loss_and_grad,
    loocv_grid_search,
    undersample,
)
from gram_mover.corpus import split_by_date
from gram_mover.embed import SgnsConfig, train_sgns
from gram_mover.ingredients import ingredients_distance
from gram_mover.mover import (
    COSINE,
    EUCLIDEAN,
    SearchStats,
    build_index,
    cost_matrix,
    emd_exact,
    mover_distance,
    rwmd,
    topk_query,
    wcd,
)
from gram_mover.pipeline import (
    METHOD_GRAM3_SGNS,
    METHOD_WORD_SGNS,
    ExtractionStats,
    build_instruction_docs,
    extract_with_retriever,
    mover_retriever,
    train_ingredient_table,
)
from gram_mover.synth import CUTOFF, generate_corpus, synthetic_classification_pool
from gram_mover.tokenize import WORD, TokenSeq


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}", flush=True)
        raise
    print(f"PASS {name} ({time.perf_counter() - started:.1f}s)", flush=True)


def _random_table(rng: np.random.Generator, size: int, dim: int):
    return make_table({f"t{i:03d}": rng.normal(size=dim).tolist() for i in range(size)})


def _random_doc(rng: np.random.Generator, tokens, low: int = 8, high: int = 21) -> TokenSeq:
    size = int(rng.integers(low, high))
    chosen = tuple(str(t) for t in rng.choice(tokens, size=size))
    return TokenSeq(tokens=chosen, granularity=GRAM3)


def test_exact_transport_matches_enumeration_oracle():
    with criterion("01 exact transport matches vertex enumeration on 200 random instances"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, b, cost = random_instance(rng, max_support=4)
            value, _ = emd_exact(a, b, cost)
            expected = oracle_emd(a.weights, b.weights, cost.values)
            assert abs(value - expected) <= 1e-9
        assert time.perf_counter() - started < 10.0


def test_lower_bounds_never_exceed_exact_distance():
    with criterion("02 rwmd (and euclidean wcd) stay below the exact distance, 1,000 instances"):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        table = _random_table(rng, 48, 8)
        for i in range(1000):
            metric = EUCLIDEAN if i % 2 else COSINE
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            a = make_histogram(
                rng.dirichlet(np.ones(m)), support=np.sort(rng.choice(48, m, replace=False))
            )
            b = make_histogram(
                rng.dirichlet(np.ones(n)), support=np.sort(rng.choice(48, n, replace=False))
            )
            cost = cost_matrix(a, b, table, metric)
            exact, _ = emd_exact(a, b, cost)
            assert rwmd(a, b, cost) <= exact + 1e-9
            if metric == EUCLIDEAN:
                assert wcd(a, b, table) <= exact + 1e-9
        assert time.perf_counter() - started < 30.0


def test_pruned_search_is_exact_and_cheaper():
    with criterion("03 pruned top-10 search equals exhaustive search at <= 60% exact EMDs"):
        started = time.perf_counter()
        rng = np.random.default_rng(303)
        clusters, per_cluster, dim = 8, 50, 16
        centers = rng.normal(size=(clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        entries = {}
        for c in range(clusters):
            for i in range(per_cluster):
                entries[f"c{c}t{i:02d}"] = (centers[c] + 0.12 * rng.normal(size=dim)).tolist()
        table = make_table(entries)
        names = table.vocab.tokens

        def sample_doc():
            c = int(rng.integers(clusters))
            pool = names[c * per_cluster : (c + 1) * per_cluster]
            return _random_doc(rng, pool, low=18, high=31)

        docs = [(f"doc{i:03d}", sample_doc()) for i in range(500)]
        index = build_index(docs, table, COSINE)
        assert len(index.entries) == 500
        queries = [sample_doc() for _ in range(50)]

        stats = SearchStats()
        for query in queries:
            pruned = topk_query(query, index, 10, stats=stats)
            assert pruned == exhaustive_topk(query, docs, table, COSINE, 10)
        exhaustive_solves = len(queries) * len(index.entries)  # one per query and entry
        assert exhaustive_solves == 50 * 500
        assert stats.exact_evaluations <= 0.6 * exhaustive_solves
        assert time.perf_counter() - started < 120.0


def test_f1_arithmetic_matches_published_rounding():
    with criterion("04 harmonic F1 reproduces the published two-decimal scores"):
        assert round(f1_score(0.74, 0.89), 2) == 0.81
        assert round(f1_score(0.83, 0.97), 2) == 0.89


def test_planted_duplicates_recovered_and_grams_hold_up_under_typos():
    with criterion("05 planted-duplicate recall >= 90%, 3-gram >= word recall on typo subset"):
        started = time.perf_counter()
        corpus, truth = generate_corpus(seed=7)
        train, test = split_by_date(corpus, CUTOFF)
        sgns = dict(
            dimension=50,
            window=5,
            epochs=5,
            min_count=1,
            subsample_threshold=0.0,
            noise_table_size=1_000_000,
            seed=1,
        )
        gram_docs = [tokens for _, tokens in build_instruction_docs(train, GRAM3)]
        gram_table = train_sgns(gram_docs, SgnsConfig(**sgns))
        word_docs = [tokens for _, tokens in build_instruction_docs(train, WORD)]
        word_table = train_sgns(word_docs, SgnsConfig(**sgns))
        ingredient_table = train_ingredient_table(train, seed=2)

        def found_pairs(method, granularity, table):
            stats = ExtractionStats()
            index = build_index(build_instruction_docs(train, granularity), table)
            pairs = extract_with_retriever(
                test, train, method, granularity, mover_retriever(index, 10, stats.search),
                ingredient_table=ingredient_table, threshold=2, stats=stats,
            )
            return {(pair.query_id, pair.candidate_id) for pair in pairs}

        def recall(found, subset):
            return sum((t.test_id, t.train_id) in found for t in subset) / len(subset)

        gram_found = found_pairs(METHOD_GRAM3_SGNS, GRAM3, gram_table)
        word_found = found_pairs(METHOD_WORD_SGNS, WORD, word_table)
        typos = [t for t in truth if t.typo_count >= 1]
        assert typos
        assert recall(gram_found, truth) >= 0.9
        assert recall(gram_found, typos) >= recall(word_found, typos)
        assert time.perf_counter() - started < 600.0


def test_identity_and_symmetry():
    with criterion("06 self-distance is exactly zero and the distance is symmetric, 100 pairs"):
        started = time.perf_counter()
        rng = np.random.default_rng(606)
        table = _random_table(rng, 40, 8)
        tokens = table.vocab.tokens
        for _ in range(100):
            doc_a = _random_doc(rng, tokens)
            doc_b = _random_doc(rng, tokens)
            assert mover_distance(doc_a, doc_a, table) == 0.0
            forward = mover_distance(doc_a, doc_b, table)
            backward = mover_distance(doc_b, doc_a, table)
            assert abs(forward - backward) < 1e-9
        assert time.perf_counter() - started < 10.0


def test_ingredients_distance_fixed_table():
    with criterion("07 ingredients distance matches the fixed 12-case hand-executed table"):
        # 馬鈴薯's top-3 neighbors include ジャガイモ; the reverse direction
        # sees only the decoy cluster, which pins the asymmetry.
        table = make_table(
            {
                "ジャガイモ": [1.0, 0.0],
                "馬鈴薯": [0.9, 0.436],
                "トマト": [0.999, -0.04],
                "ナス": [0.998, -0.05],
                "キュウリ": [0.997, -0.06],
            }
        )
        cases = [
            ([], [], None, 0),
            (["ニンジン"], [], None, 1),
            ([], ["ニンジン"], None, 1),
            (["ニンジン", "塩"], ["ニンジン"], None, 1),
            (["にんじん（中）"], ["ニンジン"], None, 0),
            (["ニンジン", "ニンジン"], ["ニンジン"], None, 1),
            (["塩", "ニンジン"], ["ニンジン", "砂糖"], None, 2),
            (["ジャガイモ"], ["馬鈴薯"], table, 0),
            (["馬鈴薯"], ["ジャガイモ"], table, 2),
            (["ジャガイモ", "塩"], ["馬鈴薯", "塩"], table, 0),
            (["トマト"], ["キュウリ"], table, 0),
            (["塩"], ["馬鈴薯"], table, 2),
        ]
        for a, b, emb, expected in cases:
            assert ingredients_distance(a, b, table=emb) == expected


def test_classifier_grid_search_separates_the_synthetic_pool():
    with criterion("08 undersampled LOO grid search reaches F1 >= 0.8 for both model kinds"):
        started = time.perf_counter()
        pool = synthetic_classification_pool(seed=1)
        balanced = undersample(pool, seed=1)
        for kind in (LOGISTIC, FOREST):
            result = loocv_grid_search(balanced, kind, seed=1)
            assert result.best_metrics.f1 >= 0.8
        assert time.perf_counter() - started < 120.0


def test_logistic_gradient_matches_finite_differences():
    with criterion("09 analytic logistic gradient matches central differences at 50 points"):
        rng = np.random.default_rng(909)
        features = rng.normal(size=(30, 2))
        labels = rng.random(30) < 0.5
        for _ in range(50):
            params = rng.normal(size=3)
            regularization = float(rng.uniform(0.0, 5.0))
            _, grad = logistic_loss_and_grad(params, features, labels, regularization)
            numeric = central_difference_gradient(
                lambda p: logistic_loss_and_grad(p, features, labels, regularization)[0],
                params,
            )
            rel = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-6


def test_disjoint_topics_separate_in_embedding_space():
    with criterion("10 two-topic embeddings: intra-topic similarity beats inter by >= 0.2"):
        started = time.perf_counter()
        rng = np.random.default_rng(1010)
        topic_a = [f"alpha{i:02d}" for i in range(20)]
        topic_b = [f"beta{i:02d}" for i in range(20)]
        docs = []
        for i in range(1000):
            pool = topic_a if i % 2 == 0 else topic_b
            chosen = tuple(str(t) for t in rng.choice(pool, size=12))
            docs.append(TokenSeq(tokens=chosen, granularity=WORD))
        config = SgnsConfig(
            dimension=32,
            window=5,
            epochs=5,
            min_count=1,
            subsample_threshold=0.0,
            noise_table_size=100_000,
            seed=5,
        )
        table = train_sgns(docs, config)
        units = table.unit_vectors
        sims = units @ units.T
        rows_a = np.array([table.vocab.index[t] for t in topic_a])
        rows_b = np.array([table.vocab.index[t] for t in topic_b])

        def intra_mean(rows):
            block = sims[np.ix_(rows, rows)]
            n = len(rows)
            return (block.sum() - np.trace(block)) / (n * (n - 1))

        intra = (intra_mean(rows_a) + intra_mean(rows_b)) / 2.0
        inter = sims[np.ix_(rows_a, rows_b)].mean()
        assert intra - inter >= 0.2
        assert time.perf_counter() - started < 120.0
