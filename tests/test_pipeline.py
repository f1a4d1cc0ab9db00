from __future__ import annotations

import datetime
import math

import numpy as np
import pytest

from conftest import GRAM3, make_table
from gram_mover.corpus import Corpus, PairLabel, Recipe
from gram_mover.mover import mover_distance
from gram_mover.pipeline import (
    ALL_METHODS,
    METHOD_GRAM3_SGNS,
    METHOD_TFIDF,
    METHOD_WORD_SGNS,
    CandidatePair,
    ExtractionStats,
    build_instruction_docs,
    build_tfidf_index,
    compare_methods,
    comparison_text,
    extract_candidates,
    extract_with_retriever,
    instruction_tokens,
    load_pairs,
    method_granularity,
    parse_pair_record,
    pair_to_record,
    save_pairs,
    tfidf_similarities,
    train_ingredient_table,
)
from gram_mover.tokenize import WORD, pretokenized
from oracles import tfidf_cosine


def _recipe(rid, instructions, ingredients=("salt",), day="2016-06-01", tokens=None):
    return Recipe(
        id=rid,
        title=rid,
        ingredients=tuple(ingredients),
        instructions=instructions,
        published=datetime.date.fromisoformat(day),
        instructions_tokens=tokens,
    )


def _measure_retriever(train, granularity, measure, k):
    """The k train recipes with the smallest `measure(query, train tokens)`,
    ties broken by id."""
    docs = build_instruction_docs(train, granularity)

    def retrieve(query):
        scored = sorted((measure(query, tokens), doc_id) for doc_id, tokens in docs)
        return [(doc_id, value) for value, doc_id in scored[:k]]

    return retrieve


def _gram_table(*texts):
    """Deterministic random vectors covering every trigram of the texts."""
    rng = np.random.default_rng(42)
    grams = sorted({t[i:i + 3] if len(t) >= 3 else t for t in texts for i in range(max(1, len(t) - 2))})
    return make_table({g: rng.normal(size=6) for g in grams})


class TestMethodGranularity:
    def test_gram_methods(self):
        assert method_granularity(METHOD_GRAM3_SGNS) == GRAM3

    def test_word_methods(self):
        assert method_granularity(METHOD_WORD_SGNS) == WORD

    def test_baseline_default_and_flag(self):
        assert method_granularity(METHOD_TFIDF) == GRAM3
        assert method_granularity(METHOD_TFIDF, baseline_words=True) == WORD

    def test_unknown(self):
        with pytest.raises(ValueError):
            method_granularity("bm25")


class TestInstructionTokens:
    def test_gram3_from_text(self):
        recipe = _recipe("r", "abcd")
        assert instruction_tokens(recipe, GRAM3).tokens == ("abc", "bcd")

    def test_width_folded_before_gramming(self):
        recipe = _recipe("r", "ＡＢＣＤ")
        assert instruction_tokens(recipe, GRAM3).tokens == ("ABC", "BCD")

    def test_word_mode_prefers_supplied_tokens(self):
        recipe = _recipe("r", "raw text here", tokens=("人参", "を", "切る"))
        assert instruction_tokens(recipe, WORD).tokens == ("人参", "を", "切る")

    def test_word_mode_falls_back_to_whitespace(self):
        recipe = _recipe("r", "cut a carrot")
        assert instruction_tokens(recipe, WORD).tokens == ("cut", "a", "carrot")

    def test_gram_mode_ignores_supplied_tokens(self):
        recipe = _recipe("r", "abcd", tokens=("x", "y"))
        assert instruction_tokens(recipe, GRAM3).tokens == ("abc", "bcd")


class TestTfidf:
    DOCS = [
        ("d1", pretokenized(["a", "b"])),
        ("d2", pretokenized(["b", "c"])),
        ("d3", pretokenized(["c", "d"])),
    ]

    def test_identical_documents(self):
        index = build_tfidf_index(self.DOCS)
        assert tfidf_similarities(self.DOCS[0][1], index)["d1"] == pytest.approx(1.0)

    def test_disjoint_documents(self):
        index = build_tfidf_index(self.DOCS)
        assert tfidf_similarities(pretokenized(["c", "d"]), index)["d1"] == 0.0

    def test_hand_computed_shared_token(self):
        # d1=[a,b], d2=[b,c]: only b overlaps; df(a)=1, df(b)=df(c)=2, so
        # idf(a)=ln 3 and idf(b)=idf(c)=ln 1.5. The cosine reduces to
        # weak^2 / (sqrt(strong^2+weak^2) * weak*sqrt(2)).
        index = build_tfidf_index(self.DOCS)
        strong, weak = math.log(3.0), math.log(1.5)
        expected = weak / (math.sqrt(2.0) * math.sqrt(strong**2 + weak**2))
        got = tfidf_similarities(self.DOCS[0][1], index)["d2"]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_token_in_every_doc_weighs_nothing(self):
        docs = [("d1", pretokenized(["x", "a"])), ("d2", pretokenized(["x", "b"]))]
        index = build_tfidf_index(docs)
        assert tfidf_similarities(docs[0][1], index)["d2"] == 0.0

    def test_similarities_match_pairwise_cosine(self):
        index = build_tfidf_index(self.DOCS)
        query = pretokenized(["a", "c"])
        scores = tfidf_similarities(query, index)
        assert set(scores) == {"d1", "d2", "d3"}
        for doc_id, tokens in self.DOCS:
            assert scores[doc_id] == pytest.approx(tfidf_cosine(query, tokens, index))

    def test_oov_query_scores_all_zero(self):
        index = build_tfidf_index(self.DOCS)
        assert set(tfidf_similarities(pretokenized(["zzz"]), index).values()) == {0.0}

    def test_empty_doc_list_rejected(self):
        with pytest.raises(ValueError):
            build_tfidf_index([])


TRAIN_TEXTS = {
    "t1": "abcdefgh",
    "t2": "ijklmnop",
    "t3": "qrstuvwx",
}


def _toy_split(test_text="abcdefgh", test_ingredients=("salt",)):
    train = Corpus.from_recipes(
        [_recipe(rid, text, ingredients=("salt",)) for rid, text in TRAIN_TEXTS.items()]
    )
    test = Corpus.from_recipes(
        [_recipe("q1", test_text, ingredients=test_ingredients, day="2016-11-02")]
    )
    table = _gram_table(*TRAIN_TEXTS.values(), test_text)
    return test, train, table


class TestExtractCandidates:
    def test_identity_pair_retained_with_zero_distances(self):
        test, train, table = _toy_split()
        pairs = extract_candidates(test, train, METHOD_GRAM3_SGNS, table=table, k=2)
        match = [p for p in pairs if p.candidate_id == "t1"]
        assert len(match) == 1
        assert match[0].instruction_distance == 0.0
        assert match[0].ingredients_distance == 0
        assert match[0].label is PairLabel.UNLABELED

    def test_ingredients_filter_drops_everything(self):
        test, train, table = _toy_split(test_ingredients=("a", "b", "c"))
        pairs = extract_candidates(test, train, METHOD_GRAM3_SGNS, table=table, k=3)
        assert pairs == []

    def test_unknown_method(self):
        test, train, _ = _toy_split()
        with pytest.raises(ValueError):
            extract_candidates(test, train, "bm25")

    def test_mover_method_requires_table(self):
        test, train, _ = _toy_split()
        with pytest.raises(ValueError, match="table"):
            extract_candidates(test, train, METHOD_GRAM3_SGNS)

    def test_unembeddable_query_skipped_and_counted(self, caplog):
        test, train, _ = _toy_split()
        table = _gram_table(*TRAIN_TEXTS.values())  # no grams of the query text
        bad = Corpus.from_recipes(
            [_recipe("q9", "zzzzzz", day="2016-11-02")]
        )
        stats = ExtractionStats()
        with caplog.at_level("WARNING"):
            pairs = extract_candidates(
                bad, train, METHOD_GRAM3_SGNS, table=table, stats=stats
            )
        assert pairs == []
        assert stats.queries_total == 1
        assert stats.queries_skipped == ["q9"]

    def test_returned_distances_are_k_smallest(self):
        test, train, table = _toy_split()
        k = 2
        pairs = extract_candidates(test, train, METHOD_GRAM3_SGNS, table=table, k=k)
        query_tokens = instruction_tokens(test.get("q1"), GRAM3)
        exhaustive = sorted(
            mover_distance(query_tokens, instruction_tokens(r, GRAM3), table)
            for r in train
        )
        cutoff = exhaustive[k - 1]
        assert pairs
        for pair in pairs:
            assert pair.instruction_distance <= cutoff + 1e-9

    def test_constant_measure_gives_identical_sets_across_methods(self):
        test, train, _ = _toy_split()
        outcomes = {}
        for method in ALL_METHODS:
            granularity = method_granularity(method)
            retrieve = _measure_retriever(train, granularity, lambda qa, qb: 0.5, k=2)
            pairs = extract_with_retriever(test, train, method, granularity, retrieve)
            outcomes[method] = {(p.query_id, p.candidate_id, p.instruction_distance) for p in pairs}
        assert len(set(map(frozenset, outcomes.values()))) == 1

    def test_dedup_keeps_smallest_distance(self):
        both = Corpus.from_recipes(
            [_recipe("r1", "abcd"), _recipe("r2", "abcde")]
        )
        # direction-dependent measure: distance = token count of the train doc
        retrieve = _measure_retriever(both, GRAM3, lambda qa, qb: float(len(qb.tokens)), k=2)
        pairs = extract_with_retriever(both, both, METHOD_GRAM3_SGNS, GRAM3, retrieve)
        cross = [p for p in pairs if p.query_id != p.candidate_id]
        assert len(cross) == 1
        assert cross[0].instruction_distance == 2.0  # min(len r1 grams, len r2 grams)

    def test_ingredient_orientation_is_train_then_test(self):
        asymmetric = make_table(
            {
                "X": [1.0, 0.0],
                "Y": [0.9, 0.436],
                "D1": [0.999, -0.04],
                "D2": [0.998, -0.05],
                "D3": [0.997, -0.06],
            }
        )
        train = Corpus.from_recipes([_recipe("t1", "abcd", ingredients=("X",))])
        test = Corpus.from_recipes(
            [_recipe("q1", "abcd", ingredients=("Y",), day="2016-11-02")]
        )
        table = _gram_table("abcd")
        forward = extract_candidates(
            test, train, METHOD_GRAM3_SGNS, table=table,
            ingredient_table=asymmetric, threshold=1,
        )
        assert [p.ingredients_distance for p in forward] == [0]

        train_y = Corpus.from_recipes([_recipe("t1", "abcd", ingredients=("Y",))])
        test_x = Corpus.from_recipes(
            [_recipe("q1", "abcd", ingredients=("X",), day="2016-11-02")]
        )
        reverse = extract_candidates(
            test_x, train_y, METHOD_GRAM3_SGNS, table=table,
            ingredient_table=asymmetric, threshold=1,
        )
        assert reverse == []

    def test_baseline_distance_is_one_minus_similarity(self):
        test, train, _ = _toy_split()
        pairs = extract_candidates(test, train, METHOD_TFIDF, k=1)
        assert len(pairs) == 1
        docs = build_instruction_docs(train, GRAM3)
        index = build_tfidf_index(docs)
        query = instruction_tokens(test.get("q1"), GRAM3)
        best = max(tfidf_similarities(query, index).values())
        assert pairs[0].instruction_distance == pytest.approx(1.0 - best)
        assert pairs[0].candidate_id == "t1"


class TestTrainIngredientTable:
    def test_learns_tokens_from_lists(self):
        recipes = [
            _recipe(f"r{i}", "abcd", ingredients=("にんじん", "塩", "水"))
            for i in range(30)
        ]
        table = train_ingredient_table(recipes)
        assert "ニンジン" in table
        assert "塩" in table

    def test_degenerate_lists_raise(self):
        recipes = [_recipe("r1", "abcd", ingredients=("塩",))]
        with pytest.raises(ValueError, match="ingredient lists too degenerate"):
            train_ingredient_table(recipes)


class TestReports:
    def _pair(self, q, c, label, method="m1"):
        return CandidatePair(
            query_id=q, candidate_id=c, method=method,
            instruction_distance=0.1, ingredients_distance=0, label=label,
        )

    def test_half_near_duplicates(self):
        pairs = [
            self._pair("q1", "c1", PairLabel.NEAR_DUPLICATE),
            self._pair("q2", "c2", PairLabel.NEAR_DUPLICATE),
            self._pair("q3", "c3", PairLabel.NON_DUPLICATE_A),
            self._pair("q4", "c4", PairLabel.NON_DUPLICATE_B),
        ]
        summary = compare_methods({"m1": pairs})
        near = summary["methods"]["m1"]["labels"]["near-duplicate"]
        assert near == {"count": 2, "percent": 50.0}

    def test_identical_sets_have_empty_differences(self):
        pairs_a = [self._pair("q1", "c1", PairLabel.NEAR_DUPLICATE, "m1")]
        pairs_b = [self._pair("q1", "c1", PairLabel.NEAR_DUPLICATE, "m2")]
        summary = compare_methods({"m1": pairs_a, "m2": pairs_b})
        assert summary["only_by"] == {"m1": [], "m2": []}

    def test_exclusive_finds_reported(self):
        pairs_a = [
            self._pair("q1", "c1", PairLabel.NEAR_DUPLICATE, "m1"),
            self._pair("q2", "c2", PairLabel.NEAR_DUPLICATE, "m1"),
        ]
        pairs_b = [self._pair("q1", "c1", PairLabel.NEAR_DUPLICATE, "m2")]
        summary = compare_methods({"m1": pairs_a, "m2": pairs_b})
        assert summary["only_by"]["m1"] == [["q2", "c2"]]

    def test_comparison_text_renders_all_methods(self):
        # a single method holds its pair exclusively, so "only by" counts it
        pairs = [self._pair("q1", "c1", PairLabel.NEAR_DUPLICATE)]
        text = comparison_text(compare_methods({"m1": pairs}))
        assert "near-duplicate" in text
        assert "1 (100.00%)" in text
        assert "only by m1: 1" in text


class TestPairPersistence:
    PAIR = CandidatePair(
        query_id="q1", candidate_id="c1", method=METHOD_GRAM3_SGNS,
        instruction_distance=0.25, ingredients_distance=1,
        label=PairLabel.NON_DUPLICATE_C,
    )

    def test_record_round_trip(self):
        assert parse_pair_record(pair_to_record(self.PAIR)) == self.PAIR

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        save_pairs([self.PAIR], path)
        assert load_pairs(path) == [self.PAIR]

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_pair_record('{"query_id": "q1"}')

    def test_load_error_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(pair_to_record(self.PAIR) + "\nnot json\n")
        with pytest.raises(ValueError, match=":2"):
            load_pairs(path)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            CandidatePair(
                query_id="q", candidate_id="c", method="m",
                instruction_distance=-0.1, ingredients_distance=0,
            )

    def test_non_finite_distance_rejected(self):
        with pytest.raises(ValueError):
            CandidatePair(
                query_id="q", candidate_id="c", method="m",
                instruction_distance=float("nan"), ingredients_distance=0,
            )
