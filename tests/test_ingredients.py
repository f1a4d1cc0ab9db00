from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_table
from oracles import uncached_ingredients_distance
from gram_mover.ingredients import (
    ANNOTATION_THRESHOLD,
    canonicalize_ingredient,
    canonicalize_list,
    ingredients_distance,
    passes_annotation_filter,
)

name_lists = st.lists(st.sampled_from(["ニンジン", "タマネギ", "塩", "水", "豆腐"]), max_size=6)


class TestCanonicalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("にんじん（中）", "ニンジン"),
            ("salt!", "salt"),
            ("じゃがいも", "ジャガイモ"),
            ("  tofu  ", "tofu"),
            ("carrot (large)", "carrot"),
        ],
    )
    def test_cases(self, raw, expected):
        assert canonicalize_ingredient(raw) == expected

    def test_decoration_only_name_empties_out(self):
        assert canonicalize_ingredient("（飾り用）") == ""

    def test_list_drops_empties(self, caplog):
        with caplog.at_level("INFO"):
            out = canonicalize_list(["にんじん", "（飾り用）", "塩"])
        assert out == ["ニンジン", "塩"]
        assert any("飾り用" in r.getMessage() for r in caplog.records)

    @given(name=st.text(max_size=30))
    def test_idempotent(self, name):
        once = canonicalize_ingredient(name)
        assert canonicalize_ingredient(once) == once


class TestExactCancellation:
    def test_identical_lists(self):
        assert ingredients_distance(["ニンジン", "塩"], ["ニンジン", "塩"]) == 0

    def test_one_survivor(self):
        assert ingredients_distance(["ニンジン", "塩"], ["ニンジン"]) == 1

    def test_survivor_on_candidate_side(self):
        assert ingredients_distance(["ニンジン"], ["ニンジン", "塩"]) == 1

    def test_multiset_semantics(self):
        # each occurrence consumes exactly one occurrence
        assert ingredients_distance(["ニンジン", "ニンジン"], ["ニンジン"]) == 1
        assert ingredients_distance(["ニンジン"], ["ニンジン", "ニンジン", "ニンジン"]) == 2

    def test_kana_variants_cancel(self):
        assert ingredients_distance(["にんじん"], ["ニンジン"]) == 0

    def test_empty_lists(self):
        assert ingredients_distance([], []) == 0
        assert ingredients_distance(["ニンジン", "塩"], []) == 2
        assert ingredients_distance([], ["ニンジン"]) == 1


# X's own neighborhood is crowded by decoys on the far side, while Y still
# sees X among its top 3; matching therefore works from b only.
ASYMMETRIC_TABLE = make_table(
    {
        "X": [1.0, 0.0],
        "Y": [0.9, 0.436],
        "D1": [0.999, -0.04],
        "D2": [0.998, -0.05],
        "D3": [0.997, -0.06],
    }
)


class TestEmbeddingCancellation:
    def test_similar_name_cancels(self):
        table = make_table(
            {"ジャガイモ": [1.0, 0.05], "馬鈴薯": [1.0, 0.0], "塩": [0.0, 1.0]}
        )
        assert ingredients_distance(["ジャガイモ"], ["馬鈴薯"], table) == 0

    def test_oov_names_never_match(self):
        table = make_table({"塩": [1.0, 0.0]})
        assert ingredients_distance(["ニンジン"], ["タマネギ"], table) == 2

    def test_asymmetry(self):
        assert ingredients_distance(["X"], ["Y"], ASYMMETRIC_TABLE) == 0
        assert ingredients_distance(["Y"], ["X"], ASYMMETRIC_TABLE) == 2

    def test_earliest_remaining_item_deleted_and_committed(self):
        # B1 sees both P and Q; the earliest remaining item of a (P) is
        # consumed immediately, which starves B2 (whose only match is P).
        table = make_table(
            {
                "P": [1.0, 0.0, 0.0],
                "Q": [0.95, 0.31, 0.0],
                "B1": [0.98, 0.2, 0.0],
                "B2": [0.9, -0.43, 0.0],
                "J": [0.93, -0.36, 0.0],
            }
        )
        assert ingredients_distance(["P", "Q"], ["B1", "B2"], table) == 2

    def test_without_table_step_three_skipped(self):
        assert ingredients_distance(["X"], ["Y"]) == 2


class TestProperties:
    @given(names=name_lists)
    def test_self_distance_zero(self, names):
        assert ingredients_distance(names, names) == 0

    @given(a=name_lists, b=name_lists)
    def test_bounded_by_total_length(self, a, b):
        assert 0 <= ingredients_distance(a, b) <= len(a) + len(b)

    @given(a=name_lists, b=name_lists)
    def test_deterministic(self, a, b):
        assert ingredients_distance(a, b) == ingredients_distance(a, b)

    @given(a=name_lists, b=name_lists, extra=st.sampled_from(["ニンジン", "塩"]))
    def test_shared_extra_never_increases(self, a, b, extra):
        base = ingredients_distance(a, b)
        assert ingredients_distance(a + [extra], b + [extra]) <= base


# one vocabulary, two tables that disagree on which names are similar
SIMILAR_NAMES = ["ニンジン", "タマネギ", "塩", "水", "豆腐", "X", "Y"]
TABLES = [
    make_table({name: np.random.default_rng(seed).normal(size=3) for name in SIMILAR_NAMES})
    for seed in (0, 1)
]
raw_lists = st.lists(
    st.sampled_from(SIMILAR_NAMES + ["にんじん", "たまねぎ（中）", "（飾り用）", "塩!", "Z"]),
    max_size=6,
)


class TestMemoized:
    """`ingredients_distance` remembers canonical lists and, per table,
    similar-word sets; the answers stay those of the uncached procedure."""

    @settings(max_examples=60)
    @given(pairs=st.lists(st.tuples(raw_lists, raw_lists), min_size=1, max_size=4))
    def test_equals_the_uncached_reference(self, pairs):
        for _ in range(2):  # the second round reads what the first remembered
            for a, b in pairs:
                for table in (*TABLES, None):  # two tables in turn, then none
                    assert ingredients_distance(a, b, table) == uncached_ingredients_distance(a, b, table)

    def test_remembered_neighbors_are_per_table(self):
        near = make_table({"X": [1.0, 0.0], "Y": [0.9, 0.436]})
        far = make_table(
            {"X": [1.0, 0.0], "Y": [0.0, 1.0], "D1": [0.1, 1.0], "D2": [-0.1, 1.0], "D3": [0.2, 1.0]}
        )
        for _ in range(2):
            assert ingredients_distance(["X"], ["Y"], near) == 0
            assert ingredients_distance(["X"], ["Y"], far) == 2


class TestAnnotationFilter:
    @pytest.mark.parametrize("distance,expected", [(0, True), (1, True), (2, True), (3, False)])
    def test_threshold(self, distance, expected):
        assert passes_annotation_filter(distance) is expected

    def test_default_threshold_value(self):
        assert ANNOTATION_THRESHOLD == 2

    def test_custom_threshold(self):
        assert passes_annotation_filter(5, threshold=5)
        assert not passes_annotation_filter(6, threshold=5)
