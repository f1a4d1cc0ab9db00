from __future__ import annotations

import pytest

from gram_mover.corpus import recipe_to_record, split_by_date
from gram_mover.synth import (
    CUTOFF,
    MAX_INGREDIENTS,
    PlantedPair,
    generate_corpus,
    load_truth,
    save_truth,
    synthetic_classification_pool,
)

SMALL = dict(seed=11, train_size=40, planted=6, fresh=3, pool_size=30)


class TestGenerateCorpus:
    def test_sizes_and_id_scheme(self):
        corpus, truth = generate_corpus(**SMALL)
        assert len(corpus) == 40 + 6 + 3
        assert len(truth) == 6
        assert sum(1 for r in corpus if r.id.startswith("train-")) == 40
        assert sum(1 for r in corpus if r.id.startswith("test-dup-")) == 6
        assert sum(1 for r in corpus if r.id.startswith("test-new-")) == 3

    def test_split_respects_cutoff(self):
        corpus, _ = generate_corpus(**SMALL)
        train, test = split_by_date(corpus, CUTOFF)
        assert len(train) == 40
        assert len(test) == 9
        assert all(r.id.startswith("train-") for r in train)

    def test_truth_references_real_recipes(self):
        corpus, truth = generate_corpus(**SMALL)
        for pair in truth:
            assert pair.test_id in corpus
            assert pair.train_id in corpus
            assert pair.typo_count >= 0

    def test_duplicate_keeps_title_and_ingredients(self):
        corpus, truth = generate_corpus(**SMALL)
        for pair in truth:
            original = corpus.get(pair.train_id)
            duplicate = corpus.get(pair.test_id)
            assert duplicate.title == original.title
            assert duplicate.ingredients == original.ingredients

    def test_duplicate_instructions_differ_from_original(self):
        # the kana flip alone already guarantees a surface change
        corpus, truth = generate_corpus(**SMALL)
        for pair in truth:
            original = corpus.get(pair.train_id)
            duplicate = corpus.get(pair.test_id)
            assert duplicate.instructions != original.instructions

    def test_typos_do_occur_at_default_rate(self):
        _, truth = generate_corpus(seed=2, train_size=60, planted=20, fresh=2, pool_size=40)
        assert sum(pair.typo_count for pair in truth) > 0

    def test_zero_typo_rate(self):
        _, truth = generate_corpus(typo_rate=0.0, **SMALL)
        assert all(pair.typo_count == 0 for pair in truth)

    def test_deterministic_in_seed(self):
        first, truth_a = generate_corpus(**SMALL)
        second, truth_b = generate_corpus(**SMALL)
        assert [recipe_to_record(r) for r in first] == [recipe_to_record(r) for r in second]
        assert truth_a == truth_b

    def test_seed_changes_output(self):
        first, _ = generate_corpus(**SMALL)
        other = dict(SMALL, seed=12)
        second, _ = generate_corpus(**other)
        assert [recipe_to_record(r) for r in first] != [recipe_to_record(r) for r in second]

    def test_too_many_planted_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(seed=1, train_size=3, planted=4, fresh=0, pool_size=10)

    @pytest.mark.parametrize(
        "name,value",
        [("train_size", -1), ("planted", -1), ("fresh", -3), ("pool_size", MAX_INGREDIENTS - 1)],
    )
    def test_out_of_range_size_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            generate_corpus(**dict(SMALL, **{name: value}))

    def test_smallest_pool_serves_the_largest_recipe(self):
        corpus, _ = generate_corpus(**dict(SMALL, pool_size=MAX_INGREDIENTS))
        assert max(len(recipe.ingredients) for recipe in corpus) == MAX_INGREDIENTS


class TestTruthFile:
    def test_round_trip(self, tmp_path):
        pairs = [
            PlantedPair(test_id="test-dup-00", train_id="train-0007", typo_count=3),
            PlantedPair(test_id="test-dup-01", train_id="train-0012", typo_count=0),
        ]
        path = tmp_path / "truth.jsonl"
        save_truth(pairs, path)
        assert load_truth(path) == pairs

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"test_id": "a", "train_id": "b", "typo_count": 1}\n{"oops": 1}\n')
        with pytest.raises(ValueError, match=":2"):
            load_truth(path)


class TestClassificationPool:
    def test_counts_and_labels(self):
        pool = synthetic_classification_pool(seed=1, positives=50, negatives=1000)
        assert len(pool) == 1050
        assert sum(e.label for e in pool) == 50

    def test_feature_ranges(self):
        pool = synthetic_classification_pool(seed=4, positives=30, negatives=60)
        for example in pool:
            instruction, ingredient = example.features
            assert 0.0 <= instruction <= 1.0
            assert ingredient in (0.0, 1.0, 2.0)
            if example.label:
                assert instruction <= 0.35

    def test_deterministic(self):
        assert synthetic_classification_pool(seed=9) == synthetic_classification_pool(seed=9)

    def test_classes_are_separated_on_average(self):
        pool = synthetic_classification_pool(seed=2)
        pos = [e.features[0] for e in pool if e.label]
        neg = [e.features[0] for e in pool if not e.label]
        assert sum(pos) / len(pos) < sum(neg) / len(neg)
