from __future__ import annotations

import datetime
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gram_mover.corpus import (
    Corpus,
    PairLabel,
    Recipe,
    RecipeParseError,
    load_corpus,
    parse_recipe_record,
    recipe_to_record,
    save_corpus,
    split_by_date,
)

GOOD_LINE = (
    '{"id":"r1","title":"t","ingredients":["carrot"],'
    '"instructions":"Cut a carrot","published":"2016-10-01"}'
)

# Text without JSON-hostile or blank-line-producing characters, for round trips.
field_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=30
)

recipes = st.builds(
    Recipe,
    id=st.uuids().map(str),
    title=field_text,
    ingredients=st.lists(field_text, max_size=5).map(tuple),
    instructions=field_text.filter(lambda s: s.strip()),
    published=st.dates(
        min_value=datetime.date(2000, 1, 1), max_value=datetime.date(2030, 12, 31)
    ),
    instructions_tokens=st.none() | st.lists(field_text, min_size=1, max_size=8).map(tuple),
)


class TestParseRecipeRecord:
    def test_well_formed(self):
        recipe = parse_recipe_record(GOOD_LINE)
        assert recipe.id == "r1"
        assert recipe.ingredients == ("carrot",)
        assert recipe.published == datetime.date(2016, 10, 1)

    def test_empty_id(self):
        line = GOOD_LINE.replace('"id":"r1"', '"id":""')
        with pytest.raises(RecipeParseError) as err:
            parse_recipe_record(line)
        assert err.value.field == "id"

    def test_missing_published(self):
        record = json.loads(GOOD_LINE)
        del record["published"]
        with pytest.raises(RecipeParseError) as err:
            parse_recipe_record(json.dumps(record))
        assert err.value.field == "published"

    def test_missing_instructions(self):
        record = json.loads(GOOD_LINE)
        del record["instructions"]
        with pytest.raises(RecipeParseError) as err:
            parse_recipe_record(json.dumps(record))
        assert err.value.field == "instructions"

    def test_blank_instructions_rejected(self):
        line = GOOD_LINE.replace("Cut a carrot", "  ")
        with pytest.raises(RecipeParseError):
            parse_recipe_record(line)

    def test_bad_date_format(self):
        line = GOOD_LINE.replace("2016-10-01", "01/10/2016")
        with pytest.raises(RecipeParseError) as err:
            parse_recipe_record(line)
        assert err.value.field == "published"

    def test_not_json(self):
        with pytest.raises(RecipeParseError):
            parse_recipe_record("not json at all")

    def test_amounts_accepted_and_discarded(self):
        record = json.loads(GOOD_LINE)
        record["amounts"] = ["1 large"]
        recipe = parse_recipe_record(json.dumps(record))
        assert not hasattr(recipe, "amounts")

    def test_instructions_tokens_carried(self):
        record = json.loads(GOOD_LINE)
        record["instructions_tokens"] = ["Cut", "a", "carrot"]
        recipe = parse_recipe_record(json.dumps(record))
        assert recipe.instructions_tokens == ("Cut", "a", "carrot")


class TestRoundTrip:
    @given(recipe=recipes)
    def test_serialize_parse_identity(self, recipe):
        assert parse_recipe_record(recipe_to_record(recipe)) == recipe

    @given(recipe_list=st.lists(recipes, max_size=6, unique_by=lambda r: r.id))
    def test_file_round_trip(self, recipe_list, tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        corpus = Corpus(recipe_list)
        save_corpus(corpus, path)
        assert load_corpus(path).recipes == corpus.recipes


class TestCorpus:
    def test_index_consistent(self):
        corpus = Corpus([parse_recipe_record(GOOD_LINE)])
        assert corpus.index == {"r1": 0}
        assert corpus.get("r1").id == "r1"

    def test_duplicate_ids_rejected(self):
        recipe = parse_recipe_record(GOOD_LINE)
        with pytest.raises(ValueError, match="duplicate recipe id 'r1'"):
            Corpus([recipe, recipe])

    def test_built_directly_every_id_is_found(self):
        recipes = [_dated("a", "2016-10-30"), _dated("b", "2016-10-31")]
        corpus = Corpus(recipes)
        assert "b" in corpus and "c" not in corpus
        assert corpus.get("a") is recipes[0] and corpus.get("b") is recipes[1]
        assert corpus.index == {"a": 0, "b": 1}


def _dated(recipe_id: str, day: str) -> Recipe:
    return Recipe(
        id=recipe_id,
        title="t",
        ingredients=("carrot",),
        instructions="Cut",
        published=datetime.date.fromisoformat(day),
    )


class TestSplitByDate:
    def setup_method(self):
        self.corpus = Corpus(
            [_dated("a", "2016-10-30"), _dated("b", "2016-10-31"), _dated("c", "2016-11-01")]
        )

    def test_cutoff_on_boundary(self):
        train, test = split_by_date(self.corpus, datetime.date(2016, 10, 31))
        assert [r.id for r in train] == ["a", "b"]
        assert [r.id for r in test] == ["c"]

    def test_cutoff_before_all(self):
        train, test = split_by_date(self.corpus, datetime.date(2000, 1, 1))
        assert len(train) == 0
        assert len(test) == 3

    def test_cutoff_after_all(self):
        train, test = split_by_date(self.corpus, datetime.date(2020, 1, 1))
        assert len(train) == 3
        assert len(test) == 0

    @given(
        recipe_list=st.lists(recipes, max_size=8, unique_by=lambda r: r.id),
        cutoff=st.dates(
            min_value=datetime.date(1999, 1, 1), max_value=datetime.date(2031, 12, 31)
        ),
    )
    def test_partition(self, recipe_list, cutoff):
        corpus = Corpus(recipe_list)
        train, test = split_by_date(corpus, cutoff)
        assert len(train) + len(test) == len(corpus)
        assert all(r.published <= cutoff for r in train)
        assert all(r.published > cutoff for r in test)


class TestPairLabel:
    def test_values(self):
        assert PairLabel.NEAR_DUPLICATE.value == "near-duplicate"
        assert PairLabel.parse("non-duplicate-b") is PairLabel.NON_DUPLICATE_B

    def test_unknown_value(self):
        with pytest.raises(ValueError):
            PairLabel.parse("maybe")
