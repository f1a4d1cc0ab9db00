"""Recipe data model, JSON Lines ingestion, and date-based splitting.

One recipe per line, UTF-8, keys: id, title, ingredients (array of names,
quantities excluded), instructions, published (YYYY-MM-DD). An optional
"amounts" array is accepted and discarded; an optional "instructions_tokens"
array carries pre-segmented instruction words for word-granularity runs.
"""

from __future__ import annotations

import datetime
import enum
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class RecipeParseError(ValueError):
    """A malformed recipe record: `field` names the offending key and
    `reason` says what is wrong with it."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name}: {reason}")
        self.field = field_name
        self.reason = reason


class PairLabel(enum.Enum):
    """Annotation vocabulary for a candidate pair."""

    NEAR_DUPLICATE = "near-duplicate"
    NON_DUPLICATE_A = "non-duplicate-a"
    NON_DUPLICATE_B = "non-duplicate-b"
    NON_DUPLICATE_C = "non-duplicate-c"
    UNLABELED = "unlabeled"

    @classmethod
    def parse(cls, value: str) -> "PairLabel":
        for label in cls:
            if label.value == value:
                return label
        raise ValueError(f"unknown pair label {value!r}")


@dataclass(frozen=True)
class Recipe:
    id: str
    title: str
    ingredients: tuple[str, ...]
    instructions: str
    published: datetime.date
    instructions_tokens: tuple[str, ...] | None = None


@dataclass
class Corpus:
    """Recipes in order; `index` maps each id to its position and is
    derived from `recipes`, which must not repeat an id."""

    recipes: list[Recipe]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {}
        for pos, recipe in enumerate(self.recipes):
            if recipe.id in self.index:
                raise ValueError(f"duplicate recipe id {recipe.id!r}")
            self.index[recipe.id] = pos

    def __len__(self) -> int:
        return len(self.recipes)

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self.recipes)

    def __contains__(self, recipe_id: str) -> bool:
        return recipe_id in self.index

    def get(self, recipe_id: str) -> Recipe:
        return self.recipes[self.index[recipe_id]]


def _require_str(record: dict, key: str) -> str:
    if key not in record:
        raise RecipeParseError(key, "missing field")
    value = record[key]
    if not isinstance(value, str):
        raise RecipeParseError(key, f"expected string, got {type(value).__name__}")
    return value


def parse_recipe_record(line: str) -> Recipe:
    """Parse one JSON Lines recipe record; raises RecipeParseError if malformed."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecipeParseError("record", f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise RecipeParseError("record", "expected a JSON object")

    recipe_id = _require_str(record, "id")
    if not recipe_id:
        raise RecipeParseError("id", "must be non-empty")
    title = _require_str(record, "title")
    instructions = _require_str(record, "instructions")
    if not instructions.strip():
        raise RecipeParseError("instructions", "must be non-empty")

    if "ingredients" not in record:
        raise RecipeParseError("ingredients", "missing field")
    raw_ingredients = record["ingredients"]
    if not isinstance(raw_ingredients, list) or any(
        not isinstance(item, str) or not item for item in raw_ingredients
    ):
        raise RecipeParseError("ingredients", "expected an array of non-empty strings")

    published_raw = _require_str(record, "published")
    if not _DATE_RE.match(published_raw):
        raise RecipeParseError("published", f"expected YYYY-MM-DD, got {published_raw!r}")
    try:
        published = datetime.date.fromisoformat(published_raw)
    except ValueError as exc:
        raise RecipeParseError("published", str(exc)) from exc

    tokens = None
    if "instructions_tokens" in record:
        raw_tokens = record["instructions_tokens"]
        if not isinstance(raw_tokens, list) or any(not isinstance(t, str) for t in raw_tokens):
            raise RecipeParseError("instructions_tokens", "expected an array of strings")
        tokens = tuple(raw_tokens)

    return Recipe(
        id=recipe_id,
        title=title,
        ingredients=tuple(raw_ingredients),
        instructions=instructions,
        published=published,
        instructions_tokens=tokens,
    )


def recipe_to_record(recipe: Recipe) -> str:
    """Serialize one recipe back to its JSON Lines form (stable key order)."""
    record: dict = {
        "id": recipe.id,
        "title": recipe.title,
        "ingredients": list(recipe.ingredients),
        "instructions": recipe.instructions,
        "published": recipe.published.isoformat(),
    }
    if recipe.instructions_tokens is not None:
        record["instructions_tokens"] = list(recipe.instructions_tokens)
    return json.dumps(record, ensure_ascii=False)


def load_corpus(path: str | Path) -> Corpus:
    recipes = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                recipes.append(parse_recipe_record(line))
            except RecipeParseError as exc:
                raise RecipeParseError(exc.field, f"line {lineno}: {exc.reason}") from exc
    return Corpus(recipes)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for recipe in corpus:
            handle.write(recipe_to_record(recipe) + "\n")


def split_by_date(corpus: Corpus, cutoff: datetime.date) -> tuple[Corpus, Corpus]:
    """Partition into (train: published <= cutoff, test: published > cutoff)."""
    train = [r for r in corpus if r.published <= cutoff]
    test = [r for r in corpus if r.published > cutoff]
    return Corpus(train), Corpus(test)
