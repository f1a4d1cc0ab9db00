"""Synthetic recipe corpus with planted near-duplicates.

Templated whitespace-tokenized instructions over a generated katakana
ingredient pool, with each ingredient mention randomly surfacing in
katakana or hiragana. Planted duplicates copy a train-side recipe and
corrupt it with per-codepoint typos plus one kana-form flip, mimicking the
surface variation near-duplicate postings show in the wild. Ground truth
records which test recipe copies which train recipe and how many typos
were injected."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import product

import numpy as np

from .classify import LabeledExample
from .corpus import Corpus, Recipe

#: date separating train-side originals from test-side queries
CUTOFF = date(2016, 10, 31)

_TRAIN_START = date(2016, 6, 1)
_TRAIN_DAYS = 153
_TEST_START = date(2016, 11, 1)
_TEST_DAYS = 8

#: probability an ingredient mention surfaces in katakana (else hiragana)
_KATAKANA_MENTION = 0.7

_KATAKANA = (
    "アイウエオカキクケコサシスセソタチツテトナニヌネノ"
    "ハヒフヘホマミムメモヤユヨラリルレロワ"
    "ガギグゲゴザジズゼゾダデドバビブベボパピプペポ"
)

_OPENERS = (
    ("§0", "を", "洗って", "水気", "を", "切る"),
    ("§0", "を", "一口大", "に", "切る"),
    ("§0", "と", "§1", "を", "細かく", "刻む"),
    ("§0", "の", "皮", "を", "むく"),
    ("§0", "を", "さっと", "茹でる"),
    ("§0", "を", "§1", "と", "合わせる"),
)
_MIDDLES = (
    ("鍋", "に", "§1", "を", "入れて", "煮る"),
    ("フライパン", "で", "§1", "を", "炒める"),
    ("§1", "を", "加えて", "弱火", "で", "煮込む"),
    ("ボウル", "で", "§1", "と", "§2", "を", "混ぜる"),
)
_CLOSERS = (
    ("塩", "で", "味", "を", "整えて", "完成"),
    ("器", "に", "盛って", "§2", "を", "のせる"),
    ("醤油", "を", "かけて", "皿", "に", "盛る"),
    ("粗熱", "を", "とって", "冷やす"),
)

_TEMPLATES = tuple(
    opener + middle + closer
    for opener, middle, closer in product(_OPENERS, _MIDDLES, _CLOSERS)
)


@dataclass(frozen=True)
class PlantedPair:
    test_id: str
    train_id: str
    typo_count: int


def _hiragana(name: str) -> str:
    return "".join(chr(ord(ch) - 0x60) for ch in name)


def _ingredient_pool(rng: np.random.Generator, size: int) -> list[str]:
    names: list[str] = []
    seen = set()
    while len(names) < size:
        length = int(rng.integers(3, 5))
        name = "".join(_KATAKANA[int(rng.integers(len(_KATAKANA)))] for _ in range(length))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _template_slots(template: tuple[str, ...]) -> int:
    return 1 + max(int(token[1:]) for token in template if token.startswith("§"))


#: ingredients a recipe takes beyond its template's slots, at most
_EXTRA_INGREDIENTS = 2

#: ingredients one recipe takes at most, so the smallest usable pool size
MAX_INGREDIENTS = max(_template_slots(template) for template in _TEMPLATES) + _EXTRA_INGREDIENTS


def _render(template: tuple[str, ...], ingredients: list[str], rng: np.random.Generator) -> str:
    tokens = []
    for token in template:
        if token.startswith("§"):
            name = ingredients[int(token[1:])]
            if rng.random() >= _KATAKANA_MENTION:
                name = _hiragana(name)
            tokens.append(name)
        else:
            tokens.append(token)
    return " ".join(tokens)


def _make_recipe(recipe_id: str, published: date, pool: list[str], rng: np.random.Generator) -> Recipe:
    template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
    slots = _template_slots(template)
    count = slots + int(rng.integers(0, _EXTRA_INGREDIENTS + 1))
    chosen = [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]
    return Recipe(
        id=recipe_id,
        title=f"{chosen[0]} の 料理",
        ingredients=tuple(chosen),
        instructions=_render(template, chosen, rng),
        published=published,
    )


def _inject_typos(text: str, rng: np.random.Generator, rate: float) -> tuple[str, int]:
    """Swap/delete/insert typos, each codepoint position hit independently
    with probability `rate`; inserted characters come from the text's own
    alphabet so corruption stays in-script."""
    alphabet = sorted(set(text))
    chars = list(text)
    out: list[str] = []
    count = 0
    i = 0
    while i < len(chars):
        if rng.random() < rate:
            count += 1
            kind = int(rng.integers(0, 3))
            if kind == 0 and i + 1 < len(chars):  # swap with the next codepoint
                out.append(chars[i + 1])
                out.append(chars[i])
                i += 2
                continue
            if kind <= 1:  # delete (swap at the last position degrades to delete)
                i += 1
                continue
            out.append(alphabet[int(rng.integers(len(alphabet)))])  # insert before
            out.append(chars[i])
            i += 1
            continue
        out.append(chars[i])
        i += 1
    return "".join(out), count


def _flip_one_mention(recipe: Recipe, rng: np.random.Generator) -> str:
    """Instructions with one ingredient mention switched between katakana
    and hiragana form."""
    kata = {name: i for i, name in enumerate(recipe.ingredients)}
    hira = {_hiragana(name): name for name in recipe.ingredients}
    tokens = recipe.instructions.split(" ")
    mentions = [i for i, token in enumerate(tokens) if token in kata or token in hira]
    if not mentions:
        return recipe.instructions
    at = mentions[int(rng.integers(len(mentions)))]
    token = tokens[at]
    tokens[at] = _hiragana(token) if token in kata else hira[token]
    return " ".join(tokens)


def generate_corpus(
    seed: int = 7,
    train_size: int = 940,
    planted: int = 50,
    fresh: int = 10,
    pool_size: int = 200,
    typo_rate: float = 0.02,
) -> tuple[Corpus, list[PlantedPair]]:
    """One corpus of `train_size` originals before the cutoff date plus
    `planted` corrupted copies and `fresh` unrelated recipes after it,
    all deterministic in the seed."""
    for name, value, least in (
        ("train_size", train_size, 0),
        ("planted", planted, 0),
        ("fresh", fresh, 0),
        ("pool_size", pool_size, MAX_INGREDIENTS),
    ):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if planted > train_size:
        raise ValueError("cannot plant more duplicates than train recipes")
    rng = np.random.default_rng(seed)
    pool = _ingredient_pool(rng, pool_size)

    recipes = []
    for i in range(train_size):
        published = _TRAIN_START + timedelta(days=int(rng.integers(0, _TRAIN_DAYS)))
        recipes.append(_make_recipe(f"train-{i:04d}", published, pool, rng))

    originals = [recipes[i] for i in rng.choice(train_size, size=planted, replace=False)]
    truth = []
    for i, original in enumerate(originals):
        flipped = _flip_one_mention(original, rng)
        corrupted, typo_count = _inject_typos(flipped, rng, typo_rate)
        published = _TEST_START + timedelta(days=int(rng.integers(0, _TEST_DAYS)))
        recipes.append(
            Recipe(
                id=f"test-dup-{i:02d}",
                title=original.title,
                ingredients=original.ingredients,
                instructions=corrupted,
                published=published,
            )
        )
        truth.append(
            PlantedPair(test_id=f"test-dup-{i:02d}", train_id=original.id, typo_count=typo_count)
        )

    for i in range(fresh):
        published = _TEST_START + timedelta(days=int(rng.integers(0, _TEST_DAYS)))
        recipes.append(_make_recipe(f"test-new-{i:02d}", published, pool, rng))

    return Corpus.from_recipes(recipes), truth


def save_truth(pairs: list[PlantedPair], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            record = {
                "test_id": pair.test_id,
                "train_id": pair.train_id,
                "typo_count": pair.typo_count,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_truth(path) -> list[PlantedPair]:
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                pairs.append(
                    PlantedPair(
                        test_id=str(record["test_id"]),
                        train_id=str(record["train_id"]),
                        typo_count=int(record["typo_count"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(f"{path}:{line_no}: invalid ground-truth record: {error}")
    return pairs


def synthetic_classification_pool(
    seed: int = 1, positives: int = 50, negatives: int = 1000
) -> list[LabeledExample]:
    """A labeled feature pool shaped like a candidate-extraction run:
    positives concentrated at low instruction and ingredients distances,
    negatives spread wide, both inside the annotation filter."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(positives):
        instruction = float(np.clip(rng.normal(0.08, 0.05), 0.0, 0.35))
        ingredient = float(rng.choice([0, 1, 2], p=[0.7, 0.25, 0.05]))
        examples.append(LabeledExample(features=(instruction, ingredient), label=True))
    for _ in range(negatives):
        instruction = float(np.clip(rng.normal(0.45, 0.18), 0.05, 1.0))
        ingredient = float(rng.choice([0, 1, 2], p=[0.25, 0.4, 0.35]))
        examples.append(LabeledExample(features=(instruction, ingredient), label=False))
    return examples
