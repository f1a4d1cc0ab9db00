from __future__ import annotations

import itertools
from datetime import date

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gram_mover.corpus import Recipe
from gram_mover.pipeline import instruction_tokens
from gram_mover.textnorm import (
    fold_kana,
    fold_width,
    strip_parenthetical,
    strip_symbols,
)
from gram_mover.tokenize import WORD

#: every subset of the folds, each applied in the module's composition order
ALL_CONFIGS = [
    tuple(fold for fold, on in zip(
        (strip_parenthetical, strip_symbols, fold_kana, fold_width), switches
    ) if on)
    for switches in itertools.product([False, True], repeat=4)
]


def _compose(folds, text):
    for fold in folds:
        text = fold(text)
    return text


class TestFoldWidth:
    def test_fullwidth_latin(self):
        assert fold_width("ＡＢＣ") == "ABC"

    def test_halfwidth_katakana(self):
        assert fold_width("ｶﾞｷﾞ") == "ガギ"

    def test_ascii_unchanged(self):
        assert fold_width("cut a carrot") == "cut a carrot"

    @given(st.text())
    def test_idempotent(self, text):
        assert fold_width(fold_width(text)) == fold_width(text)


class TestFoldKana:
    def test_hiragana_to_katakana(self):
        assert fold_kana("にんじん") == "ニンジン"

    def test_voiced(self):
        assert fold_kana("じゃがいも") == "ジャガイモ"

    def test_katakana_unchanged(self):
        assert fold_kana("ジャガイモ") == "ジャガイモ"

    def test_latin_unchanged(self):
        assert fold_kana("potato") == "potato"

    @given(st.text())
    def test_idempotent(self, text):
        assert fold_kana(fold_kana(text)) == fold_kana(text)

    @given(st.text())
    def test_preserves_codepoint_length(self, text):
        assert len(fold_kana(text)) == len(text)


class TestStripSymbols:
    def test_trailing_bangs(self):
        assert strip_symbols("salt!!") == "salt"

    def test_single_bang(self):
        assert strip_symbols("salt!") == "salt"

    def test_mixed_symbols(self):
        assert strip_symbols("a+b=c%") == "abc"

    @given(st.text())
    def test_idempotent(self, text):
        assert strip_symbols(strip_symbols(text)) == strip_symbols(text)

    @given(st.text())
    def test_never_longer(self, text):
        assert len(strip_symbols(text)) <= len(text)


class TestStripParenthetical:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("carrot (large)", "carrot "),
            ("tofu（絹）", "tofu"),
            ("a(b(c)d)e", "ae"),
            ("（飾り用）", ""),
            (")a(", "a"),
            ("a)b(c", "abc"),
            ("no parens", "no parens"),
        ],
    )
    def test_cases(self, text, expected):
        assert strip_parenthetical(text) == expected

    @given(st.text())
    def test_no_parens_survive(self, text):
        out = strip_parenthetical(text)
        assert not set(out) & set("()（）")

    @given(st.text())
    def test_idempotent(self, text):
        assert strip_parenthetical(strip_parenthetical(text)) == strip_parenthetical(text)


class TestNormalize:
    """The folds as the program composes them: width folding alone for
    instructions, and any subset in the module's order."""

    def test_width_only_default_for_instructions(self):
        recipe = Recipe(
            id="r", title="t", ingredients=("塩",), instructions="Ｓａｌｔ! にんじん",
            published=date(2016, 6, 1),
        )
        # width folded, but kana, case and symbols kept
        assert instruction_tokens(recipe, WORD).tokens == ("Salt!", "にんじん")

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    @given(text=st.text())
    @example(text="ｶ!ﾞ")  # symbols stripped after width folding would compose again
    def test_idempotent_under_every_config(self, config, text):
        once = _compose(config, text)
        assert _compose(config, once) == once

    @given(st.text())
    def test_strip_symbols_never_lengthens(self, text):
        assert len(strip_symbols(text)) <= len(text)
