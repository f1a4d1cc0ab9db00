from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gram_mover.tokenize import (
    WORD,
    TokenSeq,
    char_ngrams,
    gram_granularity,
    pretokenized,
    word_tokens,
)


class TestCharNgrams:
    def test_sliding_window(self):
        assert char_ngrams("abcd", 3).tokens == ("abc", "bcd")

    def test_short_input_single_token(self):
        assert char_ngrams("ab", 3).tokens == ("ab",)

    def test_japanese_codepoints(self):
        assert char_ngrams("人参を切る", 3).tokens == ("人参を", "参を切", "を切る")

    def test_empty_input(self):
        assert char_ngrams("", 3).tokens == ()

    def test_granularity_tag(self):
        assert char_ngrams("abcd", 3).granularity == gram_granularity(3) == "gram3"

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            char_ngrams("abcd", 0)

    @given(text=st.text(max_size=200), n=st.integers(1, 6))
    def test_count_formula(self, text, n):
        count = len(char_ngrams(text, n).tokens)
        assert count == (max(len(text) - n + 1, 1) if text else 0)

    @given(text=st.text(min_size=1, max_size=200), n=st.integers(1, 6))
    def test_overlap_reconstructs_input(self, text, n):
        tokens = char_ngrams(text, n).tokens
        rebuilt = tokens[0] + "".join(t[-1] for t in tokens[1:])
        assert rebuilt == text

    @given(text=st.text(max_size=100), n=st.integers(1, 5))
    def test_deterministic(self, text, n):
        assert char_ngrams(text, n) == char_ngrams(text, n)


class TestWordTokens:
    def test_whitespace_split(self):
        assert word_tokens("cut a carrot").tokens == ("cut", "a", "carrot")

    def test_whitespace_runs_collapse(self):
        assert word_tokens("cut  a\tcarrot").tokens == ("cut", "a", "carrot")

    def test_empty(self):
        assert word_tokens("").tokens == ()

    def test_granularity_is_word(self):
        assert word_tokens("a b").granularity == WORD


class TestPretokenized:
    def test_passthrough(self):
        assert pretokenized(["人参", "を", "切る"]).tokens == ("人参", "を", "切る")

    def test_word_granularity(self):
        assert pretokenized(["a"]).granularity == WORD


class TestTokenSeq:
    def test_len(self):
        assert len(TokenSeq(tokens=("a", "b"), granularity=WORD)) == 2
