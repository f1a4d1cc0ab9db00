"""Word and character n-gram token sequences over instruction text.

Words come from whitespace splitting (`word_tokens`) or, for corpora
segmented upstream, from the corpus's own token arrays (`pretokenized`).
"""

from __future__ import annotations

from dataclasses import dataclass

WORD = "word"


@dataclass(frozen=True)
class TokenSeq:
    """An ordered token sequence at a fixed granularity ("word" or "gramN")."""

    tokens: tuple[str, ...]
    granularity: str

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def gram_granularity(n: int) -> str:
    return f"gram{n}"


def char_ngrams(text: str, n: int) -> TokenSeq:
    """All overlapping codepoint n-grams of ``text``, in order.

    Text shorter than ``n`` but non-empty becomes a single whole-text token so
    no document ever maps to an empty sequence. No boundary padding is added.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not text:
        return TokenSeq((), gram_granularity(n))
    if len(text) < n:
        return TokenSeq((text,), gram_granularity(n))
    grams = tuple(text[i:i + n] for i in range(len(text) - n + 1))
    return TokenSeq(grams, gram_granularity(n))


def word_tokens(text: str) -> TokenSeq:
    """Split ``text`` into word tokens on Unicode whitespace runs."""
    return TokenSeq(tuple(text.split()), WORD)


def pretokenized(tokens: list[str] | tuple[str, ...]) -> TokenSeq:
    """Wrap an already-segmented token list (e.g. from a corpus file)."""
    return TokenSeq(tuple(tokens), WORD)
