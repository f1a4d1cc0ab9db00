"""Deterministic text folds for tokenization and ingredient matching.

Instructions are width folded (`fold_width`) before tokenization; ingredient
names are canonicalized by `strip_parenthetical`, `strip_symbols` and
`fold_kana`, in that order. Every fold is pure and idempotent. Width folding
is a fixed codepoint table rather than full NFKC, and any subset of the four
folds composed in the order parenthetical, symbols, kana, width stays
idempotent. Width folding before symbol stripping does not: `ｶ!ﾞ` folds to
`カ!゙`, which loses the `!` and then composes to `ガ` on a second pass.
"""

from __future__ import annotations

import unicodedata

_OPEN_PARENS = "(（"
_CLOSE_PARENS = ")）"

# Hiragana block 3041-3096 maps to katakana at a fixed +0x60 offset; the
# iteration marks 309D/309E map the same way.
_KANA_FOLD = {cp: cp + 0x60 for cp in range(0x3041, 0x3097)}
_KANA_FOLD.update({0x309D: 0x30FD, 0x309E: 0x30FE})


def _build_width_fold() -> dict[int, str]:
    # Fullwidth/halfwidth forms block plus the ideographic space, folded via
    # their NFKC mapping. Targets are ASCII or regular kana, so folding is
    # idempotent by construction.
    table: dict[int, str] = {0x3000: " "}
    for cp in range(0xFF01, 0xFF5F):  # fullwidth ASCII variants
        table[cp] = unicodedata.normalize("NFKC", chr(cp))
    for cp in range(0xFF61, 0xFFEF):  # halfwidth kana and signs
        folded = unicodedata.normalize("NFKC", chr(cp))
        if folded != chr(cp):
            table[cp] = folded
    return table


_WIDTH_FOLD = _build_width_fold()

# Halfwidth voiced/semivoiced marks fold to combining marks; compose them with
# the preceding kana so folded text contains no stray combining codepoints.
_VOICED_COMPOSE = {"゙": True, "゚": True}


def fold_width(text: str) -> str:
    """Unify fullwidth/halfwidth variants (ＡＢＣ -> ABC, ｱ -> ア)."""
    out = []
    for ch in text:
        folded = _WIDTH_FOLD.get(ord(ch), ch)
        if folded in _VOICED_COMPOSE and out:
            composed = unicodedata.normalize("NFC", out[-1] + folded)
            if len(composed) == 1:
                out[-1] = composed
                continue
        out.append(folded)
    return "".join(out)


def fold_kana(text: str) -> str:
    """Map every hiragana codepoint to its katakana counterpart."""
    return text.translate(_KANA_FOLD)


def strip_symbols(text: str) -> str:
    """Remove punctuation (P*) and symbol (S*) codepoints."""
    return "".join(ch for ch in text if unicodedata.category(ch)[0] not in "PS")


def strip_parenthetical(text: str) -> str:
    """Remove maximal parenthesized spans, parentheses included.

    ASCII ``()`` and fullwidth ``（）`` are interchangeable. Nested spans are
    removed as one. Unmatched parentheses are dropped as bare symbols while
    their would-be content is kept.
    """
    out: list[str] = []
    open_positions: list[int] = []
    for ch in text:
        if ch in _OPEN_PARENS:
            open_positions.append(len(out))
            out.append(ch)
        elif ch in _CLOSE_PARENS:
            if open_positions:
                del out[open_positions.pop():]
            # unmatched close: dropped
        else:
            out.append(ch)
    for pos in reversed(open_positions):  # unmatched opens: drop the char only
        del out[pos]
    return "".join(out)
