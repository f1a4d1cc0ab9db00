"""Ingredients distance between a candidate pair's ingredient lists.

The count of ingredients left unmatched in both lists after exact-match
cancellation and embedding-based top-3 similar-word cancellation. The
procedure is asymmetric: similar-word queries run from the candidate
near-duplicate side (list b), so callers must pass (original, candidate).

A search calls it once per candidate it visits, so it remembers each
distinct list's canonical names and, per embedding table, each name's
similar words; the results are those of computing them afresh.
"""

from __future__ import annotations

import logging
import weakref
from collections import Counter
from functools import lru_cache
from typing import Sequence

from .embed import EmbeddingTable, nearest_neighbors
from .textnorm import fold_kana, strip_parenthetical, strip_symbols

logger = logging.getLogger(__name__)

#: pairs at or below this ingredients distance pass the annotation filter
ANNOTATION_THRESHOLD = 2

#: number of similar-word search results consulted per unmatched item
SIMILAR_TOP_K = 3


def canonicalize_ingredient(name: str) -> str:
    """Parenthetical spans out, symbols out, hiragana folded to katakana,
    surrounding whitespace trimmed. An empty result means the name carried
    no content (the caller drops it)."""
    return fold_kana(strip_symbols(strip_parenthetical(name))).strip()


def canonicalize_list(names: Sequence[str]) -> list[str]:
    """Canonicalized names with empties dropped (and logged)."""
    out = []
    for name in names:
        canonical = canonicalize_ingredient(name)
        if canonical:
            out.append(canonical)
        else:
            logger.info("dropping ingredient with no content after cleanup: %r", name)
    return out


@lru_cache(maxsize=1 << 16)
def _canonical(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(canonicalize_list(names))


#: per embedding table, the similar words of each name looked up so far
_SIMILAR: weakref.WeakKeyDictionary[EmbeddingTable, dict[str, frozenset[str]]] = (
    weakref.WeakKeyDictionary()
)


def ingredients_distance(
    a: Sequence[str], b: Sequence[str], table: EmbeddingTable | None = None
) -> int:
    """Count of items in either list with no counterpart in the other.

    In order: canonicalize both lists; cancel exact matches with multiset
    semantics (each occurrence consumes one occurrence); then for each
    remaining item of list b, in list order, query its top-3 similar words
    and cancel against the earliest remaining item of list a found among
    them, committing each deletion before the next query. The result is
    the total count remaining on both sides.

    `a` is the candidate original (train side), `b` the candidate
    near-duplicate (test side); the similar-word step only runs from the b
    side, so the operation is not symmetric in general.
    """
    rest_a = _canonical(tuple(a))
    rest_b = _canonical(tuple(b))

    # multiset exact cancellation: each occurrence consumes one occurrence
    count_b = Counter(rest_b)
    survivors_a: list[str] = []
    for item in rest_a:
        if count_b.get(item, 0) > 0:
            count_b[item] -= 1
        else:
            survivors_a.append(item)
    survivors_b: list[str] = []
    leftover = dict(count_b)
    for item in rest_b:
        if leftover.get(item, 0) > 0:
            leftover[item] -= 1
            survivors_b.append(item)

    if table is not None:
        similar = _SIMILAR.setdefault(table, {})
        unmatched_b = []
        for item in survivors_b:
            if item not in similar:
                similar[item] = frozenset(
                    token for token, _ in nearest_neighbors(table, item, SIMILAR_TOP_K)
                )
            neighbors = similar[item]
            hit = next((i for i, name in enumerate(survivors_a) if name in neighbors), None)
            if hit is None:
                unmatched_b.append(item)
            else:
                del survivors_a[hit]  # earliest remaining item of a wins
        survivors_b = unmatched_b

    return len(survivors_a) + len(survivors_b)


def passes_annotation_filter(distance: int, threshold: int = ANNOTATION_THRESHOLD) -> bool:
    """True iff the pair is close enough in ingredients to annotate."""
    return distance <= threshold
