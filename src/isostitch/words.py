"""Binary word algebra and the recursive Koch word family.

A word is a plain ``str`` of the letters '0' and '1': concatenation is ``+``,
reversal is ``[::-1]`` and letter i of the periodic extension is
``w[i % len(w)]``.
"""
from __future__ import annotations

from .errors import InvalidOrderError, WordError

_COMPLEMENT = str.maketrans("01", "10")


def parse_word(text: str) -> str:
    """Check that text is a word and return it."""
    for pos, ch in enumerate(text):
        if ch not in "01":
            raise WordError(f"invalid character {ch!r} at position {pos + 1}: "
                            "words use only '0' and '1'")
    return text


def complement(w: str) -> str:
    """Interchange 0 and 1 in every position."""
    return w.translate(_COMPLEMENT)


_koch_words = ["0"]  # _koch_words[n - 1] is the order-n word; w_1 = "0"


def koch_word(order: int) -> str:
    """Order-n word of the recursion w_{n+1} = reverse(complement(w_n)) ++
    complement(w_n) ++ w_n, starting from w_1 = "0".

    The length is 3^(n-1). Computed iteratively and memoized per process.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InvalidOrderError(f"word order must be a positive integer, got {order!r}")
    while len(_koch_words) < order:
        c = complement(_koch_words[-1])
        _koch_words.append(c[::-1] + c + _koch_words[-1])
    return _koch_words[order - 1]


def palindromic_period(w: str) -> str:
    """The word followed by its reversal: the period actually stitched when a
    word is repeated forwards and backwards along consecutive lines."""
    if not w:
        raise WordError("cannot build a palindromic period from the empty word")
    return w + w[::-1]
