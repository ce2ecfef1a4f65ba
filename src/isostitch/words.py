"""Binary word algebra and the recursive Koch word family.

Words are immutable values holding their letters as a packed integer, one bit
per letter, so long words and periodic indexing over large windows stay cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidOrderError, WordError


@dataclass(frozen=True)
class Word:
    """A finite sequence of 0/1 letters. Bit i of ``bits`` is letter i."""

    length: int
    bits: int

    @classmethod
    def parse(cls, text: str) -> "Word":
        bits = 0
        for pos, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << pos
            elif ch != "0":
                raise WordError(f"invalid character {ch!r} at position {pos + 1}: "
                                "words use only '0' and '1'")
        return cls(len(text), bits)

    def letter(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"letter index {i} out of range for word of length {self.length}")
        return (self.bits >> i) & 1

    def cyclic(self, i: int) -> int:
        """Letter of the infinite periodic extension; floored modulo, so any
        integer index (negative included) is valid."""
        if self.length == 0:
            raise WordError("empty word has no periodic extension")
        return (self.bits >> (i % self.length)) & 1

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def concat(a: Word, b: Word) -> Word:
    return Word(a.length + b.length, a.bits | (b.bits << a.length))


def complement(w: Word) -> Word:
    """Interchange 0 and 1 in every position."""
    mask = (1 << w.length) - 1
    return Word(w.length, w.bits ^ mask)


def reverse(w: Word) -> Word:
    """Reverse the order of the letters."""
    r = 0
    for i in range(w.length):
        if (w.bits >> i) & 1:
            r |= 1 << (w.length - 1 - i)
    return Word(w.length, r)


_koch_words = [Word(1, 0)]  # _koch_words[n - 1] is the order-n word; w_1 = "0"


def koch_word(order: int) -> Word:
    """Order-n word of the recursion w_{n+1} = reverse(complement(w_n)) ++
    complement(w_n) ++ w_n, starting from w_1 = "0".

    The length is 3^(n-1). Computed iteratively and memoized per process.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InvalidOrderError(f"word order must be a positive integer, got {order!r}")
    while len(_koch_words) < order:
        c = complement(_koch_words[-1])
        _koch_words.append(concat(concat(reverse(c), c), _koch_words[-1]))
    return _koch_words[order - 1]


def palindromic_period(w: Word) -> Word:
    """The word followed by its reversal: the period actually stitched when a
    word is repeated forwards and backwards along consecutive lines."""
    if w.length == 0:
        raise WordError("cannot build a palindromic period from the empty word")
    return concat(w, reverse(w))
