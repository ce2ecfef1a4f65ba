"""Turn offset words into concrete designs: which unit segments are stitched
on the front of the fabric and which on the back.

Every present line carries a running stitch, alternating front/back along the
line. The line's offset bit decides which side the stitch at s = 0 lands on,
and phase_base/phase_slope (grid conventions) fix how that alternation lines
up across parallel lines. A segment is a front stitch exactly when

    s + row(line) is odd,

with the line's row parity read from StitchPattern.row_bits, so one row
parity per present line determines the whole design. A Design
stores just that: per family, (k, s_lo, s_hi, row) for each present line
crossing the window. The front and back SegmentId sets are built from those
rows only when a caller asks for them.

The design's translation lattice follows from the same row parities:
translation_basis solves for it from the least period of each family's
row_bits, so the Koch search and the symmetry checks share one lattice rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import gcd
from typing import Iterator

from .errors import WordError
from .grid import (DEFAULT_CONVENTION, PRESENCE_PARITY, Family, GridConvention,
                   SegmentId, Window)
from .words import koch_word, palindromic_period, parse_word

PERIODIC = "periodic"
KOCH = "koch"


@dataclass(frozen=True)
class DirectionSpec:
    """Offset bits for the present lines of one family.

    kind "periodic": line with ordinal m gets word[(m + phase) mod len].
    kind "koch": periodic with word = koch_word(order) followed by its
    reversal, the sequence actually stitched when working the word forwards
    and backwards.
    """

    kind: str
    word: str | None = None
    order: int | None = None
    phase: int = 0

    @classmethod
    def periodic(cls, word: str, phase: int = 0) -> "DirectionSpec":
        if not parse_word(word):
            raise WordError("periodic direction needs a non-empty word")
        return cls(PERIODIC, word=word, phase=phase)

    @classmethod
    def koch(cls, order: int, phase: int = 0) -> "DirectionSpec":
        return cls(KOCH, order=order, word=koch_word(order), phase=phase)

    def bit_sequence(self) -> str:
        """The periodic bit sequence indexed by present-line ordinal."""
        if self.kind == PERIODIC:
            assert self.word is not None
            return self.word
        assert self.kind == KOCH and self.word is not None
        return palindromic_period(self.word)


@dataclass(frozen=True)
class StitchPattern:
    specs: tuple[DirectionSpec, DirectionSpec, DirectionSpec]
    convention: GridConvention = DEFAULT_CONVENTION

    @classmethod
    def uniform(cls, spec: DirectionSpec,
                convention: GridConvention = DEFAULT_CONVENTION) -> "StitchPattern":
        return cls((spec, spec, spec), convention)

    def row_bits(self, family: int) -> bytes:
        """One period of family's row parities: byte m is the row of its
        present line with ordinal m, (phase_base + phase_slope * m +
        bit(m + phase)) mod 2. They repeat after 2p ordinals for a bit
        sequence of length p."""
        spec = self.specs[family]
        seq = spec.bit_sequence()
        p = len(seq)
        base, slope = self.convention.phase_base[family], self.convention.phase_slope[family]
        return bytes((base + slope * m + int(seq[(m + spec.phase) % p])) % 2
                     for m in range(2 * p))


def _row_shift_period(pattern: StitchPattern, f: int) -> int:
    """Smallest ordinal shift d leaving family f's front/back row parity
    unchanged: the least period of StitchPattern.row_bits(f)."""
    t = pattern.row_bits(f)
    return (t + t).find(t, 1)


@cache
def translation_basis(pattern: StitchPattern) -> tuple[tuple[int, int], tuple[int, int]]:
    """Generators of the design's full translation lattice.

    A translation (2a, 2b) shifts present-line ordinals by b (family A),
    a (family B) and a+b (family C); odd translations move present lines onto
    absent ones and never preserve the design. Solving the three row-parity
    congruences gives a basis in Hermite-like form (2*a1, 0), (2*e, 2*b2).
    Computed once per pattern, so a design and its dual share the entry.
    """
    pa = _row_shift_period(pattern, Family.A)
    pb = _row_shift_period(pattern, Family.B)
    pc = _row_shift_period(pattern, Family.C)
    a1 = pb * pc // gcd(pb, pc)
    g = gcd(pb, pc)
    b2 = pa * g // gcd(pa, g)
    e = next(a for a in range(a1) if a % pb == 0 and (a + b2) % pc == 0)
    return (2 * a1, 0), (2 * e, 2 * b2)


def period_cell(pattern: StitchPattern) -> tuple[int, int]:
    g1, g2 = translation_basis(pattern)
    return g1[0], g2[1]


# (k, s_lo, s_hi, row): a present line k whose segments s in [s_lo, s_hi] lie
# in the window; segment s is a front stitch exactly when s + row is odd.
LineRow = tuple[int, int, int, int]


def side_parity(which: str) -> int:
    """The parity of s + row that puts a segment on the named side."""
    if which == "front":
        return 1
    if which == "back":
        return 0
    raise ValueError(f"side must be 'front' or 'back', got {which!r}")


@dataclass(frozen=True)
class Design:
    """A finite-window materialization of a stitch pattern, stored line by
    line: lines[F] holds one LineRow per present line of family F that
    crosses the window, in increasing k.

    front and back are the SegmentId sets of each side, built from the rows
    on first access and then cached.
    """

    window: Window
    lines: tuple[tuple[LineRow, ...], tuple[LineRow, ...], tuple[LineRow, ...]]
    pattern: StitchPattern = field(repr=False)

    def runs(self, side: str) -> Iterator[tuple[Family, int, int, int]]:
        """Yield (family, k, first, count) for each row with a stitch on the
        named side: its stitches are the segments first, first + 2, ...,
        first + 2 * (count - 1) of line k. Rows come in Design.lines order."""
        parity = side_parity(side)
        for f, rows in zip(Family, self.lines):
            for k, s_lo, s_hi, row in rows:
                first = s_lo + (s_lo + row + parity) % 2
                count = (s_hi - first) // 2 + 1
                if count > 0:
                    yield f, k, first, count

    def _segments(self, side: str) -> frozenset[SegmentId]:
        return frozenset(SegmentId(f, k, s) for f, k, first, count in self.runs(side)
                         for s in range(first, first + 2 * count, 2))

    @cached_property
    def front(self) -> frozenset[SegmentId]:
        return self._segments("front")

    @cached_property
    def back(self) -> frozenset[SegmentId]:
        return self._segments("back")


def _line_ranges(window: Window, family: int, parity: int):
    """Yield (k, s_lo, s_hi) for present lines: segment positions s in
    [s_lo, s_hi] have both endpoints inside the window."""
    if family == Family.A:
        for k in range(window.j_min, window.j_max + 1):
            if k % 2 == parity:
                yield k, window.i_min, window.i_max - 1
    elif family == Family.B:
        for k in range(window.i_min, window.i_max + 1):
            if k % 2 == parity:
                yield k, window.j_min, window.j_max - 1
    else:
        for k in range(window.i_min + window.j_min, window.i_max + window.j_max + 1):
            if k % 2 == parity:
                # endpoints (k-s, s) and (k-s-1, s+1)
                lo = max(window.j_min, k - window.i_max)
                hi = min(window.j_max - 1, k - window.i_min - 1)
                if lo <= hi:
                    yield k, lo, hi


def generate_design(window: Window, pattern: StitchPattern) -> Design:
    """Record the row parity of every present line crossing the window; the
    segments with both endpoints in the window are split by it into front
    and back stitches."""
    window.validate()
    lines = []
    for f in (Family.A, Family.B, Family.C):
        bits = pattern.row_bits(f)
        parity = PRESENCE_PARITY[f]
        lines.append(tuple((k, s_lo, s_hi, bits[(k - parity) // 2 % len(bits)])
                           for k, s_lo, s_hi in _line_ranges(window, f, parity)))
    return Design(window, tuple(lines), pattern)


def dual(design: Design) -> Design:
    """The design formed on the reverse of the fabric: every row bit flipped,
    so each side's stitches become the other side's."""
    lines = tuple(tuple((k, s_lo, s_hi, 1 - row) for k, s_lo, s_hi, row in rows)
                  for rows in design.lines)
    return Design(design.window, lines, design.pattern)
