"""The stitch rule segment by segment: a reference the tests hold the
line-level Design against.

Segment s of present line k in family F is a front stitch exactly when

    s + phase_base[F] + phase_slope[F] * m + bit(line)

is odd, where m is the line's ordinal among the present lines of its family
and bit is the family's offset word letter at m + phase.

The line indexing it works on (LineId, lines_through, is_line_present) is
kept here, since only the tests index lines one by one.
"""
from typing import NamedTuple

from isostitch import PRESENCE_PARITY, Family, SegmentId, StitchPattern


class LineId(NamedTuple):
    family: int
    k: int


def lines_through(v: tuple[int, int]) -> tuple[LineId, LineId, LineId]:
    i, j = v
    return (LineId(Family.A, j), LineId(Family.B, i), LineId(Family.C, i + j))


def is_line_present(line: LineId) -> bool:
    return line.k % 2 == PRESENCE_PARITY[line.family]


def present_line_ordinal(line: LineId) -> int:
    """Index of a present line among the present lines of its family, so
    consecutive present lines get consecutive ordinals."""
    if not is_line_present(line):
        raise ValueError(f"line {line} carries no stitching")
    return (line.k - PRESENCE_PARITY[line.family]) // 2


def line_bit(line: LineId, pattern: StitchPattern) -> int:
    spec = pattern.specs[line.family]
    m = present_line_ordinal(line)
    seq = spec.bit_sequence()
    return int(seq[(m + spec.phase) % len(seq)])


def is_front(seg: SegmentId, pattern: StitchPattern) -> bool:
    f, k, s = seg
    conv = pattern.convention
    line = LineId(f, k)
    m = present_line_ordinal(line)
    return (s + conv.phase_base[f] + conv.phase_slope[f] * m + line_bit(line, pattern)) % 2 == 1
