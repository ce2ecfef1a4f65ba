"""The stitch rule segment by segment: a reference the tests hold the
line-level Design against.

Segment s of present line k in family F is a front stitch exactly when

    s + phase_base[F] + phase_slope[F] * m + bit(line)

is odd, where m is the line's ordinal among the present lines of its family
and bit is the family's offset word letter at m + phase.
"""
from isostitch import PRESENCE_PARITY, LineId, SegmentId, StitchPattern, is_line_present


def present_line_ordinal(line: LineId) -> int:
    """Index of a present line among the present lines of its family, so
    consecutive present lines get consecutive ordinals."""
    if not is_line_present(line):
        raise ValueError(f"line {line} carries no stitching")
    return (line.k - PRESENCE_PARITY[line.family]) // 2


def line_bit(line: LineId, pattern: StitchPattern) -> int:
    spec = pattern.specs[line.family]
    m = present_line_ordinal(line)
    return spec.bit_sequence().cyclic(m + spec.phase)


def is_front(seg: SegmentId, pattern: StitchPattern) -> bool:
    f, k, s = seg
    conv = pattern.convention
    line = LineId(f, k)
    m = present_line_ordinal(line)
    return (s + conv.phase_base[f] + conv.phase_slope[f] * m + line_bit(line, pattern)) % 2 == 1
